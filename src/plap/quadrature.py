"""Double-exponential (tanh-sinh) quadrature and a cumulative Gauss-Legendre rule.

All integrals in this package are reduced to the form ``int_0^W psi(w) dw``
with ``psi`` bounded on ``(0, W]`` (endpoint singularities are removed by an
explicit substitution before the rule is applied).  The tanh-sinh rule then
converges double-exponentially even when higher derivatives of ``psi`` blow
up at the endpoints.

A level's nodes are the even-k nodes of the next level, bit for bit
(k 2^-L = 2k 2^-(L+1)), so the first integrand pass, on level
``_MIN_LEVEL + 1``, gives the sums of the first two levels; every later
level is one more pass.

The rule comes in two forms that share nodes, levels and acceptance:
``tanh_sinh`` integrates one function; ``tanh_sinh_rows`` integrates many,
each row the float of its own ``tanh_sinh`` call (the root searches'
residuals, which must not depend on their company, and the store's scans).
It runs a level in tiles of rows of at most ``_BATCH_NODES`` nodes, so a
1023-row scan holds a few hundred kB of integrand values at a time, not
one level's worth, and a row's sum does not depend on its tile.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureFailure

_Y_MAX = 40.0  # truncate nodes once pi/2*sinh(kh) exceeds this
# the first level only seeds the comparison; the first pass, on level 4's
# nodes, gives its sum and level 4's, which may accept
_MIN_LEVEL = 3
_MAX_LEVEL = 16  # 2*(asinh(2*_Y_MAX/pi)/2^-16) stays below 2^20 nodes
# nodes per tile of tanh_sinh_rows: 128 kB per array of values, so a pass's
# temporaries stay cache-sized; every row is summed alone, so the tiling
# moves no float
_BATCH_NODES = 2**14
_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Node fractions in (0, 1) and weights for level ``level``.

    A node at fraction ``f`` corresponds to the abscissa ``W * f``; weights
    already include the interval-halving Jacobian, so
    ``integral = W * sum(psi(W * f) * weight)``.
    """
    cached = _NODE_CACHE.get(level)
    if cached is not None:
        return cached
    h = 2.0 ** (-level)
    k_max = int(np.floor(np.arcsinh(2.0 * _Y_MAX / np.pi) / h))
    k = np.arange(1, k_max + 1)
    y = 0.5 * np.pi * np.sinh(k * h)
    # 1 - tanh(y) computed stably as 2 exp(-2y)/(1 + exp(-2y))
    u = np.exp(-2.0 * y)
    dist = 2.0 * u / (1.0 + u)
    weight = 0.5 * h * (0.5 * np.pi * np.cosh(k * h)) / np.cosh(y) ** 2

    fracs = np.concatenate([dist[::-1] / 2.0, [0.5], 1.0 - dist / 2.0])
    weights = np.concatenate([weight[::-1], [0.5 * h * 0.5 * np.pi], weight])
    _NODE_CACHE[level] = (fracs, weights)
    return fracs, weights


def _even_k(vals: np.ndarray) -> np.ndarray:
    """The values at the even-k nodes of a level (last axis), which are the
    values at the nodes of the level below: a contiguous copy, so that a
    product with that level's weights adds in the order of a pass of its own."""
    return np.ascontiguousarray(vals[..., (vals.shape[-1] // 2) % 2 :: 2])  # k = 0 is the middle


def tanh_sinh(psi, upper: float, tol: float) -> float:
    """Integrate ``psi`` over ``(0, upper)`` by level doubling.

    ``psi`` must accept an ndarray of abscissae.  Refinement stops when two
    successive levels agree to relative ``tol``; exceeding the node cap
    raises QuadratureFailure.  The first call of ``psi`` gives the first
    two levels, so an integral that accepts at level 4 takes one call of
    125 nodes.
    """
    if upper == 0.0:
        return 0.0
    for level in range(_MIN_LEVEL + 1, _MAX_LEVEL + 1):
        fr, wt = _nodes(level)
        vals = psi(upper * fr)
        if level == _MIN_LEVEL + 1:
            prev = upper * float(np.dot(_even_k(vals), _nodes(_MIN_LEVEL)[1]))
        val = upper * float(np.dot(vals, wt))
        if abs(val - prev) <= tol * max(abs(val), 1e-300):
            return val
        prev = val
    raise QuadratureFailure(f"tanh-sinh stalled at level {_MAX_LEVEL} (value {prev!r})")


def tanh_sinh_rows(psi_rows, uppers: list[float] | np.ndarray, tol: float) -> list[float] | np.ndarray:
    """``tanh_sinh`` on many integrals at once, each row the float of its own
    call: ``[tanh_sinh(psi_i, u_i, tol) for u_i in uppers]``, as a list for a
    list of uppers and as an ndarray for an array.

    ``psi_rows(w_matrix, rows)`` evaluates the integrands of the rows
    ``rows`` (an ascending index array into ``uppers``), one row of
    abscissae each, and must give each row the values its own ``psi_i``
    gives.  Each level runs on the rows not yet accepted, in tiles of at most
    ``_BATCH_NODES`` nodes, one ``psi_rows`` call each, and sums every row by
    its own dot product (``np.vecdot``, which adds a row in the order of
    ``np.dot``; a matrix product may not), so a row does not depend on its
    tile.  A row still unaccepted at the node cap raises the scalar rule's
    QuadratureFailure, for the first such row.
    """
    ups = np.asarray(uppers, dtype=float)
    out = np.zeros(ups.size)
    prev = np.empty(ups.size)
    active = np.flatnonzero(ups != 0.0)
    for level in range(_MIN_LEVEL + 1, _MAX_LEVEL + 1):
        if active.size == 0:
            break
        fr, wt = _nodes(level)
        tile = max(1, _BATCH_NODES // fr.size)
        for k in range(0, active.size, tile):
            idx = active[k : k + tile]
            vals = psi_rows(ups[idx, None] * fr, idx)
            if level == _MIN_LEVEL + 1:
                prev[idx] = ups[idx] * np.vecdot(_even_k(vals), _nodes(_MIN_LEVEL)[1])
            out[idx] = ups[idx] * np.vecdot(vals, wt)
        est = out[active]
        done = np.abs(est - prev[active]) <= tol * np.maximum(np.abs(est), 1e-300)
        prev[active] = est
        active = active[~done]
    if active.size:
        raise QuadratureFailure(f"tanh-sinh stalled at level {_MAX_LEVEL} (value {float(prev[active[0]])!r})")
    return out.tolist() if isinstance(uppers, list) else out


_GL12_X, _GL12_W = np.polynomial.legendre.leggauss(12)


def cumulative_gl(psi, grid: np.ndarray) -> np.ndarray:
    """Cumulative integral of ``psi`` along an ascending grid (12-point
    Gauss-Legendre per panel).

    Returns values of ``int_{grid[0]}^{grid[i]} psi`` for every i.
    """
    mid = 0.5 * (grid[1:] + grid[:-1])
    half = 0.5 * (grid[1:] - grid[:-1])
    pts = mid[:, None] + half[:, None] * _GL12_X[None, :]
    panel = (psi(pts) @ _GL12_W) * half
    out = np.empty(grid.size)
    out[0] = 0.0
    np.cumsum(panel, out=out[1:])
    return out
