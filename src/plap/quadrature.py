"""Double-exponential (tanh-sinh) quadrature and a cumulative Gauss-Legendre rule.

All integrals in this package are reduced to the form ``int_0^W psi(w) dw``
with ``psi`` bounded on ``(0, W]`` (endpoint singularities are removed by an
explicit substitution before the rule is applied).  The tanh-sinh rule then
converges double-exponentially even when higher derivatives of ``psi`` blow
up at the endpoints.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureFailure

_Y_MAX = 40.0  # truncate nodes once pi/2*sinh(kh) exceeds this
_MIN_LEVEL = 3  # the first level only seeds the comparison: level 4 may accept
_MAX_LEVEL = 16  # 2*(asinh(2*_Y_MAX/pi)/2^-16) stays below 2^20 nodes
# nodes per block of tanh_sinh_batch; splitting a level into blocks may move a
# row's sum by an ulp, and a 1023-row scan is split only from level 12 on
_BATCH_NODES = 30_000_000
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


def tanh_sinh(psi, upper: float, tol: float) -> float:
    """Integrate ``psi`` over ``(0, upper)`` by level doubling.

    ``psi`` must accept an ndarray of abscissae.  Refinement stops when two
    successive levels agree to relative ``tol``; exceeding the node cap
    raises QuadratureFailure.
    """
    if upper == 0.0:
        return 0.0
    prev = np.nan  # no level agrees with it
    for level in range(_MIN_LEVEL, _MAX_LEVEL + 1):
        fr, wt = _nodes(level)
        val = upper * float(np.dot(psi(upper * fr), wt))
        if abs(val - prev) <= tol * max(abs(val), 1e-300):
            return val
        prev = val
    raise QuadratureFailure(f"tanh-sinh stalled at level {_MAX_LEVEL} (value {prev!r})")


def tanh_sinh_batch(psi_rows, uppers: np.ndarray, tol: float) -> np.ndarray:
    """Row-wise tanh-sinh for a family of integrals sharing one rule.

    ``psi_rows(w_matrix, row_idx)`` evaluates the integrand for the selected
    rows at a matrix of abscissae (one row per integral).  Each level runs
    on the rows not yet converged, in blocks of at most ``_BATCH_NODES``
    nodes; a row still unconverged at the node cap raises QuadratureFailure.
    """
    uppers = np.asarray(uppers, dtype=float)
    out = np.empty(uppers.size)
    prev = np.full(uppers.size, np.nan)
    active = np.arange(uppers.size)
    for level in range(_MIN_LEVEL, _MAX_LEVEL + 1):
        fr, wt = _nodes(level)
        rows = max(1, _BATCH_NODES // fr.size)
        for k in range(0, active.size, rows):
            idx = active[k : k + rows]
            out[idx] = uppers[idx] * (psi_rows(uppers[idx, None] * fr[None, :], idx) @ wt)
        est = out[active]
        done = np.abs(est - prev[active]) <= tol * np.maximum(np.abs(est), 1e-300)
        prev[active] = est
        active = active[~done]
        if active.size == 0:
            return out
    raise QuadratureFailure(
        f"tanh-sinh stalled at level {_MAX_LEVEL} in {active.size} of {uppers.size} rows"
    )


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
