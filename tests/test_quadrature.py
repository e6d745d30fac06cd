import math

import numpy as np
import pytest

from plap import quadrature
from plap.errors import QuadratureFailure
from plap.quadrature import cumulative_gl, tanh_sinh, tanh_sinh_batch


def _power_rows(exponents):
    """psi_rows for the rows w^e_i, one exponent per row."""
    exponents = np.asarray(exponents, dtype=float)
    return lambda w, idx: w ** exponents[idx][:, None]


class TestTanhSinh:
    @pytest.mark.parametrize(
        "psi, upper, exact",
        [
            (np.sin, math.pi, 2.0),
            (lambda w: 1.0 / (1.0 + w * w), 1.0, math.pi / 4.0),
            (lambda w: w**-0.5, 2.0, 2.0 * math.sqrt(2.0)),  # singular at 0
            (np.log, 1.0, -1.0),  # singular at 0
        ],
    )
    def test_closed_forms(self, psi, upper, exact):
        assert tanh_sinh(psi, upper, 1e-12) == pytest.approx(exact, rel=1e-12)

    def test_empty_interval(self):
        assert tanh_sinh(np.exp, 0.0, 1e-12) == 0.0

    def test_unresolved_oscillation_fails(self):
        with pytest.raises(QuadratureFailure):
            tanh_sinh(lambda w: np.cos(1e8 * w), 1.0, 1e-10)


class TestTanhSinhBatch:
    exponents = np.array([-0.5, -0.25, 0.0, 0.5, 1.0, 2.5, 7.0])
    uppers = np.array([0.3, 1.0, 2.0, 0.01, 5.0, 1.5, 1.1])

    def test_closed_forms(self):
        got = tanh_sinh_batch(_power_rows(self.exponents), self.uppers, 1e-12)
        exact = self.uppers ** (self.exponents + 1.0) / (self.exponents + 1.0)
        np.testing.assert_allclose(got, exact, rtol=1e-12)

    def test_rows_equal_the_scalar_driver(self):
        got = tanh_sinh_batch(_power_rows(self.exponents), self.uppers, 1e-12)
        for e, upper, row in zip(self.exponents, self.uppers, got):
            # the same nodes and levels; the row's dot product may round differently
            assert row == pytest.approx(tanh_sinh(lambda w: w**e, upper, 1e-12), rel=1e-15, abs=0.0)

    def test_blocks_agree_with_one_block(self, monkeypatch):
        rng = np.random.default_rng(7)
        exponents = rng.uniform(-0.5, 3.0, 300)
        uppers = rng.uniform(0.1, 3.0, 300)
        whole = tanh_sinh_batch(_power_rows(exponents), uppers, 1e-12)
        shapes = []

        def rows(w, idx):
            shapes.append(w.shape)
            return w ** exponents[idx][:, None]

        monkeypatch.setattr(quadrature, "_BATCH_NODES", 5000)
        blocked = tanh_sinh_batch(rows, uppers, 1e-12)
        assert max(r * n for r, n in shapes) <= 5000
        assert len(shapes) > 2 * len({n for _, n in shapes})  # levels ran in several blocks
        np.testing.assert_allclose(blocked, whole, rtol=1e-14, atol=0.0)

    def test_no_rows(self):
        assert tanh_sinh_batch(_power_rows([]), np.array([]), 1e-12).size == 0

    def test_unresolved_oscillation_fails(self):
        psi_rows = lambda w, idx: np.cos(1e8 * w)
        with pytest.raises(QuadratureFailure):
            tanh_sinh_batch(psi_rows, np.array([1.0, 0.5]), 1e-10)


def test_cumulative_gl_closed_form():
    grid = np.linspace(0.0, 2.0, 9)
    np.testing.assert_allclose(cumulative_gl(np.cos, grid), np.sin(grid), rtol=1e-14, atol=1e-15)
