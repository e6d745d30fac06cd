import math

import numpy as np
import pytest
from oracles import tanh_sinh_by_level, tanh_sinh_rows_by_level

from plap import quadrature, timemap
from plap.errors import QuadratureFailure
from plap.quadrature import _MAX_LEVEL, _MIN_LEVEL, cumulative_gl, tanh_sinh, tanh_sinh_rows
from plap.timemap import QUAD_TOL, Arch, TimeMapCurves


def _power_rows(exponents):
    """psi_rows for the rows w^e_i, one exponent per row."""
    exponents = np.asarray(exponents, dtype=float)
    return lambda w, idx: w ** exponents[idx][:, None]


def _sizes(psi, log):
    """``psi``, logging the shape of each array it is called with."""

    def logged(w, *idx):
        log.append(w.shape)
        return psi(w, *idx)

    return logged


def _oscillation(w, *idx):
    return np.cos(1e8 * w)


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
        assert tanh_sinh(psi, upper, 1e-12) == tanh_sinh_by_level(psi, upper, 1e-12)

    def test_empty_interval(self):
        assert tanh_sinh(np.exp, 0.0, 1e-12) == 0.0

    def test_unresolved_oscillation_fails(self):
        with pytest.raises(QuadratureFailure) as failure:
            tanh_sinh(_oscillation, 1.0, 1e-10)
        with pytest.raises(QuadratureFailure) as reference:  # stalled at the same value
            tanh_sinh_by_level(_oscillation, 1.0, 1e-10)
        assert str(failure.value) == str(reference.value)


class TestTanhSinhBatch:
    """``tanh_sinh_rows`` on an array of uppers, the batch of a store scan:
    an array back, every row the float of its own call, whatever its tile."""

    exponents = np.array([-0.5, -0.25, 0.0, 0.5, 1.0, 2.5, 7.0])
    uppers = np.array([0.3, 1.0, 2.0, 0.01, 5.0, 1.5, 1.1])

    def test_closed_forms(self):
        got = tanh_sinh_rows(_power_rows(self.exponents), self.uppers, 1e-12)
        assert isinstance(got, np.ndarray)
        exact = self.uppers ** (self.exponents + 1.0) / (self.exponents + 1.0)
        np.testing.assert_allclose(got, exact, rtol=1e-12)

    def test_rows_equal_the_scalar_driver(self):
        got = tanh_sinh_rows(_power_rows(self.exponents), self.uppers, 1e-12)
        assert got.tolist() == [tanh_sinh(lambda w: w**e, upper, 1e-12) for e, upper in zip(self.exponents, self.uppers)]

    def test_blocks_agree_with_one_block(self, monkeypatch):
        rng = np.random.default_rng(7)
        exponents = rng.uniform(-0.5, 3.0, 300)
        uppers = rng.uniform(0.1, 3.0, 300)
        monkeypatch.setattr(quadrature, "_BATCH_NODES", 30_000_000)
        whole = tanh_sinh_rows(_power_rows(exponents), uppers, 1e-12)
        shapes = []

        def rows(w, idx):
            shapes.append(w.shape)
            return w ** exponents[idx][:, None]

        monkeypatch.setattr(quadrature, "_BATCH_NODES", 5000)
        blocked = tanh_sinh_rows(rows, uppers, 1e-12)
        assert max(r * n for r, n in shapes) <= 5000
        assert len(shapes) > 2 * len({n for _, n in shapes})  # levels ran in several blocks
        assert blocked.tolist() == whole.tolist()

    def test_no_rows(self):
        assert tanh_sinh_rows(_power_rows([]), np.array([]), 1e-12).size == 0

    def test_unresolved_oscillation_fails(self):
        with pytest.raises(QuadratureFailure) as failure:
            tanh_sinh_rows(_oscillation, np.array([1.0, 0.5]), 1e-10)
        with pytest.raises(QuadratureFailure) as reference:  # the first stalled row's own failure
            tanh_sinh(_oscillation, 1.0, 1e-10)
        with pytest.raises(QuadratureFailure) as by_level:
            tanh_sinh_rows_by_level(_oscillation, np.array([1.0, 0.5]), 1e-10)
        assert str(failure.value) == str(reference.value) == str(by_level.value)
        assert "np.float64" not in str(failure.value)


class TestTanhSinhRows:
    """The rows form of ``tanh_sinh``: every row is the float of its own call."""

    widths = np.array([1.0, 0.3, 0.1, 0.03, 0.01, 1e-3, 0.5])  # of a peak at w = 1: levels 4 to 14
    uppers = [1.5, 2.0, 1.2, 3.0, 1.9, 1.7, 2.5]

    def test_rows_equal_the_scalar_rule(self):
        def peaks(w, rows):
            c = self.widths[rows][:, None] ** 2
            return 1.0 / (c + (w - 1.0) * (w - 1.0))

        shapes = []
        got = tanh_sinh_rows(_sizes(peaks, shapes), self.uppers, 1e-12)
        assert got == [
            tanh_sinh(lambda w: 1.0 / (d**2 + (w - 1.0) * (w - 1.0)), upper, 1e-12)
            for d, upper in zip(self.widths, self.uppers)
        ]
        assert shapes[0] == (len(self.uppers), quadrature._nodes(_MIN_LEVEL + 1)[0].size)
        assert len(shapes) > 1  # later levels run on the rows not yet accepted
        assert all(rows < len(self.uppers) for rows, _ in shapes[1:])

    def test_an_empty_interval_and_no_rows(self):
        assert tanh_sinh_rows(_power_rows([1.0, 2.0]), [0.0, 2.0], 1e-12) == [0.0, tanh_sinh(np.square, 2.0, 1e-12)]
        assert tanh_sinh_rows(_power_rows([]), [], 1e-12) == []

    def test_unresolved_oscillation_fails_as_the_scalar_rule(self):
        with pytest.raises(QuadratureFailure) as failure:
            tanh_sinh_rows(_oscillation, [1.0, 0.5], 1e-10)
        with pytest.raises(QuadratureFailure) as reference:  # the first stalled row's own failure
            tanh_sinh(_oscillation, 1.0, 1e-10)
        assert str(failure.value) == str(reference.value)


class TestFirstPass:
    """The first integrand pass, on level ``_MIN_LEVEL + 1``'s nodes, gives
    the sums of the first two levels, with the floats of one pass per level."""

    first = quadrature._nodes(_MIN_LEVEL + 1)[0].size  # 125 nodes

    @pytest.mark.parametrize("level", range(_MIN_LEVEL, _MAX_LEVEL))
    def test_a_level_is_the_even_k_nodes_of_the_next(self, level):
        coarse = quadrature._nodes(level)[0]
        even_k = quadrature._even_k(quadrature._nodes(level + 1)[0])
        assert even_k.view(np.uint64).tolist() == coarse.view(np.uint64).tolist()

    def test_a_level_4_integral_is_one_call(self):
        new, ref = [], []
        got = tanh_sinh(_sizes(np.sin, new), math.pi, 1e-12)
        assert got == tanh_sinh_by_level(_sizes(np.sin, ref), math.pi, 1e-12)
        assert ref == [(quadrature._nodes(_MIN_LEVEL)[0].size,), (self.first,)]  # it accepts at level 4
        assert new == [(self.first,)]

    @pytest.mark.parametrize("batch_nodes", [1000, 2**14, 30_000_000])
    def test_a_level_4_batch_is_one_call_per_block(self, monkeypatch, batch_nodes):
        monkeypatch.setattr(quadrature, "_BATCH_NODES", batch_nodes)
        exponents = np.linspace(0.0, 3.0, 20)
        shapes = []
        tanh_sinh_rows(_sizes(_power_rows(exponents), shapes), np.full(20, 1.5), 1e-12)
        block = max(1, batch_nodes // self.first)
        assert shapes == [(min(block, 20 - k), self.first) for k in range(0, 20, block)]

    def test_a_level_6_integral_equals_one_pass_per_level(self):
        def psi(w):
            return np.cos(50.0 * w)

        new, ref = [], []
        assert tanh_sinh(_sizes(psi, new), 1.0, 1e-12) == tanh_sinh_by_level(_sizes(psi, ref), 1.0, 1e-12)
        assert len(ref) == 4 and ref[-1] == quadrature._nodes(6)[0].shape  # levels 3 to 6
        assert new == ref[1:]

    @pytest.mark.parametrize("fixture", ["asym", "cubic_odd"])
    @pytest.mark.parametrize("at_z_plus", [False, True], ids=["simple", "z_plus"])
    def test_arch_integrals_equal_one_pass_per_level(self, request, fixture, at_z_plus):
        nl = request.getfixturevalue(fixture)
        arch = Arch(nl, 3.0, nl.z_plus if at_z_plus else 0.5 * nl.z_plus, at_z_plus)
        upper = arch.top ** (1.0 / arch.beta)
        assert tanh_sinh(arch.psi, upper, QUAD_TOL) == tanh_sinh_by_level(arch.psi, upper, QUAD_TOL)

    @pytest.mark.parametrize("negative", [False, True])
    def test_a_store_scan_equals_one_pass_per_level(self, asym, monkeypatch, negative):
        area = timemap._area(asym, asym.z_plus)
        got = TimeMapCurves(asym, 3.0).integrals(area, negative)
        monkeypatch.setattr(timemap, "tanh_sinh_rows", tanh_sinh_rows_by_level)
        assert got.tolist() == TimeMapCurves(asym, 3.0).integrals(area, negative).tolist()


class TestTiles:
    """A store scan runs each level in tiles of at most ``_BATCH_NODES``
    nodes, and its floats do not depend on the tiling."""

    @pytest.mark.parametrize("fixture", ["asym", "cubic_odd"])
    def test_a_store_scan_does_not_depend_on_its_tiles(self, request, monkeypatch, fixture):
        nl = request.getfixturevalue(fixture)
        area = timemap._area(nl, nl.z_plus)
        scans = []
        for batch_nodes in (1000, 2**14, 30_000_000):
            monkeypatch.setattr(quadrature, "_BATCH_NODES", batch_nodes)
            scans.append(TimeMapCurves(nl, 3.0).integrals(area, False).tolist())
        assert scans[0] == scans[1] == scans[2]

    def test_a_cold_scan_evaluates_at_most_a_tile_per_call(self, asym, monkeypatch):
        sizes, psi = [], Arch.psi

        def logged(self, w, *args):
            sizes.append(np.size(w))
            return psi(self, w, *args)

        monkeypatch.setattr(Arch, "psi", logged)
        TimeMapCurves(asym, 3.0).integrals(timemap._area(asym, asym.z_plus), False)
        assert len(sizes) > 1 and max(sizes) <= quadrature._BATCH_NODES


def test_cumulative_gl_closed_form():
    grid = np.linspace(0.0, 2.0, 9)
    np.testing.assert_allclose(cumulative_gl(np.cos, grid), np.sin(grid), rtol=1e-14, atol=1e-15)
