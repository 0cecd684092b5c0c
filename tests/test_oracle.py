"""Finite-difference oracle: discretization, disc and dense eigensolves, level matching."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from sl2spectra import (
    Grid,
    GridFunction,
    InvalidSpec,
    MorseABSpec,
    MorseSpec,
    NoConvergence,
    NoRegularBranch,
    PoschlTellerSpec,
    ScarfSpec,
    boundary_decay,
    default_grid,
    ground_state,
    match_levels,
    residual,
    solve,
    tower_state,
    verify_spectrum,
)
from sl2spectra.algebra import PotentialClass, RealizationParams
from sl2spectra.oracle import (
    BACKWARD_ERROR_TOL,
    DEFAULT_DECAY_GATE,
    DEFAULT_MATCH_TOL,
    DENSE_CAP,
    Eigendata,
    _circles,
    _dense_form,
    _nodes,
    _polish,
    banded_form,
    banded_matvec,
    discretize,
    eigvals_complex,
)
from sl2spectra.spectrum import EigenLevel, enumerate_levels

from dense_reference import dense_eigvals, eig_complex, solve_banded_vector

# Half-width of the window about each closed level that the split tests read:
# the E = -0.25 split pair sits 1.07e-3 from -0.25 on the pinned box.
SPLIT_WINDOW = 5e-3


@pytest.fixture(scope="module")
def scarf96_box18():
    """Moderate-size pipeline run shared by the matching tests."""
    spec = ScarfSpec(9.75, 6.0)
    grid = Grid(-18.0, 18.0, 1501)
    closed = [lv for sol in solve(spec) for lv in enumerate_levels(sol)]
    ab = banded_form(spec.potential, grid)
    eigendata = Eigendata.from_bands(ab, [lv.energy for lv in closed], SPLIT_WINDOW)
    return spec, grid, closed, eigendata


class TestGrid:
    def test_validation(self):
        with pytest.raises(InvalidSpec, match=r"empty domain \[1\.0, 1\.0\]"):
            Grid(1.0, 1.0, 100)
        with pytest.raises(InvalidSpec, match="need at least 16 points, got 8"):
            Grid(0.0, 1.0, 8)

    def test_geometry(self):
        g = Grid(-1.0, 1.0, 21)
        assert abs(g.spacing - 0.1) < 1e-15
        assert g.points.size == 21
        assert g.interior.size == 19

    def test_defaults(self):
        assert default_grid(ScarfSpec(1.0, 1.0)).x_max == 20.0
        assert default_grid(PoschlTellerSpec(1.0, 1.0)).x_min == -20.0
        assert default_grid(MorseABSpec(1, 1, 3, 3)).x_max == 35.0
        assert default_grid(ScarfSpec(1.0, 1.0), 500).n_points == 500


def _stencil_reference(potential, grid):
    """H = -D2 + diag(V) assembled densely in C order from the documented stencil."""
    m = grid.n_points - 2
    d2 = (
        np.diag(np.full(m, -30.0 / 12.0))
        + np.diag(np.full(m - 1, 16.0 / 12.0), 1)
        + np.diag(np.full(m - 1, 16.0 / 12.0), -1)
        + np.diag(np.full(m - 2, -1.0 / 12.0), 2)
        + np.diag(np.full(m - 2, -1.0 / 12.0), -2)
    ).astype(complex)
    for j in (0, 1, m - 2, m - 1):  # second-order rows next to the walls
        d2[j, :] = 0.0
        d2[j, j] = -2.0
        for k in (j - 1, j + 1):
            if 0 <= k < m:
                d2[j, k] = 1.0
    d2 /= grid.spacing * grid.spacing
    return -d2 + np.diag(np.asarray(potential.potential(grid.interior), dtype=complex))


class TestDiscretize:
    @pytest.mark.parametrize(
        "spec",
        [ScarfSpec(9.75, 6.0), MorseABSpec(1.0, 1.0, 3.0, 5.0)],
        ids=["scarf", "morse-ab"],
    )
    def test_fortran_order_and_stencil(self, spec):
        grid = Grid(*spec.box, 300)
        h = discretize(spec.potential, grid)
        assert h.dtype == np.complex128 and h.flags.f_contiguous
        assert np.array_equal(h, _stencil_reference(spec, grid))

    def test_oversized_grid_rejected_before_allocation(self):
        grid = Grid(-20.0, 20.0, 5000)
        assert grid.n_points - 2 > DENSE_CAP
        tracemalloc.start()
        try:
            with pytest.raises(InvalidSpec, match="capped"):
                discretize(ScarfSpec(9.75, 6.0).potential, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_free_particle_box(self):
        # Dirichlet box [-1, 1]: E_k = (k pi / 2)^2, each alone in its disc
        ab = banded_form(lambda x: np.zeros_like(x), Grid(-1.0, 1.0, 401))
        exact = [(k * math.pi / 2) ** 2 for k in (1, 2, 3)]
        w = Eigendata.from_bands(ab, exact, 1e-3).values
        assert w.size == 3
        assert np.max(np.abs(w - exact)) < 1e-4

    def test_hermitian_limit_real_spectrum(self):
        # real Scarf well (v2 -> 0): eigenvalues must stay on the real axis
        ab = banded_form(lambda x: -9.75 / np.cosh(x) ** 2, Grid(-12.0, 12.0, 600))
        w = dense_eigvals(ab)
        assert np.max(np.abs(w.imag)) < 1e-10

    def test_accepts_spec_and_rejects_nonfinite(self):
        g = Grid(-5.0, 5.0, 64)
        discretize(ScarfSpec(1.0, 1.0).potential, g)
        with pytest.raises(InvalidSpec):
            discretize(lambda x: np.full_like(x, np.inf), g)

    def test_banded_form_matches_dense(self):
        # the bands are exactly the diagonals of the dense reference, with
        # zeros in the corners that no row reaches
        for spec in (ScarfSpec(2.0, 1.0), MorseABSpec(1.0, 1.0, 3.0, 5.0)):
            grid = Grid(*spec.box, 80)
            ab = banded_form(spec.potential, grid)
            h = _stencil_reference(spec, grid)
            assert ab.shape == (5, 78) and ab.dtype == np.complex128
            for k in range(-2, 3):
                lo, hi = max(k, 0), 78 + min(k, 0)
                assert np.array_equal(ab[2 - k, lo:hi], np.diagonal(h, k))
                assert not np.any(ab[2 - k, :lo]) and not np.any(ab[2 - k, hi:])
            rng = np.random.default_rng(3)
            v = rng.standard_normal(78) + 1j * rng.standard_normal(78)
            assert np.max(np.abs(banded_matvec(ab, v) - h @ v)) < 1e-10 * np.max(np.abs(h @ v))


class TestEig:
    def test_diagonal(self):
        d = np.diag(np.array([1 + 2j, -3 + 0j, 0.5j]))
        w, v = eig_complex(d)
        assert sorted(w, key=lambda z: (z.real, z.imag)) == [-3 + 0j, 0 + 0.5j, 1 + 2j]

    def test_rotation_pair(self):
        w, _ = eig_complex(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
        lo, hi = sorted(w, key=lambda z: z.imag)
        assert abs(lo + 1j) < 1e-12 and abs(hi - 1j) < 1e-12

    def test_backward_error_contract(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
        w, v = eig_complex(a.copy())
        resid = np.linalg.norm(a @ v - v * w, axis=0)
        assert np.max(resid / (np.linalg.norm(a) * np.linalg.norm(v, axis=0))) < 1e-10

    def test_eigvals_consistent_with_eig(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
        w1 = eigvals_complex(a.copy())
        w2, _ = eig_complex(a.copy())
        assert np.max(np.abs(w1 - w2)) < 1e-10

    def test_complex_solve_in_place(self):
        # the disc solve holds A0 and its probes, O(N p) with p = 16 at the
        # E = -0.25 crossing disc: it measures 1.06 MB, 18 % of one complex
        # N x N block, so no such block is traced
        spec, m = ScarfSpec(9.75, 6.0), 600
        ab = banded_form(spec.potential, Grid(*spec.box, m + 2))
        tracemalloc.start()
        try:
            Eigendata.from_bands(ab, _closed_energies(spec), DEFAULT_MATCH_TOL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * 16 * m * m

    def test_lazy_vectors_match_dense_vectors(self):
        spec = ScarfSpec(9.75, 6.0)
        grid = Grid(-12.0, 12.0, 500)
        w_full, v_full = eig_complex(discretize(spec.potential, grid))
        data = Eigendata.from_bands(banded_form(spec.potential, grid), [-6.25], DEFAULT_MATCH_TOL)
        assert data.values.size == 1
        polished = data.vector(0)
        dense = v_full[:, int(np.argmin(np.abs(w_full - (-6.25))))]
        overlap = abs(np.vdot(polished, dense)) ** 2
        assert overlap / (np.vdot(polished, polished).real * np.vdot(dense, dense).real) > 1 - 1e-10

    def test_vector_raises_no_convergence(self):
        # H = I and the unit vector (1, ..., 1) / 4 paired with 0.5: its
        # residual |1 - 0.5| breaks the backward-error contract
        ab = np.zeros((5, 16), dtype=complex)
        ab[2] = 1.0
        data = Eigendata(np.array([0.5 + 0j]), np.full((1, 16), 0.25 + 0j), bands=ab)
        with pytest.raises(NoConvergence, match="contract"):
            data.vector(0)


def _fd_bands(spec, box=None, n_points=300):
    return banded_form(spec.potential, Grid(*(box or spec.box), n_points))


def _closed_energies(spec):
    return [lv.energy for sol in solve(spec) for lv in enumerate_levels(sol)]


# Disc radius of the N = 300 disc tests: each closed level's disc holds its
# FD eigenvalue and some box states, the discs about -2.25 and -0.25 meet,
# and so do those of the broken-phase pair.
DISC_RADIUS = 1.25
DISC_CASES = {
    "scarf-default-box": (ScarfSpec(9.75, 6.0), None),
    "scarf-box15": (ScarfSpec(9.75, 6.0), (-15.0, 15.0)),
    "scarf-broken": (ScarfSpec(0.0, 5.0), None),
    "gpt-c0": (PoschlTellerSpec(9.75, 6.0, c=0.0, contour_gamma=math.pi / 8), None),
    "gpt-c0.5": (PoschlTellerSpec(9.75, 6.0, c=0.5, contour_gamma=math.pi / 8), None),
    "morse-ab": (MorseABSpec(1.0, 1.0, 3.0, 5.0), None),
}


class TestDiscSolve:
    @pytest.mark.parametrize("case", DISC_CASES)
    def test_disc_returns_the_dense_eigenvalues_inside(self, case):
        # every disc alone, then all of them at once, whose circles merge:
        # the disc solve returns the dense eigenvalues inside, each once, to
        # 1e-10 ||H||_F
        spec, box = DISC_CASES[case]
        ab = _fd_bands(spec, box)
        w_ref = dense_eigvals(ab)
        centres = _closed_energies(spec)
        for group in [[c] for c in centres] + [centres]:
            circles = _circles(group, DISC_RADIUS)
            dist = np.stack([np.abs(w_ref - c) / r for c, r in circles])
            assert np.all(np.abs(dist - 1.0) > 1e-3)  # no eigenvalue on a circle
            inside = w_ref[np.any(dist < 1.0, axis=0)]
            w = Eigendata.from_bands(ab, group, DISC_RADIUS).values
            assert w.size == inside.size > 0
            cost = np.abs(w[:, None] - inside[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() < 1e-10 * np.linalg.norm(ab)

    @pytest.mark.parametrize("case", DISC_CASES)
    def test_every_pair_meets_the_backward_error_contract(self, case):
        # each vector is the one the polish of its eigenvalue ended on
        spec, box = DISC_CASES[case]
        ab = _fd_bands(spec, box)
        data = Eigendata.from_bands(ab, _closed_energies(spec), DISC_RADIUS)
        assert data.vectors.shape == (data.values.size, ab.shape[1]) and data.values.size > 0
        resid = banded_matvec(ab, data.vectors.T) - data.vectors.T * data.values
        backward = np.linalg.norm(resid, axis=0) / np.linalg.norm(data.vectors, axis=1)
        assert np.max(backward / np.linalg.norm(ab)) < BACKWARD_ERROR_TOL
        for i in range(data.values.size):  # the probe's own check passes on the stored vector
            assert np.array_equal(data.vector(i), data.vectors[i])

    def test_disc_solve_is_scale_free(self):
        # on a +-1e70 box at 100 points the ten lowest box levels lie near
        # 1e-140, below the largest entry under which xGEEV rescales a matrix
        # and loses its spectrum; the projected matrix, in each circle's own
        # coordinates, still gives all ten
        grid = Grid(-1e70, 1e70, 100)
        ab = banded_form(ScarfSpec(9.75, 6.0).potential, grid)
        h2 = grid.spacing**2
        ref = dense_eigvals(ab * h2)  # the same operator scaled by h^2
        ref = ref[np.argsort(np.abs(ref))][:10] / h2
        gap = min(abs(a - b) for i, a in enumerate(ref) for b in ref[:i])
        w = Eigendata.from_bands(ab, ref, 0.25 * gap).values
        assert w.size == 10
        assert max(np.min(np.abs(w - e)) / abs(e) for e in ref) < 1e-10

    def test_meeting_discs_merge_into_one_circle(self):
        # -6.25 stays alone; the -2.25 and -0.25 discs meet and merge into the
        # smallest circle that holds both, which holds the second -0.25 disc
        assert _circles([-6.25, -2.25, -0.25, -0.25], 1.25) == [(-6.25, 1.25), (-1.25, 2.25)]

    def test_row_with_an_empty_disc_reports_nan(self, scarf96_box18):
        # -6.248 lies 2e-3 from the decaying ground eigenvalue, which the
        # fixture's 5e-3 windows hold: outside the row's 1e-3 disc it is no
        # candidate, and the row's own disc holds nothing
        spec, grid, _, eigendata = scarf96_box18
        level = EigenLevel(n=0, energy=-6.248 + 0j, epsilon=1)
        ab = banded_form(spec.potential, grid)
        for data in (eigendata, Eigendata.from_bands(ab, [level.energy], DEFAULT_MATCH_TOL)):
            row = match_levels([level], data).rows[0]
            assert not row.matched
            assert math.isnan(row.e_numeric.real) and math.isnan(row.abs_error)


def _empty_eigendata():
    """What discs that hold no eigenvalue give: no values and no vectors."""
    return Eigendata(np.empty(0, dtype=complex), np.empty((0, 64), dtype=complex),
                     bands=np.zeros((5, 64), dtype=complex))


class TestMatching:
    def test_conjugate_pair_tie_goes_to_negative_imaginary_member(self):
        # 20 exact conjugate pairs sorted by (re, im), the eigenvalues of a
        # diagonal H whose unit eigenvectors, zero at the walls, all decay;
        # each real closed level sits at equal distance from both members of
        # one pair.
        k = np.arange(20)
        re, im = -5.0 + 0.5 * k, 0.2 + 0.01 * k
        values = np.stack([re - 1j * im, re + 1j * im], axis=1).ravel()
        ab = np.zeros((5, 64), dtype=complex)
        ab[2, 12:52] = values
        data = Eigendata(values, np.eye(64, dtype=complex)[12:52], bands=ab)
        closed = [EigenLevel(n=0, energy=complex(e), epsilon=1) for e in re]
        report = match_levels(closed, data, tol=0.5)
        assert report.all_matched
        assert [r.e_numeric for r in report.rows] == list(values[::2])

    def test_all_levels_matched(self, scarf96_box18):
        spec, grid, closed, eigendata = scarf96_box18
        report = match_levels(closed, eigendata)
        assert report.all_matched
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.abs_error < 1e-3
            assert row.boundary_decay < 1e-2

    def test_negative_control_unmatched(self, scarf96_box18):
        # a deliberately wrong level finds no decaying eigenvalue within tol
        _, _, _, eigendata = scarf96_box18
        fake = [EigenLevel(n=0, energy=1.0 + 0j, epsilon=1)]
        report = match_levels(fake, eigendata)
        assert not report.rows[0].matched
        assert not report.all_matched

    def test_empty_eigendata_leaves_every_row_unmatched(self):
        # discs that hold no eigenvalue give an Eigendata without values
        data = _empty_eigendata()
        closed = [EigenLevel(n=n, energy=complex(e), epsilon=1) for n, e in enumerate((-6.25, -2.25))]
        report = match_levels(closed, data)
        assert len(report.rows) == 2 and not report.all_matched
        for row, level in zip(report.rows, closed):
            assert not row.matched and (row.n, row.e_closed) == (level.n, level.energy)
            assert math.isnan(row.e_numeric.real) and math.isnan(row.e_numeric.imag)
            assert math.isnan(row.abs_error) and math.isnan(row.boundary_decay)

    def test_matched_is_a_plain_bool_on_every_row(self, scarf96_box18):
        # rows whose candidate decays (within tol or not), a row whose only
        # candidate, the flat eigenvector of H = I at 1, fails the gate, and
        # a row with no candidate at all
        _, _, closed, eigendata = scarf96_box18
        fake = [EigenLevel(n=0, energy=1.0 + 0j, epsilon=1)]
        identity = np.zeros((5, 64), dtype=complex)
        identity[2] = 1.0
        flat = Eigendata(np.array([1 + 0j]), np.full((1, 64), 0.125 + 0j), bands=identity)
        empty = _empty_eigendata()
        rows = [
            row
            for data, levels in ((eigendata, closed + fake), (flat, fake), (empty, fake))
            for row in match_levels(levels, data).rows
        ]
        assert [row.matched for row in rows] == [True] * len(closed) + [False] * 3
        assert all(type(row.matched) is bool for row in rows)

    def test_empty_closed_list(self, scarf96_box18):
        _, _, _, eigendata = scarf96_box18
        assert match_levels([], eigendata).rows == []

    @staticmethod
    def deeper_decaying_levels(eigendata, floor_re):
        """Decaying numeric levels deeper than floor_re - DEFAULT_MATCH_TOL (missed-state probe)."""
        return [
            complex(eigendata.values[idx])
            for idx in np.nonzero(eigendata.values.real < floor_re - DEFAULT_MATCH_TOL)[0]
            if boundary_decay(eigendata.vector(int(idx))) <= DEFAULT_DECAY_GATE
        ]

    def test_no_decaying_level_below_ground(self, scarf96_box18):
        # read from the whole dense spectrum, each eigenvalue below the floor
        # with its solve_banded_vector: the discs hold none below it
        spec, grid, closed, _ = scarf96_box18
        ab = banded_form(spec.potential, grid)
        floor = min(lv.energy.real for lv in closed)
        w = dense_eigvals(ab)
        w = w[w.real < floor - DEFAULT_MATCH_TOL]
        vectors = np.array([solve_banded_vector(ab, lam) for lam in w]).reshape(w.size, ab.shape[1])
        assert self.deeper_decaying_levels(Eigendata(w, vectors, bands=ab), floor) == []

    def test_degenerate_crossing_splits_under_truncation(self, scarf96_box18):
        # At v1=9.75, v2=6 the two branch series cross at E = -0.25; the level
        # is defective there, and a Dirichlet box splits it symmetrically by
        # ~2 e^{-L/2}.  At L=18 the halves sit ~2.4e-4 from -0.25 (an
        # independent high-order shooting integration confirms the L=15
        # values -0.25106783 / -0.24890540 used in the acceptance analysis).
        _, _, _, eigendata = scarf96_box18
        near = eigendata.values[np.abs(eigendata.values + 0.25) < 5e-3]
        assert near.size == 2
        half_split = abs(near[1].real - near[0].real) / 2
        assert 1.5e-4 < half_split < 3.5e-4
        assert abs(near.real.mean() + 0.25) < 2e-5

    def test_pinned_box15_split_values(self, scarf96_box15):
        # regression against the shooting-confirmed box eigenvalues at L=15
        values = scarf96_box15["eigendata"].values
        near = np.sort(values[np.abs(values + 0.25) < 5e-3].real)
        assert near.size == 2
        assert abs(near[0] - (-0.2510678330)) < 5e-6
        assert abs(near[1] - (-0.2489054037)) < 5e-6


def _signed(lo, hi):
    return st.tuples(st.floats(lo, hi), st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


DISC_SPECS = st.one_of(
    st.builds(ScarfSpec, st.floats(0.0, 60.0), _signed(0.1, 10.0)),
    st.builds(PoschlTellerSpec, st.floats(-0.2, 30.0), _signed(0.1, 10.0),
              st.floats(-2.0, 2.0), _signed(0.05, 0.75)),
    st.builds(MorseSpec, st.floats(-5.0, 5.0), _signed(0.1, 5.0),
              st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    st.builds(MorseABSpec, st.floats(0.2, 3.0), _signed(0.2, 3.0),
              st.floats(0.0, 8.0), st.floats(0.0, 8.0)),
)


def _assert_disc_bound(closed, ab, ref, vector, tol, radius):
    """The disc solve about the closed levels, at radius, returns every
    decaying dense eigenvalue ref[i] (vector(i) passes the gate) that lies
    within radius / 2 of a closed level, to tol[i].

    The half radius keeps the check off the circles, where the trapezoidal
    filter neither keeps nor drops an eigenvalue.
    """
    closed = np.array(closed, dtype=complex)
    w = Eigendata.from_bands(ab, closed, radius).values
    for i in range(ref.size):
        if np.abs(ref[i] - closed).min() <= radius / 2:
            if boundary_decay(vector(i)) <= DEFAULT_DECAY_GATE:
                assert w.size and np.abs(w - ref[i]).min() <= tol[i], ref[i]


class TestDiscBound:
    @settings(max_examples=16, deadline=None)
    @given(DISC_SPECS)
    @example(ScarfSpec(60.0, 3.0))
    @example(ScarfSpec(1.0, 1.2))
    @example(ScarfSpec(1.0, 1.25))
    @example(PoschlTellerSpec(9.75, 6.0, c=0.5, contour_gamma=math.pi / 8))
    @example(MorseSpec(0.5, 2.0, 3.0, 1.5))
    def test_decaying_eigenvalues_inside_discs(self, spec):
        # 1e-7, plus the dense reference's own first-order error
        # cond(lambda) eps ||H||_F: the box continuum of Morse has condition
        # numbers up to ~1e5, where that term passes 1e-7
        try:
            closed = _closed_energies(spec)
        except NoRegularBranch:
            closed = []
        if not closed:
            reject()  # no closed level, so no disc
        ab = banded_form(spec.potential, default_grid(spec, 300))
        ref, left, right = scipy.linalg.eig(_dense_form(ab), left=True, right=True)
        cond = 1.0 / np.abs(np.sum(left.conj() * right, axis=0))  # unit-norm columns
        tol = 1e-7 + cond * np.finfo(float).eps * np.linalg.norm(ab)
        _assert_disc_bound(closed, ab, ref, lambda i: right[:, i], tol, DISC_RADIUS)

    def test_pinned_box_inside_discs(self):
        # criterion 1's box: dense eigenvalues, vectors by inverse iteration
        # (`solve_banded_vector`); the half window holds the split pair
        # 1.07e-3 from -0.25
        spec = ScarfSpec(9.75, 6.0)
        ab = banded_form(spec.potential, Grid(-15.0, 15.0, 3000))
        ref = dense_eigvals(ab)
        tol = np.full(ref.size, 1e-7)
        closed = _closed_energies(spec)
        _assert_disc_bound(
            closed, ab, ref, lambda i: solve_banded_vector(ab, ref[i]), tol, SPLIT_WINDOW
        )


class TestResidual:
    def test_closed_form_self_check(self):
        r = RealizationParams(PotentialClass.I, b_re=0.0, b_im=1.0)
        psi = ground_state(r, 3.0, np.linspace(-12, 12, 2401))
        assert residual(psi, lambda x: r.potential(3.0, x), -6.25) < 1e-5

    def test_energy_perturbation_sensitivity(self):
        r = RealizationParams(PotentialClass.I, b_re=0.0, b_im=1.0)
        psi = ground_state(r, 3.0, np.linspace(-12, 12, 2401))
        assert residual(psi, lambda x: r.potential(3.0, x), -6.25 + 0.1) > 1e-3

    def test_scale_of_profile_leaves_residual(self):
        # a power of two scales every stencil term exactly, so the residual
        # keeps its bits; psi * 1e307 used to overflow the stencil to inf
        # (RuntimeWarnings fail the suite, so none may be raised)
        spec = ScarfSpec(9.75, 6.0)
        sol = solve(spec)[0]
        psi = tower_state(sol.realization, sol.m, 0, np.linspace(*spec.box, 801))

        def res(values):
            return residual(GridFunction(psi.xs, values), spec.potential, -6.25)

        base = res(psi.values)
        assert res(psi.values * 2.0**1000) == base
        assert res(psi.values * 2.0**-1000) == base
        big = psi.values * 1e307
        assert res(big) == res(big * 2.0**-1020)
        # the product's rounding, amplified by the stencil, is all that is left
        assert abs(res(big) / base - 1) < 1e-8

    def test_zero_function_guard(self):
        xs = np.linspace(-1, 1, 201)
        with pytest.raises(InvalidSpec, match="relative residual of the zero function"):
            residual(GridFunction(xs, np.zeros(201, dtype=complex)), lambda x: 0 * x, 0.0)

    def test_grid_guards(self):
        xs_coarse = np.linspace(-10, 10, 30)
        psi = GridFunction(xs_coarse, np.exp(-(xs_coarse**2)).astype(complex))
        with pytest.raises(InvalidSpec, match=r"spacing 0\.689\d* exceeds 0\.1"):
            residual(psi, lambda x: 0 * x, 0.0)
        xs_bad = np.concatenate([np.linspace(0, 1, 50), np.linspace(1.1, 4, 50)])
        psi_bad = GridFunction(xs_bad, np.ones(100, dtype=complex))
        with pytest.raises(InvalidSpec, match="grid spacing is not uniform"):
            residual(psi_bad, lambda x: 0 * x, 0.0)

    def test_boundary_decay_zero_vector(self):
        with pytest.raises(NoConvergence, match="eigenvector is identically zero"):
            boundary_decay(np.zeros(100, dtype=complex))


class TestSolverRaisePaths:
    def test_dense_eigensolve_failure(self, monkeypatch):
        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(scipy.linalg, "eigvals", fail)
        with pytest.raises(NoConvergence,
                           match="dense eigenvalue iteration failed: synthetic failure"):
            eigvals_complex(np.eye(4, dtype=complex))

    def test_contour_node_on_an_eigenvalue(self):
        # H = z0 * I with z0 the first node of the unit circle: z0 - H is exactly singular
        z0 = _nodes(0j, 1.0)[0][0]
        ab = np.zeros((5, 40), dtype=complex)
        ab[2] = z0
        with pytest.raises(NoConvergence, match=r"contour node .* is an eigenvalue of H"):
            Eigendata.from_bands(ab, [0j], 1.0)

    def test_polish_at_a_singular_shift(self):
        # H = I and lam = 1: lam - H is exactly singular, so no inverse step
        # runs and the pair comes back as it went in (the quotient would be a
        # new object, and a solve would write a new vector)
        ab = np.zeros((5, 40), dtype=complex)
        ab[2] = 1.0
        lam, v = 1.0 + 0j, np.ones(40, dtype=complex)
        out_lam, out_v = _polish(ab, lam, v)
        assert out_lam is lam and out_v is v and np.array_equal(v, np.ones(40))


class TestPipeline:
    def test_verify_spectrum_scarf(self):
        report = verify_spectrum(ScarfSpec(9.75, 6.0), grid=Grid(-18.0, 18.0, 1501))
        assert report.all_matched

    def test_morse_domain_robustness(self):
        # moving the right wall from 30 to 40 moves matched levels < 1e-4
        spec = MorseABSpec(1.0, 1.0, 3.0, 5.0)
        r30 = verify_spectrum(spec, grid=Grid(-4.0, 30.0, 1700))
        r40 = verify_spectrum(spec, grid=Grid(-4.0, 40.0, 2200))
        assert r30.all_matched and r40.all_matched
        for a, b in zip(r30.rows, r40.rows):
            assert abs(a.e_numeric - b.e_numeric) < 1e-4

    def test_contour_shift_leaves_spectrum(self):
        # class II eigenvalues are independent of the contour depth gamma
        results = {}
        for gamma in (math.pi / 16, math.pi / 8):
            spec = PoschlTellerSpec(9.75, 6.0, c=0.0, contour_gamma=gamma)
            report = verify_spectrum(spec, grid=Grid(-18.0, 18.0, 2001), tol=2e-3)
            assert report.all_matched
            results[gamma] = [row.e_numeric for row in report.rows]
        for a, b in zip(results[math.pi / 16], results[math.pi / 8]):
            assert abs(a - b) < 2e-3
