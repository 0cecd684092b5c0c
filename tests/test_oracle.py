"""Finite-difference oracle: discretization, dense eigensolve, level matching."""

import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from sl2spectra import (
    EmptyFunction,
    Grid,
    GridFunction,
    GridTooCoarse,
    InvalidSpec,
    MorseABSpec,
    PoschlTellerSpec,
    ScarfSpec,
    boundary_decay,
    default_grid,
    discretize,
    eig_complex,
    eigvals_complex,
    ground_state,
    match_levels,
    residual,
    solve,
    verify_spectrum,
)
from sl2spectra.algebra import PotentialClass, RealizationParams
from sl2spectra.oracle import Eigendata, _pt_real_form, banded_form, banded_matvec
from sl2spectra.spectrum import EigenLevel, enumerate_levels


@pytest.fixture(scope="module")
def scarf96_box18():
    """Moderate-size pipeline run shared by the matching tests."""
    spec = ScarfSpec(9.75, 6.0)
    grid = Grid(-18.0, 18.0, 1501)
    closed = [lv for sol in solve(spec) for lv in enumerate_levels(sol)]
    eigendata = Eigendata.from_matrix(discretize(spec, grid))
    return spec, grid, closed, eigendata


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(1.0, 1.0, 100)
        with pytest.raises(ValueError):
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


class TestDiscretize:
    def test_free_particle_box(self):
        # Dirichlet box [-1, 1]: E_k = (k pi / 2)^2
        h = discretize(lambda x: np.zeros_like(x), Grid(-1.0, 1.0, 401))
        w = np.sort(eigvals_complex(h).real)
        for k in (1, 2, 3):
            assert abs(w[k - 1] - (k * math.pi / 2) ** 2) < 1e-4

    def test_hermitian_limit_real_spectrum(self):
        # real Scarf well (v2 -> 0): eigenvalues must stay on the real axis
        h = discretize(lambda x: -9.75 / np.cosh(x) ** 2, Grid(-12.0, 12.0, 600))
        w = eigvals_complex(h)
        assert np.max(np.abs(w.imag)) < 1e-10

    def test_accepts_spec_and_rejects_nonfinite(self):
        g = Grid(-5.0, 5.0, 64)
        discretize(ScarfSpec(1.0, 1.0), g)
        with pytest.raises(InvalidSpec):
            discretize(lambda x: np.full_like(x, np.inf), g)

    def test_banded_form_matches_dense(self):
        h = discretize(ScarfSpec(2.0, 1.0), Grid(-6.0, 6.0, 80))
        ab = banded_form(h)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
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

    def test_lazy_vectors_match_dense_vectors(self):
        spec = ScarfSpec(9.75, 6.0)
        h = discretize(spec, Grid(-12.0, 12.0, 500))
        w_full, v_full = eig_complex(h.copy())
        data = Eigendata.from_matrix(h)
        idx = int(np.argmin(np.abs(data.values - (-6.25))))
        lazy = data.vector(idx)
        dense = v_full[:, int(np.argmin(np.abs(w_full - (-6.25))))]
        overlap = abs(np.vdot(lazy, dense)) ** 2
        assert overlap / (np.vdot(lazy, lazy).real * np.vdot(dense, dense).real) > 1 - 1e-10


# PT-symmetric specs on boxes symmetric about 0: P conj(H) P = H holds.
PT_CASES = {
    "scarf-default-box": (ScarfSpec(9.75, 6.0), None),
    "scarf-box15": (ScarfSpec(9.75, 6.0), (-15.0, 15.0)),
    "scarf-broken": (ScarfSpec(0.0, 5.0), None),
    "gpt-c0": (PoschlTellerSpec(9.75, 6.0, c=0.0, contour_gamma=math.pi / 8), None),
}


def _fd_matrix(spec, box=None, n_points=300):
    return discretize(spec, Grid(*(box or spec.box), n_points))


class TestRealForm:
    @pytest.mark.parametrize("case", PT_CASES)
    def test_accepts_pt_cases(self, case):
        assert _pt_real_form(_fd_matrix(*PT_CASES[case]))

    @pytest.mark.parametrize("case", PT_CASES)
    def test_spectrum_matches_complex_path(self, case):
        h = _fd_matrix(*PT_CASES[case])
        scale = np.linalg.norm(h)
        w_real = eigvals_complex(h.copy())
        w_ref, _ = eig_complex(h)
        # The two solvers split nearly equal real parts differently, so their
        # (re, im) orders can differ; compare the spectra one-to-one instead.
        dist = np.abs(w_real[:, None] - w_ref[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max() < 1e-10 * scale

    @pytest.mark.parametrize("case", PT_CASES)
    def test_spectrum_exactly_closed_under_conjugation(self, case):
        w = eigvals_complex(_fd_matrix(*PT_CASES[case]))
        assert np.any(w.imag != 0.0)
        assert np.array_equal(np.sort_complex(w), np.sort_complex(w.conj()))

    @pytest.mark.parametrize(
        "spec",
        [MorseABSpec(1.0, 1.0, 3.0, 5.0), PoschlTellerSpec(9.75, 6.0, c=0.5, contour_gamma=math.pi / 8)],
        ids=["morse-ab", "gpt-c0.5"],
    )
    def test_rejects_non_pt_specs(self, spec):
        assert not _pt_real_form(_fd_matrix(spec))

    def test_rejects_random_matrix(self):
        rng = np.random.default_rng(7)
        assert not _pt_real_form(rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50)))

    def test_rejects_perturbed_pt_matrix(self):
        h = _fd_matrix(ScarfSpec(9.75, 6.0))
        h[100, 101] += 1e-8 * np.linalg.norm(h)
        assert not _pt_real_form(h)

    def test_rejects_non_finite_matrix(self):
        h = np.eye(40, dtype=complex)
        h[3, 3] = h[36, 36] = np.inf  # P conj(H) P = H, but not to a finite norm
        with np.errstate(invalid="ignore"):
            assert not _pt_real_form(h)


class _GivenVectors(Eigendata):
    """Eigendata with hand-supplied eigenvectors in place of inverse iteration."""

    def __init__(self, values, vectors):
        super().__init__(values, bands=np.zeros((5, vectors.shape[0]), dtype=complex))
        self._vectors = vectors

    def vector(self, index):
        return self._vectors[:, index]


class TestMatching:
    def test_conjugate_pair_tie_goes_to_negative_imaginary_member(self):
        # 20 exact conjugate pairs sorted by (re, im); each real closed level
        # sits at equal distance from both members of one pair.
        k = np.arange(20)
        re, im = -5.0 + 0.5 * k, 0.2 + 0.01 * k
        values = np.stack([re - 1j * im, re + 1j * im], axis=1).ravel()
        bump = np.exp(-np.linspace(-6.0, 6.0, 64) ** 2).astype(complex)
        data = _GivenVectors(values, np.tile(bump[:, None], values.size))
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
        assert report.unmatched() == report.rows

    def test_empty_closed_list(self, scarf96_box18):
        _, _, _, eigendata = scarf96_box18
        assert match_levels([], eigendata).rows == []

    def test_no_decaying_level_below_ground(self, scarf96_box18):
        from sl2spectra.oracle import deeper_decaying_levels

        _, _, closed, eigendata = scarf96_box18
        floor = min(lv.energy.real for lv in closed)
        assert deeper_decaying_levels(eigendata, floor) == []

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


class TestResidual:
    def test_closed_form_self_check(self):
        r = RealizationParams(PotentialClass.I, b_re=0.0, b_im=1.0)
        psi = ground_state(r, 3.0, np.linspace(-12, 12, 2401))
        assert residual(psi, lambda x: r.potential(3.0, x), -6.25) < 1e-5

    def test_energy_perturbation_sensitivity(self):
        r = RealizationParams(PotentialClass.I, b_re=0.0, b_im=1.0)
        psi = ground_state(r, 3.0, np.linspace(-12, 12, 2401))
        assert residual(psi, lambda x: r.potential(3.0, x), -6.25 + 0.1) > 1e-3

    def test_zero_function_guard(self):
        xs = np.linspace(-1, 1, 201)
        with pytest.raises(EmptyFunction):
            residual(GridFunction(xs, np.zeros(201, dtype=complex)), lambda x: 0 * x, 0.0)

    def test_grid_guards(self):
        xs_coarse = np.linspace(-10, 10, 30)
        psi = GridFunction(xs_coarse, np.exp(-(xs_coarse**2)).astype(complex))
        with pytest.raises(GridTooCoarse):
            residual(psi, lambda x: 0 * x, 0.0)
        xs_bad = np.concatenate([np.linspace(0, 1, 50), np.linspace(1.1, 4, 50)])
        psi_bad = GridFunction(xs_bad, np.ones(100, dtype=complex))
        with pytest.raises(GridTooCoarse):
            residual(psi_bad, lambda x: 0 * x, 0.0)

    def test_boundary_decay_zero_vector(self):
        with pytest.raises(EmptyFunction):
            boundary_decay(np.zeros(100, dtype=complex))


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
