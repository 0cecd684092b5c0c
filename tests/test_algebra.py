"""Realization functions, ground states, and the ladder operator."""

import cmath
import math

import numpy as np
import pytest

from sl2spectra import (
    GridFunction,
    InvalidSpec,
    PotentialClass,
    RealizationParams,
    ScarfSpec,
    apply_ladder,
    energy_level,
    ground_state,
    tower_state,
)
from sl2spectra.algebra import _detect_branch_cut
from sl2spectra.oracle import Grid, discretize, residual

from dense_reference import eig_complex


def r_class(cls, c=0.0, gamma=0.0, b=0j):
    return RealizationParams(cls, c=c, gamma=gamma, b_re=b.real, b_im=b.imag)


def numdiff4(f, x, h=1e-3):
    """Richardson-style fourth-order central difference, test-local."""
    return (8 * (f(x + h) - f(x - h)) - (f(x + 2 * h) - f(x - 2 * h))) / (12 * h)


class TestRealizationFunctions:
    def test_f_values(self):
        r = r_class(PotentialClass.I)
        assert abs(r.f(0.0)) < 1e-15  # tanh 0 = 0

        r3 = r_class(PotentialClass.III_UPPER, b=1 + 0j)
        assert r3.f(3.7) == 1.0

        # tanh(-i pi/8) = -i tan(pi/8), tan(pi/8) = sqrt(2) - 1
        r8 = r_class(PotentialClass.I, gamma=math.pi / 8)
        got = complex(r8.f(0.0))
        assert abs(got - (-1j * (math.sqrt(2) - 1))) < 1e-14
        assert abs(got - cmath.tanh(-1j * math.pi / 8)) < 1e-15

    def test_g_values(self):
        r = r_class(PotentialClass.I, b=1j)
        assert abs(complex(r.g(0.0)) - 1j) < 1e-15  # sech 0 = 1

        r3 = r_class(PotentialClass.III_UPPER, b=2 + 0j)
        assert abs(complex(r3.g(0.0)) - 2.0) < 1e-15

        # class II at x = 0 on the shifted contour: 1 / sinh(-i pi/8) = i / sin(pi/8)
        r2 = r_class(PotentialClass.II, gamma=math.pi / 8, b=1 + 0j)
        got = complex(r2.g(0.0))
        assert abs(got - 1.0 / cmath.sinh(-1j * math.pi / 8)) < 1e-14
        assert abs(got - 2.61313j) < 1e-5

    def test_class_ii_singular_contour(self):
        # gamma tiny but nonzero passes validation yet puts the contour
        # within 1e-12 of the pole at x = c
        r = RealizationParams(PotentialClass.II, c=0.0, gamma=1e-15, b_re=1.0)
        with pytest.raises(InvalidSpec, match="of the class-II singularity"):
            r.f(np.array([-0.5, 0.0, 0.5]))
        with pytest.raises(InvalidSpec, match="of the class-II singularity"):
            r.g(0.0)

    def test_parameter_validation(self):
        with pytest.raises(InvalidSpec, match=r"outside \[-pi/4, pi/4\)"):
            RealizationParams(PotentialClass.I, gamma=math.pi / 4)  # right-open range
        RealizationParams(PotentialClass.I, gamma=-math.pi / 4)  # left edge allowed
        with pytest.raises(InvalidSpec, match="class II needs gamma != 0"):
            RealizationParams(PotentialClass.II, gamma=0.0)
        with pytest.raises(InvalidSpec, match="class III uses no contour shift"):
            RealizationParams(PotentialClass.III_UPPER, c=1.0)
        with pytest.raises(InvalidSpec, match="class III uses no contour shift"):
            RealizationParams(PotentialClass.III_UPPER, gamma=0.1)

    def test_coupled_ode_identities(self):
        # f' = 1 - f^2 and g' = -f g for every class, random parameters
        rng = np.random.default_rng(42)
        xs = np.linspace(-3.0, 3.0, 1201)
        for cls in PotentialClass:
            for _ in range(3):
                b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if cls in (PotentialClass.I, PotentialClass.II):
                    gamma = rng.uniform(math.pi / 16, math.pi / 5) * rng.choice([-1, 1])
                    c = rng.uniform(-0.5, 0.5)
                else:
                    gamma, c = 0.0, 0.0
                r = r_class(cls, c=c, gamma=gamma, b=b)
                df = numdiff4(r.f, xs)
                dg = numdiff4(r.g, xs)
                assert np.max(np.abs(df - (1 - r.f(xs) ** 2))) < 1e-6
                assert np.max(np.abs(dg + r.f(xs) * r.g(xs))) < 1e-6

    def test_potential_matches_scarf_closed_form(self):
        # (class I, b=i, m=3) is Scarf II with v1=9.75, v2=6, pointwise
        r = r_class(PotentialClass.I, b=1j)
        xs = np.linspace(-10.0, 10.0, 801)
        expected = ScarfSpec(9.75, 6.0).potential(xs)
        assert np.max(np.abs(r.potential(3.0, xs) - expected)) < 1e-12

    def test_potential_hand_values(self):
        # class III upper, b=1+i, m=1/2 at x=0: (1+i)^2 - 2*(1/2)*(1+i) = -1+i
        r = r_class(PotentialClass.III_UPPER, b=1 + 1j)
        assert abs(complex(r.potential(0.5, 0.0)) - (-1 + 1j)) < 1e-14
        # b = 0 and m = 1/2 kills every term
        for cls in (PotentialClass.I, PotentialClass.III_UPPER):
            r0 = r_class(cls, b=0j)
            assert np.max(np.abs(r0.potential(0.5, np.linspace(-2, 2, 41)))) < 1e-15

    def test_energy_levels(self):
        assert energy_level(0.5, 0) == 0
        assert abs(energy_level(3.0, 0) - (-6.25)) < 1e-15
        assert abs(energy_level(complex(2, 0.5), 0) - (-2 - 1.5j)) < 1e-14


class TestGroundState:
    def test_reference_value_is_one(self):
        xs = np.linspace(-10, 10, 2001)  # contains x = 0
        for r, m in [
            (r_class(PotentialClass.I, b=1j), 3.0),
            (r_class(PotentialClass.II, gamma=math.pi / 8, b=1 + 0j), 3.0),
            (r_class(PotentialClass.III_UPPER, b=1 + 1j), 1.5),
        ]:
            psi = ground_state(r, m, xs)
            assert psi.values[1000] == 1.0 + 0j

    def test_shifted_reference_point(self):
        # the grid point nearest c carries linspace rounding, so equality
        # holds to rounding only (bit-exact equality needs a bit-exact abscissa)
        r = RealizationParams(PotentialClass.II, c=0.4, gamma=math.pi / 8, b_re=1.0)
        xs = np.linspace(-10 + 0.4, 10 + 0.4, 2001)
        psi = ground_state(r, 3.0, xs)
        assert abs(psi.values[1000] - 1.0) < 1e-12

    def test_class_iii_asymptotic_decay(self):
        # exp-tail: psi(x+1)/psi(x) -> exp(-(m - 1/2)) once exp(-x) has died
        r = r_class(PotentialClass.III_UPPER, b=1 + 0j)
        psi = ground_state(r, 1.5, np.array([20.0, 21.0, 22.0]))
        ratios = psi.values[1:] / psi.values[:-1]
        assert np.allclose(ratios, math.exp(-1.0), rtol=1e-8)

    def test_residual_oracle_class_i(self):
        # dense-grid finite-difference check of the closed form
        r = r_class(PotentialClass.I, b=1j)
        xs = np.linspace(-10, 10, 4001)
        psi = ground_state(r, 3.0, xs)
        res = residual(psi, lambda x: r.potential(3.0, x), energy_level(3.0, 0))
        assert res < 1e-6

    @pytest.mark.parametrize(
        "cls,gamma,b,m,dom,n",
        [
            (PotentialClass.I, 0.0, 1j, 3.0, (-12, 12), 2401),
            (PotentialClass.II, math.pi / 8, 1 + 0j, 3.0, (-12, 12), 9601),
            (PotentialClass.II, -math.pi / 8, 1 + 0j, 3.0, (-12, 12), 9601),
            (PotentialClass.III_UPPER, 0.0, 1 + 1j, 1.5, (-4, 30), 6801),
            (PotentialClass.III_UPPER, 0.0, 1 + 1j, 2 + 0.5j, (-4, 30), 6801),
        ],
    )
    def test_residual_all_classes(self, cls, gamma, b, m, dom, n):
        r = r_class(cls, gamma=gamma, b=b)
        xs = np.linspace(dom[0], dom[1], n)
        psi = ground_state(r, m, xs)
        res = residual(psi, lambda x: r.potential(m, x), energy_level(m, 0))
        assert res < 1e-5

    def test_complex_branch_residual(self):
        # broken-coupling Scarf branch: complex m and b
        m = 0.5 * math.sqrt(5.25) + 0.5j * math.sqrt(4.75)
        b = 0.5 * math.sqrt(4.75) + 0.5j * math.sqrt(5.25)
        r = r_class(PotentialClass.I, b=b)
        xs = np.linspace(-15, 15, 3001)
        psi = ground_state(r, m, xs)
        assert residual(psi, lambda x: r.potential(m, x), energy_level(m, 0)) < 1e-5

    def test_grid_doubling_pointwise_stability(self):
        # principal-branch powers are evaluated pointwise, so doubling the
        # sampling density must not move shared points (no unwrap artifacts)
        r = r_class(PotentialClass.II, gamma=math.pi / 8, b=1 + 0j)
        xs1 = np.linspace(-12, 12, 2401)
        xs2 = np.linspace(-12, 12, 4801)
        p1 = ground_state(r, 3.0, xs1).values
        p2 = ground_state(r, 3.0, xs2).values[::2]
        assert np.max(np.abs(p1 - p2)) < 1e-8 * np.max(np.abs(p1))

    def test_branch_cut_detector(self):
        theta = np.linspace(math.pi - 0.3, math.pi + 0.3, 50)
        wrapping = np.exp(1j * theta)  # crosses the +-pi cut mid-way
        with pytest.raises(InvalidSpec, match=r"argument of synthetic crossed \+-pi"):
            _detect_branch_cut(wrapping, "synthetic")
        smooth = np.exp(1j * np.linspace(-1.0, 1.0, 50))
        _detect_branch_cut(smooth, "synthetic")  # no wrap, no error
        with pytest.raises(InvalidSpec, match="synthetic hit zero or overflowed"):
            _detect_branch_cut(np.array([1.0, 0.0, 1.0], dtype=complex), "synthetic")


class TestRaisePaths:
    def test_grid_function_lengths_differ(self):
        with pytest.raises(InvalidSpec, match="xs and values must be 1-d arrays of equal length"):
            GridFunction(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0]))

    def test_ground_state_reference_underflows(self):
        # class III at x = 0 is exp(-b), and exp(-1000) is 0
        r = r_class(PotentialClass.III_UPPER, b=1000 + 0j)
        with pytest.raises(InvalidSpec, match=r"reference value at x=0\.0 is -0j"):
            ground_state(r, 1.5, np.linspace(-1.0, 1.0, 21))

    def test_tower_state_negative_n(self):
        r = r_class(PotentialClass.I, b=1j)
        with pytest.raises(InvalidSpec, match="n must be non-negative"):
            tower_state(r, 3.0, -1, np.linspace(-5.0, 5.0, 101))


class TestLadder:
    def test_linearity_zero(self):
        r = r_class(PotentialClass.I, b=1j)
        xs = np.linspace(-5, 5, 201)
        out = apply_ladder(GridFunction(xs, np.zeros_like(xs, dtype=complex)), 3.0, r)
        assert np.all(out.values == 0)

    def test_grid_guards(self):
        r = r_class(PotentialClass.I, b=1j)
        coarse = GridFunction(np.linspace(-5, 5, 21), np.ones(21, dtype=complex))
        with pytest.raises(InvalidSpec, match=r"spacing 0\.5 exceeds 0\.1"):
            apply_ladder(coarse, 3.0, r)  # spacing 0.5 > 0.1
        tiny = GridFunction(np.linspace(-0.1, 0.1, 4), np.ones(4, dtype=complex))
        with pytest.raises(InvalidSpec, match="need at least 5 points, got 4"):
            apply_ladder(tiny, 3.0, r)

    @pytest.mark.parametrize(
        "cls,gamma,b,m,dom,n",
        [
            (PotentialClass.I, 0.0, 1j, 3.0, (-12, 12), 2401),
            (PotentialClass.II, math.pi / 8, 1 + 0j, 3.0, (-12, 12), 9601),
            (PotentialClass.III_UPPER, 0.0, 1 + 1j, 1.5, (-4, 30), 6801),
        ],
    )
    def test_intertwining(self, cls, gamma, b, m, dom, n):
        # A_m+ sends a solution of (V_m, E) to a solution of (V_{m+1}, E)
        r = r_class(cls, gamma=gamma, b=b)
        xs = np.linspace(dom[0], dom[1], n)
        psi = ground_state(r, m, xs)
        raised = apply_ladder(psi, m, r)
        e = energy_level(m, 0)
        assert residual(raised, lambda x: r.potential(m + 1, x), e) < 1e-5

    def test_tower_state_seed(self):
        r = r_class(PotentialClass.I, b=1j)
        xs = np.linspace(-10, 10, 2001)
        assert np.array_equal(tower_state(r, 3.0, 0, xs).values, ground_state(r, 3.0, xs).values)

    def test_double_ladder_residual(self):
        # raising the m=3 edge state twice lands in V_{m=5} at the same energy
        r = r_class(PotentialClass.I, b=1j)
        xs = np.linspace(-15, 15, 3001)
        psi2 = tower_state(r, 5.0, 2, xs)
        assert residual(psi2, lambda x: r.potential(5.0, x), -6.25) < 1e-5

    def test_double_ladder_matches_oracle_eigenvector(self):
        # V_{m=5} with b=i is Scarf II (v1=25.75, v2=10); its n=2 level sits at
        # -6.25, and the raised profile must be collinear with the dense
        # oracle's eigenvector there.
        r = r_class(PotentialClass.I, b=1j)
        grid = Grid(-12.0, 12.0, 1401)
        spec = ScarfSpec(25.75, 10.0)
        w, vecs = eig_complex(discretize(spec.potential, grid))
        idx = int(np.argmin(np.abs(w - (-6.25))))
        assert abs(w[idx] - (-6.25)) < 1e-3
        phi = tower_state(r, 5.0, 2, grid.interior).values
        ref = vecs[:, idx]
        overlap = abs(np.vdot(phi, ref)) ** 2
        norms = np.vdot(phi, phi).real * np.vdot(ref, ref).real
        assert overlap / norms > 1 - 1e-6
