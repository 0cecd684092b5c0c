"""Matching solvers: branch enumeration, regularity filters, thresholds."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sl2spectra import (
    BranchKind,
    InvalidSpec,
    MorseABSpec,
    MorseSpec,
    NoRegularBranch,
    PoschlTellerSpec,
    PotentialClass,
    ScarfSpec,
    SpectraError,
    morse_from_ab,
    solve,
)
from sl2spectra.families import REG_TOL, _strictly_above
from sl2spectra.spectrum import enumerate_levels

from branch_reference import morse_rows, poschl_teller_rows, scarf_rows


def by_epsilon(solutions):
    return {sol.epsilon: sol for sol in solutions}


def energies(sol):
    return [lv.energy for lv in enumerate_levels(sol)]


class TestScarf:
    def test_two_real_series(self):
        sols = by_epsilon(solve(ScarfSpec(9.75, 6.0)))
        plus, minus = sols[1], sols[-1]
        assert plus.m_re == 3.0 and plus.m_im == 0.0
        assert minus.m_re == 1.0 and minus.m_im == 0.0
        assert plus.n_max_exclusive == 2.5
        assert minus.n_max_exclusive == 0.5
        assert plus.b == 1j
        assert minus.b == 3j
        assert np.allclose(energies(plus), [-6.25, -2.25, -0.25], atol=1e-14)
        assert np.allclose(energies(minus), [-0.25], atol=1e-14)
        assert {s.branch_kind for s in sols.values()} == {BranchKind.REAL_SERIES}

    def test_boundary_branch_rejected(self):
        # eps=-1 gives m_re = 0.5 exactly, which is not strictly above 1/2
        sols = solve(ScarfSpec(6.25, 2.5))
        assert len(sols) == 1 and sols[0].epsilon == 1
        assert sols[0].m_re == 2.5
        assert np.allclose(energies(sols[0]), [-4.0, -1.0], atol=1e-14)

    def test_broken_coupling_pair(self):
        sols = by_epsilon(solve(ScarfSpec(0.0, 5.0)))
        sq_p, sq_m = math.sqrt(5.25), math.sqrt(4.75)
        for eps, sol in sols.items():
            assert sol.branch_kind is BranchKind.COMPLEX_PAIR_MEMBER
            assert abs(sol.m_re - 0.5 * sq_p) < 1e-14
            assert abs(sol.m_im - 0.5 * eps * sq_m) < 1e-14
            assert len(energies(sol)) == 1  # n < (sqrt(5.25) - 1)/2 ~ 0.646
        e_plus, e_minus = energies(sols[1])[0], energies(sols[-1])[0]
        assert abs(e_plus - np.conj(e_minus)) < 1e-12

    def test_threshold_merges_series(self):
        sols = solve(ScarfSpec(1.0, 1.25))
        assert len(sols) == 1
        sol = sols[0]
        assert sol.branch_kind is BranchKind.REAL_SERIES
        assert abs(sol.m_re - 0.5 * math.sqrt(2.5)) < 1e-15
        # both epsilon formulas coincide there (sq_minus = 0)
        assert abs(sol.b.imag - sol.m_re) < 1e-15

    def test_no_regular_branch(self):
        with pytest.raises(NoRegularBranch):
            solve(ScarfSpec(0.0, 0.05))  # real side, both m too small
        with pytest.raises(NoRegularBranch):
            solve(ScarfSpec(0.0, 0.3))  # broken side, sq_p < 1

    def test_spec_validation(self):
        with pytest.raises(InvalidSpec):
            ScarfSpec(-1.0, 1.0)
        with pytest.raises(InvalidSpec):
            ScarfSpec(1.0, 0.0)


class TestPoschlTeller:
    def test_real_series_mirror_scarf(self):
        spec = PoschlTellerSpec(9.75, 6.0, 0.0, math.pi / 8)
        sols = by_epsilon(solve(spec))
        assert sols[1].m_re == 3.0 and sols[-1].m_re == 1.0
        assert sols[1].b == 1.0 + 0j
        assert sols[-1].b == 3.0 + 0j
        assert spec.realization(sols[1].b).potential_class is PotentialClass.II
        assert np.allclose(energies(sols[1]), [-6.25, -2.25, -0.25], atol=1e-14)
        assert np.allclose(energies(sols[-1]), [-0.25], atol=1e-14)

    def test_broken_coupling_pair(self):
        sols = by_epsilon(solve(PoschlTellerSpec(0.0, 5.0, 0.0, -math.pi / 8)))
        sq_p, sq_m = math.sqrt(5.25), math.sqrt(4.75)
        for eps, sol in sols.items():
            assert sol.branch_kind is BranchKind.COMPLEX_PAIR_MEMBER
            assert abs(sol.b.real - 0.5 * sq_p) < 1e-14
            assert abs(sol.b.imag + 0.5 * eps * sq_m) < 1e-14
            assert len(energies(sol)) == 1
        assert abs(energies(sols[1])[0] - np.conj(energies(sols[-1])[0])) < 1e-12

    def test_negative_v2_flips_amplitude_only(self):
        pos = by_epsilon(solve(PoschlTellerSpec(9.75, 6.0, 0.0, math.pi / 8)))
        neg = by_epsilon(solve(PoschlTellerSpec(9.75, -6.0, 0.0, math.pi / 8)))
        for eps in (1, -1):
            assert neg[eps].b.real == -pos[eps].b.real
            assert neg[eps].m_re == pos[eps].m_re
            assert energies(neg[eps]) == energies(pos[eps])

    def test_contour_passthrough(self):
        spec = PoschlTellerSpec(9.75, 6.0, c=0.7, contour_gamma=math.pi / 16)
        for sol in solve(spec):
            assert spec.realization(sol.b).c == 0.7
            assert spec.realization(sol.b).gamma == math.pi / 16

    def test_spec_validation(self):
        with pytest.raises(InvalidSpec):
            PoschlTellerSpec(-0.3, 1.0)
        with pytest.raises(InvalidSpec):
            PoschlTellerSpec(1.0, 1.0, contour_gamma=0.0)
        with pytest.raises(InvalidSpec):
            PoschlTellerSpec(1.0, 1.0, contour_gamma=math.pi / 3)


    @pytest.mark.parametrize("c, gamma", [(0.0, math.pi / 8), (0.5, 0.3), (-3.0, -0.2)])
    def test_potential_far_from_center(self, c, gamma):
        # Past |Re tau| = 350 V comes from its e^{-|tau|} form.  It agrees
        # with the sinh form up to where that form overflows (~355), and
        # beyond it stays finite, warning-free and decays like e^{-|x - c|}.
        spec = PoschlTellerSpec(9.75, 6.0, c, gamma)
        tau = np.array([350.5, 351.0, 353.0, -350.5, -352.0]) - 1j * gamma
        direct = (9.75 - 6.0 * np.cosh(tau)) / np.sinh(tau) ** 2
        got = spec.potential(tau.real + c)
        assert np.max(np.abs(got - direct) / np.abs(direct)) < 2e-15
        far = spec.potential(c + np.array([-800.0, -401.0, -400.0, 400.0, 401.0, 700.0, 800.0]))
        assert np.all(np.isfinite(far)) and np.all(far[1:-1] != 0)
        assert abs(far[1] / far[2] - math.exp(-1)) < 1e-14
        assert abs(far[4] / far[3] - math.exp(-1)) < 1e-14


class TestMorse:
    def test_ab_map_hand_values(self):
        spec = morse_from_ab(MorseABSpec(1.0, 1.0, 3.0, 3.0))
        assert (spec.v1r, spec.v1i, spec.v2r, spec.v2i) == (0.0, 2.0, 3.0, 3.0)

        spec2 = morse_from_ab(MorseABSpec(2.0, -1.0, 1.0, 1.0))
        assert (spec2.v1r, spec2.v1i, spec2.v2r, spec2.v2i) == (3.0, -4.0, 2.0, -1.0)

        ab3 = MorseABSpec(1.0, 1.0, 1.0, 1.0)
        assert morse_from_ab(ab3) == MorseSpec(0.0, 2.0, 1.0, 1.0)

    def test_pseudo_hermitian_point(self):
        sols = solve(MorseABSpec(1.0, 1.0, 3.0, 3.0))
        assert len(sols) == 1
        sol = sols[0]
        assert sol.branch_kind is BranchKind.REAL_SERIES
        assert sol.b == 1 + 1j
        assert abs(sol.m_re - 1.5) < 1e-14 and sol.m_im == 0.0
        assert np.allclose(energies(sol), [-1.0], atol=1e-14)  # one level, E0 = -(C)^2

    def test_generic_complex_series(self):
        sol = solve(MorseABSpec(1.0, 1.0, 3.0, 5.0))[0]
        assert sol.branch_kind is BranchKind.COMPLEX_UNPAIRED
        assert abs(sol.m - (2 + 0.5j)) < 1e-14  # C = 1.5 + 0.5i, m = C + 1/2
        levels = energies(sol)
        assert len(levels) == 2
        assert abs(levels[0] - (-2 - 1.5j)) < 1e-12
        assert abs(levels[1] - (-0.5j)) < 1e-12

    def test_no_regular_branch_at_zero_margin(self):
        for ab in (MorseABSpec(2.0, -1.0, 1.0, 1.0), MorseABSpec(1.0, 1.0, 1.0, 1.0)):
            with pytest.raises(NoRegularBranch):
                solve(ab)

    def test_invalid_when_v1_real(self):
        with pytest.raises(InvalidSpec):
            MorseSpec(1.0, 0.0, 2.0, 2.0)

    def test_reality_condition_lattice(self):
        # m_im = 0 exactly when delta_p = gamma_p, over a parameter lattice
        for a in (0.5, 1.0, 2.0):
            for b in (0.5, 1.0, 2.0):
                for gp in (1.5, 2.0, 3.0, 5.0):
                    for dp in (1.5, 2.0, 3.0, 5.0):
                        sol = solve(MorseABSpec(a, b, gp, dp))[0]
                        if dp == gp:
                            assert sol.branch_kind is BranchKind.REAL_SERIES
                        else:
                            assert sol.branch_kind is BranchKind.COMPLEX_UNPAIRED

    def test_reality_residual_values(self):
        assert morse_from_ab(MorseABSpec(1, 1, 3, 3)).reality_residual() <= 1e-12
        assert morse_from_ab(MorseABSpec(1, 1, 3, 5)).reality_residual() > 1e-3

    def test_negative_b_sign_convention(self):
        # nu = sign(v1i) keeps b_re > 0 for either sign of B
        sol = solve(MorseABSpec(1.0, -1.0, 3.0, 3.0))[0]
        assert sol.b.real > 0
        assert sol.b.imag < 0
        assert sol.branch_kind is BranchKind.REAL_SERIES


def random_specs(rng, count=8):
    """Admissible random specs of every family, for property checks."""
    out = []
    for _ in range(count):
        v1 = rng.uniform(0.1, 12.0)
        v2 = rng.choice([-1, 1]) * rng.uniform(0.3, v1 + 3.0)
        out.append(ScarfSpec(v1, v2))
        gamma = rng.choice([-1, 1]) * rng.uniform(math.pi / 16, math.pi / 4.5)
        out.append(PoschlTellerSpec(v1, v2, c=rng.uniform(-1, 1), contour_gamma=gamma))
        out.append(
            MorseABSpec(
                A=rng.uniform(0.4, 2.5),
                B=rng.choice([-1, 1]) * rng.uniform(0.4, 2.5),
                gamma_p=rng.uniform(1.3, 6.0),
                delta_p=rng.uniform(1.3, 6.0),
            )
        )
    return out


class TestProperties:
    def test_round_trip_potential(self):
        # certificate that the matching equations hold: the algebra-side
        # potential of every returned branch reproduces the closed form
        rng = np.random.default_rng(7)
        worked = [
            ScarfSpec(9.75, 6.0),
            ScarfSpec(0.0, 5.0),
            PoschlTellerSpec(9.75, 6.0, 0.0, math.pi / 8),
            MorseABSpec(1.0, 1.0, 3.0, 5.0),
        ]
        for spec in worked + random_specs(rng):
            try:
                sols = solve(spec)
            except NoRegularBranch:
                continue
            if isinstance(spec, MorseABSpec):
                xs = np.linspace(-3.0, 30.0, 601)
            else:
                xs = np.linspace(-10.0, 10.0, 601)
            target = spec.potential(xs)
            for sol in sols:
                got = spec.realization(sol.b).potential(sol.m, xs)
                assert np.max(np.abs(got - target)) < 1e-10

    def test_branch_dichotomy_across_threshold(self):
        v1 = 1.0
        for v2 in np.arange(0.3, 2.51, 0.1):
            kinds = {s.branch_kind for s in solve(ScarfSpec(v1, float(v2)))}
            if v2 < 1.25 - 1e-9:
                assert kinds == {BranchKind.REAL_SERIES}
            elif v2 > 1.25 + 1e-9:
                assert kinds == {BranchKind.COMPLEX_PAIR_MEMBER}
        assert {s.branch_kind for s in solve(ScarfSpec(1.0, 1.25))} == {
            BranchKind.REAL_SERIES
        }

    def test_conjugate_branches(self):
        for spec in (ScarfSpec(0.0, 5.0), PoschlTellerSpec(1.0, 4.0, 0.0, math.pi / 8)):
            sols = by_epsilon(solve(spec))
            assert abs(sols[1].m - np.conj(sols[-1].m)) < 1e-14
            es_p, es_m = energies(sols[1]), energies(sols[-1])
            assert len(es_p) == len(es_m)
            for a, b in zip(es_p, es_m):
                assert abs(a - np.conj(b)) < 1e-12

    def test_regularity_strictness(self):
        rng = np.random.default_rng(11)
        for spec in random_specs(rng, count=12):
            try:
                sols = solve(spec)
            except NoRegularBranch:
                continue
            for sol in sols:
                assert sol.m_re > 0.5
                if spec.potential_class is PotentialClass.III_UPPER:
                    assert sol.b.real > 0


def log_uniform(lo, hi):
    """+-10**e with e uniform in [lo, hi]."""
    return st.builds(lambda e, sign: sign * 10.0**e, st.floats(lo, hi), st.sampled_from([1.0, -1.0]))


# Ordinary couplings, magnitudes log-uniform from 1e-300 to 1e300 of either
# sign, and signed zeros.
COUPLINGS = st.floats(-30.0, 30.0) | log_uniform(-300.0, 300.0) | st.sampled_from([0.0, -0.0])


@st.composite
def scarf_pt_couplings(draw, v1_min):
    """(v1, v2) with v2 anywhere, within 1e-11 relative of +-(v1 + 1/4), or exactly on it.

    The relative offsets near the critical coupling are log-uniform from 1e-17
    to 1e-11, across the edge of the REG_TOL band.
    """
    v1 = draw(st.floats(v1_min, 30.0, exclude_min=v1_min < 0) | COUPLINGS.map(abs))
    s = v1 + 0.25
    v2 = draw(COUPLINGS | log_uniform(-17.0, -11.0).map(lambda d: s * (1.0 + d)) | st.just(s))
    return v1, v2 * draw(st.sampled_from([1.0, -1.0]))


@st.composite
def morse_couplings(draw):
    """(v1r, v1i, v2r, v2i), with v1r < 0 and a tiny v1i half the time (b_re near 0)."""
    v1r, v1i, v2r, v2i = (draw(COUPLINGS) for _ in range(4))
    if draw(st.booleans()):
        v1r, v1i = -abs(v1r), v1i * 10.0 ** draw(st.floats(-30.0, -5.0))
    return v1r, v1i, v2r, v2i


def row_bits(rows_of, spec):
    """Every field of the branch rows by float.hex, or the type and message of
    the SpectraError raised."""
    try:
        rows = rows_of(spec)
    except SpectraError as exc:
        return type(exc), str(exc)
    return [(eps, kind, m_re.hex(), m_im.hex(), b.real.hex(), b.imag.hex())
            for eps, kind, m_re, m_im, b in rows]


def residual_bits(residual_of, spec):
    """The reality residual by float.hex, or the type and message of the SpectraError raised."""
    try:
        return residual_of(spec).hex()
    except SpectraError as exc:
        return type(exc), str(exc)


def assert_branch_invariants(spec):
    """Every record of spec.branch_rows() is regular (m_re > 1/2, and b_re > 0
    for class III) and is a real series exactly when m_im == 0."""
    try:
        branches = spec.branch_rows()
    except NoRegularBranch:
        return
    for sol in branches:
        assert _strictly_above(sol.m_re, 0.5)
        if spec.potential_class is PotentialClass.III_UPPER:
            assert _strictly_above(sol.b.real, 0.0)
        assert (sol.branch_kind is BranchKind.REAL_SERIES) == (sol.m_im == 0.0)


def spec_or_reject(cls, couplings):
    try:
        return cls(*couplings)
    except InvalidSpec:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(COUPLINGS | st.floats(), COUPLINGS | st.just(0.5) | st.floats())
@example(0.5 + 1.1e-12, 0.5).via("just above the REG_TOL margin at scale 1")
@example(-3.0, 0.5).via("negative value")
def test_strictly_above_is_the_relative_margin(value, bound):
    """_strictly_above is value - bound > REG_TOL * max(1, |value|, |bound|)."""
    expected = value - bound > REG_TOL * max(1.0, abs(value), abs(bound))
    assert _strictly_above(value, bound) is expected


class TestOneRoot:
    """The branch rows from one complex root equal the two-regime and
    real-arithmetic reference rows (`tests/branch_reference.py`) bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(scarf_pt_couplings(v1_min=0.0))
    @example((1.0, 1.25)).via("threshold")
    @example((1.0, 1.25 * (1.0 + 1.1e-12))).via("just outside the REG_TOL band")
    def test_scarf_rows(self, couplings):
        spec = spec_or_reject(ScarfSpec, couplings)
        assert row_bits(ScarfSpec.branch_rows, spec) == row_bits(scarf_rows, spec)
        assert_branch_invariants(spec)

    @settings(max_examples=120, deadline=None)
    @given(scarf_pt_couplings(v1_min=-0.25))
    @example((1.0, 1.25)).via("threshold")
    @example((1.0, 1.25 * (1.0 + 1.1e-12))).via("just outside the REG_TOL band")
    @example((1.0, -1.25)).via("threshold with nu = -1")
    def test_poschl_teller_rows(self, couplings):
        spec = spec_or_reject(PoschlTellerSpec, couplings)
        assert row_bits(PoschlTellerSpec.branch_rows, spec) == row_bits(poschl_teller_rows, spec)
        assert_branch_invariants(spec)

    @settings(max_examples=120, deadline=None)
    @given(morse_couplings())
    @example((1.0, -1.0, -0.0, 0.0)).via("m_re = -0.0")
    def test_morse_rows(self, couplings):
        spec = spec_or_reject(MorseSpec, couplings)
        assert row_bits(MorseSpec.branch_rows, spec) == row_bits(morse_rows, spec)
        assert_branch_invariants(spec)


class TestMorseABCouplings:
    """A Morse-AB spec reads its rows and residual from its mapped couplings,
    bit for bit and error for error as the MorseSpec `morse_from_ab` builds."""

    @settings(max_examples=120, deadline=None)
    @given(st.tuples(COUPLINGS.map(abs), COUPLINGS, COUPLINGS, COUPLINGS))
    @example((1e-200, 1e-200, 3.0, 5.0)).via("2AB underflows to 0")
    @example((1e200, 1.0, 3.0, 3.0)).via("A**2 - B**2 overflows")
    @example((1e-160, 1e-160, 3.0, 5.0)).via("no regular branch")
    def test_rows_and_residual(self, couplings):
        spec = spec_or_reject(MorseABSpec, couplings)
        assert row_bits(MorseABSpec.branch_rows, spec) == row_bits(
            lambda ab: morse_from_ab(ab).branch_rows(), spec)
        assert residual_bits(MorseABSpec.reality_residual, spec) == residual_bits(
            lambda ab: morse_from_ab(ab).reality_residual(), spec)

    @pytest.mark.parametrize("couplings, error, message", [
        ((1e-200, 1e-200, 3.0, 5.0), InvalidSpec, "complexified Morse requires v1i != 0"),
        ((1e200, 1.0, 3.0, 3.0), InvalidSpec,
         "morse requires a finite v1r of magnitude at most 1.79769313486231e+308, got inf"),
        ((1e-160, 1e-160, 3.0, 5.0), NoRegularBranch,
         "Morse regularity fails: b_re = 9.99994e-161 is not > 0"),
    ], ids=["v1i-underflows", "v1r-overflows", "b_re-below-margin"])
    def test_edges(self, couplings, error, message):
        """The property's examples: exit 2, 2 and 3 on the CLI."""
        with pytest.raises(error) as raised:
            MorseABSpec(*couplings).branch_rows()
        assert str(raised.value) == message
