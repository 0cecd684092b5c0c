"""Level enumeration, classification, symmetry checks, threshold scans."""

import math

import numpy as np
import pytest
from hypothesis import example, given, reject
from hypothesis import strategies as st

from sl2spectra import (
    Classification,
    InvalidSpec,
    MorseABSpec,
    MorseSpec,
    NoRegularBranch,
    PoschlTellerSpec,
    ScarfSpec,
    analyze,
    is_pt_symmetric,
    scan_threshold,
    solve,
)
from sl2spectra.families import FAMILIES, REG_TOL, BranchKind, with_swept_value
from sl2spectra.spectrum import (
    MAX_LEVEL_COUNT,
    MAX_SWEEP_SAMPLES,
    PhaseDiagramRow,
    classify,
    conjugate_pair_closure,
    enumerate_levels,
    level_count,
    sweep_values,
)


class TestLevelCount:
    def test_strict_bound(self):
        assert level_count(2.5) == 3
        assert level_count(0.5) == 1
        assert level_count(3.0) == 3  # the bound itself is excluded
        assert level_count(0.0) == 0
        assert level_count(-1.0) == 0

    def test_floating_point_guard(self):
        assert level_count(3.0 + 1e-15) == 3  # noise above an integer
        assert level_count(3.0 - 1e-15) == 3

    def test_cap(self):
        assert level_count(float(MAX_LEVEL_COUNT)) == MAX_LEVEL_COUNT
        for bound in (MAX_LEVEL_COUNT + 0.5, 1e150, math.inf, math.nan):
            with pytest.raises(InvalidSpec):
                level_count(bound)


class TestEnumerate:
    def test_scarf_series(self):
        sols = {s.epsilon: s for s in solve(ScarfSpec(9.75, 6.0))}
        assert [lv.energy for lv in enumerate_levels(sols[1])] == [-6.25, -2.25, -0.25]
        assert [lv.n for lv in enumerate_levels(sols[1])] == [0, 1, 2]
        assert [lv.energy for lv in enumerate_levels(sols[-1])] == [-0.25]

    def test_morse_complex_series(self):
        sol = solve(MorseABSpec(1, 1, 3, 5))[0]
        levels = enumerate_levels(sol)
        assert abs(levels[0].energy - (-2 - 1.5j)) < 1e-12
        assert abs(levels[1].energy - (-0.5j)) < 1e-12


class TestClassify:
    def test_broken_pairs(self):
        report = analyze(ScarfSpec(0.0, 5.0))
        assert report.classification is Classification.BROKEN_CONJUGATE_PAIRS
        assert report.threshold_distance == 5.0 - 0.25
        assert report.reality_condition_residual is None
        assert conjugate_pair_closure(report) < 1e-12

    def test_morse_all_real(self):
        report = analyze(MorseABSpec(1, 1, 3, 3))
        assert report.classification is Classification.ALL_REAL
        assert report.threshold_distance is None
        assert report.reality_condition_residual <= 1e-12

    def test_morse_unpaired(self):
        report = analyze(MorseABSpec(1, 1, 3, 5))
        assert report.classification is Classification.COMPLEX_UNPAIRED
        assert report.reality_condition_residual > 1e-3

    def test_empty(self):
        report = classify(MorseABSpec(1, 1, 1, 1), [])
        assert report.classification is Classification.EMPTY
        assert report.branches == []


# Relative defect gate of the sampled reference below
PT_CHECK_TOL = 1e-10


def two_call_pt_check(spec) -> bool:
    """Numerical reference for is_pt_symmetric: V sampled on x and on -x in two calls.

    x runs over 201 points on [-8, 8]; the defect |V(-x)* - V(x)| may be at
    most PT_CHECK_TOL times the largest |V| sampled.  It cannot see a gPT
    contour offset c below ~1e-10, where the exact rule still says False.
    """
    xs = np.linspace(-8.0, 8.0, 201)
    v_plus = spec.potential(xs)
    v_minus = spec.potential(-xs)
    scale = max(np.max(np.abs(v_plus)), np.max(np.abs(v_minus)))
    return float(np.max(np.abs(np.conj(v_minus) - v_plus))) <= PT_CHECK_TOL * scale


# Morse-AB couplings so small that |V| <= 2e-12 on the samples, and subnormal
TINY_MORSE = [MorseABSpec(1e-16, 1e-16, 3.0, 5.0), MorseABSpec(1e-160, 1e-160, 3.0, 5.0)]
# One example per family, gPT on and off its centred contour, and Morse-AB
# on and off its reality condition and with tiny couplings
PT_SPECS = [
    ScarfSpec(9.75, 6.0),
    ScarfSpec(0.0, 5.0),
    PoschlTellerSpec(9.75, -6.0, c=0.3, contour_gamma=-math.pi / 16),
    PoschlTellerSpec(9.75, 6.0, c=0.0, contour_gamma=math.pi / 8),
    MorseSpec(0.5, 2.0, 3.0, 1.5),
    MorseABSpec(1.0, 1.0, 3.0, 5.0),
    MorseABSpec(1.0, 1.0, 3.0, 3.0),
    *TINY_MORSE,
]


def nonzero(lo, hi):
    return st.floats(lo, hi).filter(lambda x: x != 0)


@st.composite
def pt_specs(draw):
    """A spec of any family; a gPT contour offset c is 0 or at least 1e-6 in magnitude."""
    family = draw(st.sampled_from(list(FAMILIES)))
    try:
        if family == "scarf2":
            return ScarfSpec(draw(st.floats(0, 100)), draw(nonzero(-100, 100)))
        if family == "poschl-teller":
            c = draw(st.one_of(st.just(0.0), st.floats(1e-6, 5)))
            c = -c if draw(st.booleans()) else c
            gamma = draw(nonzero(-0.78, 0.78))
            return PoschlTellerSpec(draw(st.floats(-0.24, 100)), draw(nonzero(-100, 100)), c, gamma)
        if family == "morse":
            return MorseSpec(draw(st.floats(-100, 100)), draw(nonzero(-100, 100)),
                             draw(st.floats(-100, 100)), draw(st.floats(-100, 100)))
        return MorseABSpec(draw(st.floats(0.01, 10)), draw(nonzero(-10, 10)),
                           draw(st.floats(-10, 10)), draw(st.floats(-10, 10)))
    except InvalidSpec:
        reject()


class TestPTSymmetry:
    def test_scarf_always(self):
        assert is_pt_symmetric(ScarfSpec(9.75, 6.0))
        assert is_pt_symmetric(ScarfSpec(0.0, 5.0))

    def test_poschl_teller_requires_centered_contour(self):
        assert is_pt_symmetric(PoschlTellerSpec(9.75, 6.0, c=0.0, contour_gamma=math.pi / 8))
        assert is_pt_symmetric(PoschlTellerSpec(9.75, 6.0, c=-0.0, contour_gamma=-0.7))
        # Below ~1e-10 the sampled reference cannot see the offset; the rule can.
        for c in (0.5, 1e-9, 1e-12, -1e-12):
            assert not is_pt_symmetric(PoschlTellerSpec(9.75, 6.0, c=c, contour_gamma=math.pi / 8))

    def test_morse_never(self):
        assert not is_pt_symmetric(MorseABSpec(1, 1, 3, 3))
        assert not is_pt_symmetric(MorseABSpec(1, 1, 3, 5))
        for spec in TINY_MORSE:
            assert not is_pt_symmetric(spec)

    def test_evaluates_no_potential(self, monkeypatch):
        expected = [two_call_pt_check(spec) for spec in PT_SPECS]
        for cls in FAMILIES.values():
            monkeypatch.setattr(cls, "potential", None)
        assert [is_pt_symmetric(spec) for spec in PT_SPECS] == expected

    @pytest.mark.parametrize("spec", PT_SPECS, ids=repr)
    def test_one_call_matches_two_calls(self, spec):
        assert is_pt_symmetric(spec) == two_call_pt_check(spec)

    @given(pt_specs())
    def test_rule_matches_sampled_reference(self, spec):
        assert is_pt_symmetric(spec) == two_call_pt_check(spec)

    def test_equivalence_covers_both_verdicts_and_every_family(self):
        assert {type(spec) for spec in PT_SPECS} == set(FAMILIES.values())
        assert {two_call_pt_check(spec) for spec in PT_SPECS} == {True, False}


class TestSweep:
    def test_sweep_values_inclusive(self):
        vals = sweep_values(0.1, 2.5, 0.05)
        assert len(vals) == 49
        assert abs(vals[0] - 0.1) < 1e-15
        assert abs(vals[-1] - 2.5) < 1e-12
        assert abs(vals[23] - 1.25) < 1e-12

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            sweep_values(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            sweep_values(1.0, 0.0, 0.1)

    def test_sweep_rejects_nonfinite_and_oversized(self):
        assert len(sweep_values(0.0, MAX_SWEEP_SAMPLES - 1.0, 1.0)) == MAX_SWEEP_SAMPLES
        bad = [(0.0, MAX_SWEEP_SAMPLES, 1.0), (0.0, 1e9, 1e-9), (-1e308, 1e308, 1.0),
               (0.1, math.inf, 0.5), (math.nan, 1.0, 0.5), (0.0, 1.0, math.nan)]
        for start, stop, step in bad:
            with pytest.raises(InvalidSpec):
                sweep_values(start, stop, step)

    def test_scarf_phase_flip(self):
        rows = scan_threshold(ScarfSpec(1.0, 1.0), 0.1, 2.5, 0.05)
        assert len(rows) == 49
        for row in rows:
            if row.swept_value < 1.25 - 1e-9:
                assert row.classification is Classification.ALL_REAL
                assert row.complex_pair_count == 0
            elif row.swept_value > 1.25 + 1e-9:
                assert row.classification is Classification.BROKEN_CONJUGATE_PAIRS
                assert row.real_level_count == 0
                assert row.complex_pair_count >= 1
        at_threshold = rows[23]
        assert abs(at_threshold.swept_value - 1.25) < 1e-12
        assert at_threshold.classification is Classification.ALL_REAL

    def test_flip_is_adjacent_to_threshold(self):
        rows = scan_threshold(ScarfSpec(1.0, 1.0), 0.1, 2.5, 0.05)
        flips = [
            (a.swept_value, b.swept_value)
            for a, b in zip(rows, rows[1:])
            if a.classification is not b.classification
        ]
        assert len(flips) == 1
        lo, hi = flips[0]
        assert abs(lo - 1.25) < 1e-12 and abs(hi - 1.30) < 1e-12

    def test_single_sample(self):
        rows = scan_threshold(ScarfSpec(1.0, 1.0), 0.7, 0.7, 0.1)
        assert len(rows) == 1
        assert rows[0].classification is Classification.ALL_REAL

    def test_morse_delta_sweep(self):
        rows = scan_threshold(MorseABSpec(1.0, 1.0, 3.0, 2.0), 2.0, 4.0, 0.5)
        kinds = {row.swept_value: row.classification for row in rows}
        assert kinds[3.0] is Classification.ALL_REAL
        for value, cls in kinds.items():
            if value != 3.0:
                assert cls is Classification.COMPLEX_UNPAIRED

    def test_empty_rows_where_no_branch(self):
        # tiny couplings leave no regular branch at all
        rows = scan_threshold(ScarfSpec(0.0, 0.05), 0.05, 0.3, 0.05)
        assert rows[0].classification is Classification.EMPTY
        assert rows[0].real_level_count == 0


def enumerated_scan(base_spec, start, stop, step) -> list[PhaseDiagramRow]:
    """Reference form of scan_threshold: enumerate every level, then count them."""
    rows = []
    for value in sweep_values(start, stop, step):
        try:
            branches = solve(with_swept_value(base_spec, value))
        except NoRegularBranch:
            rows.append(PhaseDiagramRow(value, 0, 0, Classification.EMPTY))
            continue
        pairs = [(sol, enumerate_levels(sol)) for sol in branches]
        real = sum(len(lv) for sol, lv in pairs if sol.branch_kind is BranchKind.REAL_SERIES)
        paired = sum(
            len(lv) for sol, lv in pairs if sol.branch_kind is BranchKind.COMPLEX_PAIR_MEMBER
        )
        kinds = {sol.branch_kind for sol, lv in pairs if lv}
        if not kinds:
            phase = Classification.EMPTY
        elif BranchKind.COMPLEX_PAIR_MEMBER in kinds:
            phase = Classification.BROKEN_CONJUGATE_PAIRS
        elif BranchKind.COMPLEX_UNPAIRED in kinds:
            phase = Classification.COMPLEX_UNPAIRED
        else:
            phase = Classification.ALL_REAL
        rows.append(PhaseDiagramRow(value, real, paired // 2, phase))
    return rows


# Dyadic steps put a sample exactly on the threshold of a dyadic centre.
STEPS = st.sampled_from([0.0625, 0.125, 0.25, 0.05, 0.1])


@st.composite
def sweeps(draw):
    """(base spec, start, stop, step) across the threshold of Scarf, gPT or Morse-AB.

    Small Scarf/gPT couplings and Morse-AB with gamma_p, delta_p <= 1 give
    samples without a regular branch.
    """
    family = draw(st.sampled_from(["scarf2", "poschl-teller", "morse-ab"]))
    step = draw(STEPS)
    if family == "morse-ab":
        gamma_p = draw(st.sampled_from([0.5, 1.0, 3.0]) | st.floats(-1.0, 8.0))
        start = gamma_p - draw(st.integers(0, 12)) * step
        base = MorseABSpec(
            draw(st.floats(0.2, 3.0)),
            draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, 3.0)),
            gamma_p,
            start,
        )
    else:
        v1 = draw(st.sampled_from([0.0, 0.25, 1.0, 9.75]) | st.floats(0.0, 60.0))
        threshold = v1 + 0.25
        # v2 stays positive: the families reject v2 = 0
        start = threshold - draw(st.integers(0, math.ceil(threshold / step) - 1)) * step
        if family == "scarf2":
            base = ScarfSpec(v1, start)
        else:
            base = PoschlTellerSpec(v1, start, draw(st.floats(-2.0, 2.0)),
                                    draw(st.floats(0.05, 0.75)))
    return base, start, start + draw(st.integers(0, 24)) * step, step


@given(sweeps())
@example((ScarfSpec(1.0, 0.1), 0.1, 2.5, 0.05))  # 1.25 within REG_TOL of a sample
@example((ScarfSpec(9.75, 9.0), 9.0, 11.0, 0.25))  # 10.0 exactly on a sample
@example((ScarfSpec(0.0, 0.05), 0.05, 0.3, 0.05))  # no regular branch
@example((MorseABSpec(1.0, 1.0, 3.0, 2.0), 2.0, 4.0, 0.5))  # delta_p = gamma_p on a sample
@example((MorseABSpec(1.0, 1.0, 0.5, 0.0), 0.0, 1.0, 0.25))  # no regular branch
# m_re = 0.5 * sqrt(0.25 + v2) sweeps through 0.5 + REG_TOL, where branches
# start to count, and through 3.5 (level_count's guard at n_max_exclusive = 3)
@example((ScarfSpec(0.0, 0.75), 0.75 - 4e-11, 0.75 + 4e-11, 1e-12))
@example((ScarfSpec(0.0, 48.75), 48.75 - 4e-10, 48.75 + 4e-10, 1e-11))
# m_re = 0.5 + (gamma_p + delta_p - 2) / 4 for A = |B|: the same two edges,
# the second on real samples (delta_p within ~7e-12 of gamma_p)
@example((MorseABSpec(1.0, 1.0, 1.0, 1.0), 1.0 - 2e-11, 1.0 + 2e-11, 1e-12))
@example((MorseABSpec(1.0, -1.0, 7.0, 7.0), 7.0 - 4e-11, 7.0 + 4e-11, 2e-12))
def test_scan_rows_match_enumerated_counts(sweep):
    assert scan_threshold(*sweep) == enumerated_scan(*sweep)


@st.composite
def near_margin_specs(draw):
    """Scarf, gPT or Morse-AB specs whose m_re lands within ~16 ulps of 0.5 + REG_TOL.

    Scarf/gPT with v1 = 0 above the threshold have m_re = 0.5 * sqrt(0.25 + |v2|);
    Morse-AB with A = |B| = 1 has m_re = 0.5 + (gamma_p + delta_p - 2) / 4.
    """
    family = draw(st.sampled_from(["scarf2", "poschl-teller", "morse-ab"]))
    ulps = draw(st.integers(-64, 64))
    if family == "morse-ab":
        delta_p = 1.0 + 4 * REG_TOL
        for _ in range(abs(ulps)):
            delta_p = math.nextafter(delta_p, math.copysign(math.inf, ulps))
        return MorseABSpec(1.0, draw(st.sampled_from([-1.0, 1.0])), 1.0, delta_p)
    v2 = (1.0 + 2 * REG_TOL) ** 2 - 0.25
    for _ in range(abs(ulps)):
        v2 = math.nextafter(v2, math.copysign(math.inf, ulps))
    v2 = draw(st.sampled_from([-1.0, 1.0])) * v2
    if family == "scarf2":
        return ScarfSpec(0.0, v2)
    return PoschlTellerSpec(0.0, v2, draw(st.floats(-2.0, 2.0)), draw(st.floats(0.05, 0.75)))


@st.composite
def any_specs(draw):
    """A spec of any family with moderate couplings; invalid draws are rejected."""
    cls = draw(st.sampled_from(list(FAMILIES.values())))
    couplings = [draw(st.floats(-60.0, 60.0)) for _ in range(4)]
    try:
        if cls is ScarfSpec:
            return ScarfSpec(abs(couplings[0]), couplings[1])
        if cls is PoschlTellerSpec:
            return PoschlTellerSpec(couplings[0], couplings[1], couplings[2] / 30, 0.3)
        if cls is MorseABSpec:
            return MorseABSpec(abs(couplings[0]) / 20, *(c / 6 for c in couplings[1:]))
        return MorseSpec(*couplings)
    except InvalidSpec:
        reject()


@given(near_margin_specs() | any_specs())
@example(ScarfSpec(0.0, (1.0 + 2 * REG_TOL) ** 2 - 0.25))
@example(MorseABSpec(1.0, 1.0, 1.0, 1.0 + 4 * REG_TOL))
def test_every_regular_branch_emits_a_level(spec):
    """_strictly_above(m_re, 0.5) implies level_count(m_re - 0.5) >= 1.

    classify and scan_threshold rely on it: they classify by branch kinds alone.
    """
    try:
        branches = solve(spec)
    except NoRegularBranch:
        return
    for sol in branches:
        try:
            count = level_count(sol.n_max_exclusive)
        except InvalidSpec:  # more levels than MAX_LEVEL_COUNT
            reject()
        assert count >= 1
