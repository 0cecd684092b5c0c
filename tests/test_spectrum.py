"""Level enumeration, classification, symmetry checks, threshold scans."""

import math

import numpy as np
import pytest

from sl2spectra import (
    Classification,
    InvalidSpec,
    MorseABSpec,
    PoschlTellerSpec,
    ScarfSpec,
    analyze,
    is_pt_symmetric,
    scan_threshold,
    solve,
)
from sl2spectra.spectrum import (
    MAX_LEVEL_COUNT,
    MAX_SWEEP_SAMPLES,
    conjugate_pair_closure,
    empty_report,
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
        assert all(lv.regular for lv in enumerate_levels(sols[1]))

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
        report = empty_report(MorseABSpec(1, 1, 1, 1))
        assert report.classification is Classification.EMPTY
        assert report.branches == []


class TestPTSymmetry:
    def test_scarf_always(self):
        assert is_pt_symmetric(ScarfSpec(9.75, 6.0))
        assert is_pt_symmetric(ScarfSpec(0.0, 5.0))

    def test_poschl_teller_requires_centered_contour(self):
        assert is_pt_symmetric(PoschlTellerSpec(9.75, 6.0, c=0.0, contour_gamma=math.pi / 8))
        assert not is_pt_symmetric(PoschlTellerSpec(9.75, 6.0, c=0.5, contour_gamma=math.pi / 8))

    def test_morse_never(self):
        assert not is_pt_symmetric(MorseABSpec(1, 1, 3, 3))
        assert not is_pt_symmetric(MorseABSpec(1, 1, 3, 5))

    def test_requires_symmetric_samples(self):
        xs = np.linspace(-6, 6, 121)
        assert is_pt_symmetric(ScarfSpec(2.0, 1.0), xs)


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
