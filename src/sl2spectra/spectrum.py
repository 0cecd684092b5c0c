"""Spectral reports: level enumeration, branch classification, PT symmetry.

Everything here is closed-form bookkeeping on top of the matching solvers
and the family specs' hooks; no potential is evaluated.  The independent
numerical verification lives in the oracle module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import families
from .algebra import energy_level
from .errors import InvalidSpec, NoRegularBranch
from .families import AlgebraicSolution, BranchKind

# Levels per branch grow like sqrt(v1).  Far past any level count the oracle
# can resolve, enumerating them would only exhaust memory.
MAX_LEVEL_COUNT = 10_000
# Phase-diagram sweeps take tens of samples; a range asking for more than
# this is a mistyped step or stop, and building it would exhaust memory.
MAX_SWEEP_SAMPLES = 100_000


class Classification(Enum):
    """The phase of a spectrum; str() and "%s" write its value, as the documents do."""

    ALL_REAL = "AllReal"
    BROKEN_CONJUGATE_PAIRS = "BrokenConjugatePairs"
    COMPLEX_UNPAIRED = "ComplexUnpaired"
    EMPTY = "Empty"

    def __str__(self) -> str:
        return self.value


class EigenLevel(NamedTuple):
    """One emitted bound level of a branch; emitted levels are always regular."""

    n: int
    energy: complex
    epsilon: int


@dataclass
class SpectrumReport:
    """Assembled closed-form spectrum of one potential specification.

    threshold_distance is |v2| - (v1 + 1/4) for the Scarf/Poschl-Teller
    families and None for Morse; reality_condition_residual is the Morse
    real-spectrum residual and None otherwise.
    """

    spec: object
    branches: list[tuple[AlgebraicSolution, list[EigenLevel]]]
    classification: Classification
    pt_symmetric: bool
    threshold_distance: float | None
    reality_condition_residual: float | None


class PhaseDiagramRow(NamedTuple):
    """One scan sample: the swept value, its level counts and its phase.

    The row is the tuple the `scan` CSV line formats: the swept value is a
    `sweep_values` sample, never -0.0, and the phase writes its value.
    """

    swept_value: float
    real_level_count: int
    complex_pair_count: int
    classification: Classification


def level_count(n_max_exclusive: float) -> int:
    """Number of admissible n under the strict bound n < n_max_exclusive.

    Counting uses a relative 1e-12 guard so a bound sitting on an integer up
    to floating-point noise excludes the boundary level deterministically.
    A bound above MAX_LEVEL_COUNT (or not finite) raises InvalidSpec.
    """
    if not n_max_exclusive <= MAX_LEVEL_COUNT:
        raise InvalidSpec(
            f"{n_max_exclusive:.6g} closed-form levels exceed the cap of {MAX_LEVEL_COUNT}"
        )
    # guard REG_TOL * max(1.0, |bound|) and count max(0, ...), without the
    # max() calls: every analyze op and scan sample counts each branch here
    scale = abs(n_max_exclusive)
    count = math.ceil(n_max_exclusive - families.REG_TOL * (scale if scale > 1.0 else 1.0))
    return count if count > 0 else 0


def enumerate_levels(sol: AlgebraicSolution) -> list[EigenLevel]:
    """Emit levels n = 0, 1, ... below the branch bound, with their energies."""
    m, epsilon = sol.m, sol.epsilon
    return [
        EigenLevel(n, energy_level(m, n), epsilon)
        for n in range(level_count(sol.n_max_exclusive))
    ]


def is_pt_symmetric(spec) -> bool:
    """Whether V(-x)* == V(x) exactly, as the family states it in `spec.pt_symmetric()`."""
    return spec.pt_symmetric()


def _classification_of(real: int, paired: int, unpaired: int) -> Classification:
    """The phase of a spectrum with these level counts per branch kind.

    real, paired and unpaired count the levels of the REAL_SERIES,
    COMPLEX_PAIR_MEMBER and COMPLEX_UNPAIRED branches.
    """
    if paired:
        return Classification.BROKEN_CONJUGATE_PAIRS
    if unpaired:
        return Classification.COMPLEX_UNPAIRED
    return Classification.ALL_REAL if real else Classification.EMPTY


def _level_counts(branches: list[AlgebraicSolution]) -> tuple[int, int, int]:
    """The (real, paired, unpaired) level counts of these branches, by branch kind.

    Every branch is counted, so level_count's cap holds for each.
    """
    real = paired = unpaired = 0
    for sol in branches:
        count = level_count(sol.n_max_exclusive)
        kind = sol.branch_kind
        if kind is BranchKind.REAL_SERIES:
            real += count
        elif kind is BranchKind.COMPLEX_PAIR_MEMBER:
            paired += count
        else:
            unpaired += count
    return real, paired, unpaired


def classify(spec, branches: list[AlgebraicSolution]) -> SpectrumReport:
    """Assemble the spectrum report for solver output (possibly empty).

    Classification: Empty without regular levels; AllReal when every branch
    is a real series; BrokenConjugatePairs when the branches form the
    conjugate pair of a broken-coupling Scarf/Poschl-Teller system;
    ComplexUnpaired for the generic complex Morse series.
    """
    return SpectrumReport(
        spec=spec,
        branches=[(sol, enumerate_levels(sol)) for sol in branches],
        classification=_classification_of(*_level_counts(branches)),
        pt_symmetric=is_pt_symmetric(spec),
        threshold_distance=spec.threshold_distance(),
        reality_condition_residual=spec.reality_residual(),
    )


def analyze(spec) -> SpectrumReport:
    """Solve a family spec and classify the result; NoRegularBranch propagates."""
    return classify(spec, families.solve(spec))


def sweep_values(start: float, stop: float, step: float) -> list[float]:
    """Ascending samples start, start + step, ... up to stop (inclusive-ish).

    The stop sample is included when it lands within a relative 1e-9 of the
    accumulated value, which keeps ranges like 0.1:2.5:0.05 intact despite
    floating-point accumulation.  A non-finite start, stop or step, a step
    that is not positive, an empty range, or a range of more than
    MAX_SWEEP_SAMPLES samples raises InvalidSpec.
    """
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise InvalidSpec(f"sweep needs a finite start, stop and step, got {start}, {stop}, {step}")
    if step <= 0:
        raise InvalidSpec(f"step must be positive, got {step}")
    if stop < start:
        raise InvalidSpec(f"empty range: stop {stop} < start {start}")
    samples = (stop - start) / step + 1e-9
    if not samples < MAX_SWEEP_SAMPLES:
        raise InvalidSpec(f"sweep of {samples:.6g} samples exceeds the cap of {MAX_SWEEP_SAMPLES}")
    count = int(math.floor(samples)) + 1
    # k * step is +0.0 at k = 0, so a start of -0.0 gives the sample 0.0
    return [start + k * step for k in range(count)]


def scan_threshold(base_spec, start: float, stop: float, step: float) -> list[PhaseDiagramRow]:
    """Sweep the family's natural parameter and log the phase of each sample.

    Scarf/Poschl-Teller sweep v2 across the critical coupling v1 + 1/4;
    Morse-AB sweeps delta_p across gamma_p.  Each row counts real levels and
    complex-conjugate level pairs (unpaired complex Morse levels contribute
    to neither count; the classification column carries the phase).  Each
    sample is built by `families.sweep_builder`, through its family's
    constructor, and its levels are counted from its branches in one pass;
    no level or realization is built.  A range error is raised before a
    family without a sweep field is named.
    """
    values = sweep_values(start, stop, step)
    build = families.sweep_builder(base_spec)
    rows = []
    for value in values:
        try:
            branches = build(value).branch_rows()
        except NoRegularBranch:
            branches = []
        real, paired, unpaired = _level_counts(branches)
        phase = _classification_of(real, paired, unpaired)
        rows.append(PhaseDiagramRow(value, real, paired // 2, phase))
    return rows
