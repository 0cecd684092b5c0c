"""Spectral reports: level enumeration, branch classification, PT symmetry.

Everything here is closed-form bookkeeping on top of the matching solvers
and the family specs' hooks; no potential is evaluated.  The independent
numerical verification lives in the oracle module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import families
from .algebra import energy_level
from .errors import InvalidSpec
from .families import AlgebraicSolution, BranchKind

# Levels per branch grow like sqrt(v1).  Far past any level count the oracle
# can resolve, enumerating them would only exhaust memory.
MAX_LEVEL_COUNT = 10_000
# Phase-diagram sweeps take tens of samples; a range asking for more than
# this is a mistyped step or stop, and building it would exhaust memory.
MAX_SWEEP_SAMPLES = 100_000


class Classification(Enum):
    ALL_REAL = "AllReal"
    BROKEN_CONJUGATE_PAIRS = "BrokenConjugatePairs"
    COMPLEX_UNPAIRED = "ComplexUnpaired"
    EMPTY = "Empty"


@dataclass(frozen=True)
class EigenLevel:
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


@dataclass(frozen=True)
class PhaseDiagramRow:
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
    guard = families.REG_TOL * max(1.0, abs(n_max_exclusive))
    return max(0, math.ceil(n_max_exclusive - guard))


def enumerate_levels(sol: AlgebraicSolution) -> list[EigenLevel]:
    """Emit levels n = 0, 1, ... below the branch bound, with their energies."""
    m, epsilon = sol.m, sol.epsilon
    return [
        EigenLevel(n=n, energy=energy_level(m, n), epsilon=epsilon)
        for n in range(level_count(sol.n_max_exclusive))
    ]


def is_pt_symmetric(spec) -> bool:
    """Whether V(-x)* == V(x) exactly, as the family states it in `spec.pt_symmetric()`."""
    return spec.pt_symmetric()


def _classification_of(kinds: list[BranchKind]) -> Classification:
    """The phase of a spectrum whose regular branches have these kinds.

    Every regular branch emits at least one level (m_re clears 1/2 by more
    than level_count's guard), so the branch kinds alone fix the phase.
    """
    if not kinds:
        return Classification.EMPTY
    if BranchKind.COMPLEX_PAIR_MEMBER in kinds:
        return Classification.BROKEN_CONJUGATE_PAIRS
    if BranchKind.COMPLEX_UNPAIRED in kinds:
        return Classification.COMPLEX_UNPAIRED
    return Classification.ALL_REAL


def classify(spec, branches: list[AlgebraicSolution]) -> SpectrumReport:
    """Assemble the spectrum report for solver output (possibly empty).

    Classification: Empty without regular levels; AllReal when every branch
    is a real series; BrokenConjugatePairs when the branches form the
    conjugate pair of a broken-coupling Scarf/Poschl-Teller system;
    ComplexUnpaired for the generic complex Morse series.
    """
    pairs = [(sol, enumerate_levels(sol)) for sol in branches]
    return SpectrumReport(
        spec=spec,
        branches=pairs,
        classification=_classification_of([sol.branch_kind for sol in branches]),
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
    return [start + k * step for k in range(count)]


def scan_threshold(base_spec, start: float, stop: float, step: float) -> list[PhaseDiagramRow]:
    """Sweep the family's natural parameter and log the phase of each sample.

    Scarf/Poschl-Teller sweep v2 across the critical coupling v1 + 1/4;
    Morse-AB sweeps delta_p across gamma_p.  Each row counts real levels and
    complex-conjugate level pairs (unpaired complex Morse levels contribute
    to neither count; the classification column carries the phase).  Levels
    are counted from each sample's branch rows; no branch object is built.
    """
    rows = []
    for value in sweep_values(start, stop, step):
        try:
            branch_rows = families.with_swept_value(base_spec, value).branch_rows()
        except families.NoRegularBranch:
            rows.append(PhaseDiagramRow(value, 0, 0, Classification.EMPTY))
            continue
        real = paired = 0
        for _, kind, m_re, _, _ in branch_rows:
            count = level_count(m_re - 0.5)  # every branch, so the cap holds for each
            if kind is BranchKind.REAL_SERIES:
                real += count
            elif kind is BranchKind.COMPLEX_PAIR_MEMBER:
                paired += count
        kinds = [row[1] for row in branch_rows]
        rows.append(PhaseDiagramRow(value, real, paired // 2, _classification_of(kinds)))
    return rows
