"""Command-line front end: analyze | scan | verify | wavefunction.

All numeric output uses 15 significant digits with '.' decimals, JSON
documents follow schemas/spectrum_report.v1.json, and CSV output is
RFC-4180-style (CRLF, header row).  Identical configurations produce
byte-identical output.  The `analyze` text is, byte for byte, what the
stdlib's json.dumps writes for the document with a two-space indent, plus a
newline; `report_document` writes that text in one pass, formatting each
number once.

Exit codes: 0 success; 2 invalid input (a bad or non-finite coupling, or one
above families.MAX_COUPLING in magnitude, which 15 digits would round to inf;
Morse couplings that overflow the matching equations, missing family flags,
an empty, non-finite or oversized (spectrum.MAX_SWEEP_SAMPLES) sweep range or
a family without a sweep parameter, no level (epsilon, n), more closed-form
levels than spectrum.MAX_LEVEL_COUNT, a grid with a non-finite end or fewer
than 16 points (--n-points 0 included), a grid too coarse for the requested
profile, a verify grid of more than oracle.DENSE_CAP interior points or whose
spacing h has an h^2 or 1/h^4 that overflows or is below the smallest normal
double (a box as wide as +-1e80 at 100 points) or on which the potential is
not finite (a Poschl-Teller box of +-800), a profile of more than
MAX_PROFILE_POINTS points, a non-finite or non-positive --tol, --decay-gate
or --residual-tol, or a --from-file that is unreadable, lacks a column, holds
a non-finite value or is zero everywhere, or any other SpectraError);
3 no regular branch (analyze still emits an empty-spectrum document, the
other commands print nothing); 4 verification mismatch; 5 eigensolver
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import families, oracle, spectrum
from .algebra import GridFunction, tower_state
from .errors import InvalidSpec, NoConvergence, NoRegularBranch, SpectraError

ENV_GRID_N = "SPECTRA_DEFAULT_GRID_N"
# Largest `wavefunction` profile.  Each point becomes a ~60-byte CSV row whose
# strings are all held until the document is written: 1e5 points take ~1 s and
# ~80 MB of RSS, 1e6 points ~7 s and ~520 MB.  A residual check needs a
# spacing of 0.1 (~400 points on the default boxes); the round trip uses 4001.
MAX_PROFILE_POINTS = 100_000

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_BRANCH = 3
EXIT_UNMATCHED = 4
EXIT_NO_CONVERGENCE = 5
EXIT_CODES = {NoRegularBranch: EXIT_NO_BRANCH, NoConvergence: EXIT_NO_CONVERGENCE}


def _fmt(x: float) -> str:
    return f"{float(x) + 0.0:.15g}"  # +0.0 folds -0.0 into 0.0


@dataclass
class RunConfig:
    """Validated per-invocation configuration for one subcommand."""

    command: str
    spec: object
    grid: oracle.Grid | None = None
    tol: float = oracle.DEFAULT_MATCH_TOL
    decay_gate: float = oracle.DEFAULT_DECAY_GATE
    residual_tol: float = oracle.DEFAULT_RESIDUAL_TOL
    epsilon: int = 1
    n: int = 0
    sweep: tuple[float, float, float] | None = None
    from_file: str | None = None
    output: str | None = None


def _spec_from_args(args) -> families.FamilySpec:
    cls = families.FAMILIES[args.family]
    _need(args, *(f.name for f in fields(cls) if f.default is MISSING))
    given = {f.name: getattr(args, f.name) for f in fields(cls)}
    return cls(**{name: value for name, value in given.items() if value is not None})


def _need(args, *names):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise InvalidSpec(f"family {args.family!r} requires {flags}")


def _grid_from_args(args, spec) -> oracle.Grid:
    n_points = args.n_points
    if n_points is None:
        env = os.environ.get(ENV_GRID_N)
        n_points = int(env) if env else None
    base = oracle.default_grid(spec, n_points)
    x_min = args.x_min if args.x_min is not None else base.x_min
    x_max = args.x_max if args.x_max is not None else base.x_max
    return oracle.Grid(x_min, x_max, base.n_points)


def report_document(report: spectrum.SpectrumReport) -> str:
    """The schema-v1 analyze document of a SpectrumReport, as JSON text.

    Byte for byte what json.dumps(doc, indent=2) writes for the document
    tree with every number rounded to 15 significant digits, written in one
    pass without building the tree.  No trailing newline.
    """
    spec = report.spec
    params = ",\n    ".join(f"{_quote(k)}: {_num(v)}" for k, v in spec.parameters().items())
    branches = [_branch_text(sol, levels) for sol, levels in report.branches]
    return (
        '{\n  "schema_version": 1,\n'
        f'  "family": {_quote(spec.family)},\n'
        f'  "parameters": {{\n    {params}\n  }},\n'
        f'  "classification": {_quote(report.classification.value)},\n'
        f'  "pt_symmetric": {"true" if report.pt_symmetric else "false"},\n'
        f'  "threshold_distance": {_num_or_null(report.threshold_distance)},\n'
        f'  "reality_condition_residual": {_num_or_null(report.reality_condition_residual)},\n'
        f'  "branches": {_array(branches, "  ")}\n'
        "}"
    )


def _branch_text(sol, levels) -> str:
    r = sol.realization
    level_texts = [
        f'{{\n          "n": {lv.n},\n          "energy": [\n'
        f"            {_num(lv.energy.real)},\n            {_num(lv.energy.imag)}\n"
        "          ]\n        }"
        for lv in levels
    ]
    return (
        f'{{\n      "epsilon": {sol.epsilon},\n'
        f'      "branch_kind": {_quote(sol.branch_kind.value)},\n'
        f'      "potential_class": {_quote(r.potential_class.value)},\n'
        f'      "m_re": {_num(sol.m_re)},\n'
        f'      "m_im": {_num(sol.m_im)},\n'
        f'      "b_re": {_num(r.b_re)},\n'
        f'      "b_im": {_num(r.b_im)},\n'
        f'      "c": {_num(r.c)},\n'
        f'      "contour_gamma": {_num(r.gamma)},\n'
        f'      "n_max_exclusive": {_num(sol.n_max_exclusive)},\n'
        f'      "levels": {_array(level_texts, "      ")}\n'
        "    }"
    )


def _array(items: list[str], indent: str) -> str:
    """A JSON array of already written items, the array itself indented by indent."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


_quote = json.encoder.encode_basestring_ascii
# json.dumps spellings of the values whose float repr is not JSON; rounding to
# 15 digits turns the largest doubles into inf.
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _num(x: float) -> str:
    """x rounded to 15 significant digits, as json.dumps writes the rounded float.

    A decimal of at most 15 digits maps to its own double, so the .15g text
    already has the digits of that double's repr; an integral value only
    lacks repr's ".0".  The text is written through float.__repr__ where the
    two differ: exponent 15 (repr writes [1e15, 1e16) positionally), exponent
    308 (the value may round to inf), exponents below -307 (subnormals carry
    fewer digits), nan and inf.
    """
    text = f"{x + 0.0:.15g}"
    if "e" in text:
        exponent = int(text[text.index("e") + 1:])
        if -308 < exponent < 308 and exponent != 15:
            return text
    elif "." in text:
        return text
    elif text[-1].isdigit():
        return text + ".0"
    text = float.__repr__(float(text))
    return _NON_FINITE.get(text, text)


def _num_or_null(x: float | None) -> str:
    return "null" if x is None else _num(x)


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_analyze(config: RunConfig) -> int:
    try:
        report = spectrum.analyze(config.spec)
        code = EXIT_OK
    except NoRegularBranch:
        report = spectrum.classify(config.spec, [])
        code = EXIT_NO_BRANCH
    _emit(report_document(report) + "\n", config.output)
    return code


def cmd_scan(config: RunConfig) -> int:
    start, stop, step = config.sweep
    rows = spectrum.scan_threshold(config.spec, start, stop, step)
    table = [
        [_fmt(r.swept_value), str(r.real_level_count), str(r.complex_pair_count), r.classification.value]
        for r in rows
    ]
    _emit(
        _csv_text(["swept_value", "real_levels", "complex_pairs", "classification"], table),
        config.output,
    )
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    if config.from_file:
        return _verify_from_file(config)
    report = oracle.verify_spectrum(
        config.spec, grid=config.grid, tol=config.tol, decay_gate=config.decay_gate
    )
    table = [
        [
            _fmt(r.e_closed.real),
            _fmt(r.e_closed.imag),
            _fmt(r.e_numeric.real),
            _fmt(r.e_numeric.imag),
            _fmt(r.abs_error),
            str(r.matched).lower(),
        ]
        for r in report.rows
    ]
    _emit(
        _csv_text(
            ["E_closed_re", "E_closed_im", "E_numeric_re", "E_numeric_im", "abs_error", "matched"],
            table,
        ),
        config.output,
    )
    return EXIT_OK if report.all_matched else EXIT_UNMATCHED


def _level_for(spec, epsilon: int, n: int):
    """The (solution, level) pair for branch epsilon and index n."""
    for sol in families.solve(spec):
        if sol.epsilon == epsilon and 0 <= n < spectrum.level_count(sol.n_max_exclusive):
            return sol, spectrum.enumerate_levels(sol)[n]
    raise InvalidSpec(f"no level (epsilon={epsilon}, n={n})")


def _read_profile(path: str) -> GridFunction:
    """The x, re_psi, im_psi columns of a CSV written by `wavefunction`."""
    xs, re_psi, im_psi = [], [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                xs.append(float(row["x"]))
                re_psi.append(float(row["re_psi"]))
                im_psi.append(float(row["im_psi"]))
    except (OSError, csv.Error, KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc
    columns = np.array([xs, re_psi, im_psi])
    if not np.isfinite(columns).all():
        raise InvalidSpec(f"{path} holds a non-finite x, re_psi or im_psi")
    return GridFunction(columns[0], columns[1] + 1j * columns[2])


def _verify_from_file(config: RunConfig) -> int:
    _, level = _level_for(config.spec, config.epsilon, config.n)
    psi = _read_profile(config.from_file)
    res = oracle.residual(psi, config.spec, level.energy)
    ok = res < config.residual_tol
    _emit(
        _csv_text(
            ["E_closed_re", "E_closed_im", "residual", "matched"],
            [[_fmt(level.energy.real), _fmt(level.energy.imag), _fmt(res), str(ok).lower()]],
        ),
        config.output,
    )
    return EXIT_OK if ok else EXIT_UNMATCHED


def cmd_wavefunction(config: RunConfig) -> int:
    sol, _ = _level_for(config.spec, config.epsilon, config.n)
    grid = config.grid or oracle.default_grid(config.spec)
    if grid.n_points > MAX_PROFILE_POINTS:
        raise InvalidSpec(f"profile capped at {MAX_PROFILE_POINTS} points, got {grid.n_points}")
    psi = tower_state(sol.realization, sol.m, config.n, grid.points)
    table = [
        [_fmt(x), _fmt(v.real), _fmt(v.imag)] for x, v in zip(psi.xs, psi.values)
    ]
    _emit(_csv_text(["x", "re_psi", "im_psi"], table), config.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2spectra",
        description="Closed-form spectra of complexified solvable potentials, "
        "with an independent finite-difference verification oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_args(p):
        p.add_argument("--family", required=True, choices=list(families.FAMILIES))
        couplings = (f.name for cls in families.FAMILIES.values() for f in fields(cls))
        for name in dict.fromkeys(couplings):
            p.add_argument("--" + name.replace("_", "-"), type=float, dest=name)
        p.add_argument("--output", type=str, default=None)

    def add_grid_args(p):
        p.add_argument("--x-min", type=float, default=None)
        p.add_argument("--x-max", type=float, default=None)
        p.add_argument("--n-points", type=int, default=None)

    p_analyze = sub.add_parser("analyze", help="closed-form spectrum report (JSON)")
    add_family_args(p_analyze)

    p_scan = sub.add_parser("scan", help="sweep a coupling and log the phase (CSV)")
    add_family_args(p_scan)
    p_scan.add_argument("--start", type=float, required=True)
    p_scan.add_argument("--stop", type=float, required=True)
    p_scan.add_argument("--step", type=float, required=True)

    p_verify = sub.add_parser("verify", help="match closed forms against the grid oracle (CSV)")
    add_family_args(p_verify)
    add_grid_args(p_verify)
    p_verify.add_argument("--tol", type=float, default=oracle.DEFAULT_MATCH_TOL)
    p_verify.add_argument("--decay-gate", type=float, default=oracle.DEFAULT_DECAY_GATE,
                          dest="decay_gate")
    p_verify.add_argument("--from-file", type=str, default=None, dest="from_file",
                          help="re-ingest an exported wavefunction and check its residual")
    p_verify.add_argument("--residual-tol", type=float, default=oracle.DEFAULT_RESIDUAL_TOL,
                          dest="residual_tol")
    p_verify.add_argument("--epsilon", type=int, default=1, choices=[1, -1])
    p_verify.add_argument("--n", type=int, default=0)

    p_wave = sub.add_parser("wavefunction", help="export one bound profile (CSV)")
    add_family_args(p_wave)
    add_grid_args(p_wave)
    p_wave.add_argument("--epsilon", type=int, default=1, choices=[1, -1])
    p_wave.add_argument("--n", type=int, default=0)

    return parser


def _positive(flag: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise InvalidSpec(f"{flag} must be finite and positive, got {value}")
    return value


def config_from_args(args) -> RunConfig:
    swept = families.FAMILIES[args.family].sweep_field
    if args.command == "scan" and swept and getattr(args, swept) is None:
        # the swept parameter may be omitted; seed the base spec from --start
        setattr(args, swept, args.start)
    spec = _spec_from_args(args)
    config = RunConfig(command=args.command, spec=spec, output=args.output)
    if args.command in ("verify", "wavefunction"):
        config.grid = _grid_from_args(args, spec)
        config.epsilon = args.epsilon
        config.n = args.n
    if args.command == "verify":
        config.tol = _positive("--tol", args.tol)
        config.decay_gate = _positive("--decay-gate", args.decay_gate)
        config.from_file = args.from_file
        config.residual_tol = _positive("--residual-tol", args.residual_tol)
    if args.command == "scan":
        config.sweep = (args.start, args.stop, args.step)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    dispatch = {
        "analyze": cmd_analyze,
        "scan": cmd_scan,
        "verify": cmd_verify,
        "wavefunction": cmd_wavefunction,
    }
    try:
        config = config_from_args(args)
        return dispatch[args.command](config)
    except (SpectraError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CODES.get(type(exc), EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
