"""Command-line front end: analyze | scan | verify | wavefunction.

All numeric output uses 15 significant digits with '.' decimals, JSON
documents follow schemas/spectrum_report.v1.json, and CSV output is
RFC-4180-style (CRLF, header row).  Identical configurations produce
byte-identical output.

Exit codes: 0 success; 2 invalid input (a bad or non-finite coupling,
Morse couplings that overflow the matching equations, missing family flags,
an empty, non-finite or oversized (spectrum.MAX_SWEEP_SAMPLES) sweep range or
a family without a sweep parameter, no level (epsilon, n), more closed-form
levels than spectrum.MAX_LEVEL_COUNT, a grid too coarse for the requested
profile, or a --from-file that is unreadable, lacks a column or is zero
everywhere, or any other SpectraError);
3 no regular branch (analyze still emits an empty-spectrum document, the
other commands print nothing); 4 verification mismatch; 5 eigensolver
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import families, oracle, spectrum
from .algebra import GridFunction, tower_state
from .errors import InvalidSpec, NoConvergence, NoRegularBranch, SpectraError

ENV_GRID_N = "SPECTRA_DEFAULT_GRID_N"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_BRANCH = 3
EXIT_UNMATCHED = 4
EXIT_NO_CONVERGENCE = 5
EXIT_CODES = {NoRegularBranch: EXIT_NO_BRANCH, NoConvergence: EXIT_NO_CONVERGENCE}


def _fmt(x: float) -> str:
    return f"{float(x) + 0.0:.15g}"  # +0.0 folds -0.0 into 0.0


def _round15(x: float) -> float:
    return float(_fmt(x))


@dataclass
class RunConfig:
    """Validated per-invocation configuration for one subcommand."""

    command: str
    spec: object
    grid: oracle.Grid | None = None
    tol: float = oracle.DEFAULT_MATCH_TOL
    decay_gate: float = oracle.DEFAULT_DECAY_GATE
    residual_tol: float = 1e-5
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


def report_document(report: spectrum.SpectrumReport) -> dict:
    """Serialize a SpectrumReport as the schema-v1 analyze document."""
    branches = []
    for sol, levels in report.branches:
        r = sol.realization
        branches.append(
            {
                "epsilon": sol.epsilon,
                "branch_kind": sol.branch_kind.value,
                "potential_class": r.potential_class.value,
                "m_re": _round15(sol.m_re),
                "m_im": _round15(sol.m_im),
                "b_re": _round15(r.b_re),
                "b_im": _round15(r.b_im),
                "c": _round15(r.c),
                "contour_gamma": _round15(r.gamma),
                "n_max_exclusive": _round15(sol.n_max_exclusive),
                "levels": [
                    {
                        "n": lv.n,
                        "energy": [_round15(lv.energy.real), _round15(lv.energy.imag)],
                    }
                    for lv in levels
                ],
            }
        )
    spec = report.spec
    return {
        "schema_version": 1,
        "family": spec.family,
        "parameters": {k: _round15(v) for k, v in spec.parameters().items()},
        "classification": report.classification.value,
        "pt_symmetric": report.pt_symmetric,
        "threshold_distance": None
        if report.threshold_distance is None
        else _round15(report.threshold_distance),
        "reality_condition_residual": None
        if report.reality_condition_residual is None
        else _round15(report.reality_condition_residual),
        "branches": branches,
    }


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
        report = spectrum.empty_report(config.spec)
        code = EXIT_NO_BRANCH
    _emit(json.dumps(report_document(report), indent=2) + "\n", config.output)
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
    return GridFunction(np.asarray(xs), np.asarray(re_psi) + 1j * np.asarray(im_psi))


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
    p_verify.add_argument("--residual-tol", type=float, default=1e-5, dest="residual_tol")
    p_verify.add_argument("--epsilon", type=int, default=1, choices=[1, -1])
    p_verify.add_argument("--n", type=int, default=0)

    p_wave = sub.add_parser("wavefunction", help="export one bound profile (CSV)")
    add_family_args(p_wave)
    add_grid_args(p_wave)
    p_wave.add_argument("--epsilon", type=int, default=1, choices=[1, -1])
    p_wave.add_argument("--n", type=int, default=0)

    return parser


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
        config.tol = args.tol
        config.decay_gate = args.decay_gate
        config.from_file = args.from_file
        config.residual_tol = args.residual_tol
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
