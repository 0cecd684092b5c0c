"""Command-line front end: analyze | scan | verify | wavefunction.

All numeric output uses 15 significant digits with '.' decimals, JSON
documents follow schemas/spectrum_report.v1.json, and CSV output is
RFC-4180-style (CRLF, header row).  Identical configurations produce
byte-identical output.  The `analyze` text is, byte for byte, what the
stdlib's json.dumps writes for the document with a two-space indent, plus a
newline; `report_document` writes that text in one pass, formatting each
number once.

Exit codes, one SpectraError subclass each (main catches SpectraError alone):
0 success; 2 InvalidSpec, invalid input; 3 NoRegularBranch, no regular branch
(analyze still emits an empty-spectrum document, the other commands print
nothing); 4 verification mismatch; 5 NoConvergence, eigensolver failure.
README.md lists the inputs that end in each code.

Every call reads --family, that family's couplings and --output.  `scan` also
reads --start/--stop/--step, and its swept coupling is --start; `wavefunction`
reads the grid flags, --epsilon and --n; `verify` the grid flags and --tol, or
with --from-file, --epsilon and --n.  Any other flag given exits 2, naming each.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from typing import TYPE_CHECKING

from . import families, spectrum
from .algebra import GridFunction, tower_state
from .errors import InvalidSpec, NoConvergence, NoRegularBranch, SpectraError

if TYPE_CHECKING:  # verify and wavefunction import the oracle, and numpy with it
    from . import oracle

# Largest `wavefunction` profile.  Each point becomes a ~60-byte CSV row, and
# every row is held until the document is written: 1e5 points take ~0.3 s and
# ~62 MB of peak RSS in process (2-core VM).  A residual check accepts a
# spacing up to 0.1 (401 points on the default boxes), but the default-box
# levels pass oracle.DEFAULT_RESIDUAL_TOL only near 0.01 (4001 points, which the
# round trip uses).
MAX_PROFILE_POINTS = 100_000

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_BRANCH = 3
EXIT_UNMATCHED = 4
EXIT_NO_CONVERGENCE = 5
EXIT_CODES = {InvalidSpec: EXIT_INVALID, NoRegularBranch: EXIT_NO_BRANCH,
              NoConvergence: EXIT_NO_CONVERGENCE}


@dataclass
class RunConfig:
    """Validated per-invocation configuration for one subcommand."""

    command: str
    spec: object
    grid: oracle.Grid | None = None
    tol: float | None = None
    epsilon: int = 1
    n: int = 0
    sweep: tuple[float, float, float] | None = None
    from_file: str | None = None
    output: str | None = None


def _flags(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


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
    fewer digits), nan and inf.  A zero, -0.0 included, is always "0.0".
    """
    if x == 0:
        return "0.0"
    text = f"{x:.15g}"
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
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidSpec(f"cannot write {output}: {type(exc).__name__}: {exc}") from exc


def _csv_text(header: str, row_format: str, rows) -> str:
    """RFC 4180 text: the header line, then each row tuple written by row_format.

    Every line ends in CRLF, and no field written here needs quoting.  Each
    %.15g field takes a float whose -0.0 is folded into 0.0 (x + 0.0), so a
    zero is always written "0".
    """
    line = row_format + "\r\n"
    return header + "\r\n" + "".join([line % row for row in rows])


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
    rows = [
        (r.swept_value + 0.0, r.real_level_count, r.complex_pair_count, r.classification.value)
        for r in spectrum.scan_threshold(config.spec, start, stop, step)
    ]
    _emit(
        _csv_text("swept_value,real_levels,complex_pairs,classification", "%.15g,%d,%d,%s", rows),
        config.output,
    )
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    if config.from_file is not None:
        return _verify_from_file(config)
    from . import oracle

    report = oracle.verify_spectrum(config.spec, grid=config.grid, tol=config.tol)
    rows = [
        (r.e_closed.real + 0.0, r.e_closed.imag + 0.0, r.e_numeric.real + 0.0,
         r.e_numeric.imag + 0.0, r.abs_error + 0.0, str(r.matched).lower())
        for r in report.rows
    ]
    _emit(
        _csv_text("E_closed_re,E_closed_im,E_numeric_re,E_numeric_im,abs_error,matched",
                  "%.15g,%.15g,%.15g,%.15g,%.15g,%s", rows),
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
    """The x, re_psi, im_psi columns of a CSV written by `wavefunction`.

    Reading stops at the first row past MAX_PROFILE_POINTS, the largest
    profile `wavefunction` writes, so time and memory stay bounded.
    """
    xs, re_psi, im_psi = [], [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if len(xs) == MAX_PROFILE_POINTS:
                    raise InvalidSpec(
                        f"profile capped at {MAX_PROFILE_POINTS} points, {path} has more"
                    )
                xs.append(float(row["x"]))
                re_psi.append(float(row["re_psi"]))
                im_psi.append(float(row["im_psi"]))
    except (OSError, csv.Error, KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc
    import numpy as np

    columns = np.array([xs, re_psi, im_psi])
    if not np.isfinite(columns).all():
        raise InvalidSpec(f"{path} holds a non-finite x, re_psi or im_psi")
    return GridFunction(columns[0], columns[1] + 1j * columns[2])


def _verify_from_file(config: RunConfig) -> int:
    _, level = _level_for(config.spec, config.epsilon, config.n)
    psi = _read_profile(config.from_file)
    from . import oracle

    res = oracle.residual(psi, config.spec.potential, level.energy)
    ok = res < oracle.DEFAULT_RESIDUAL_TOL
    row = (level.energy.real + 0.0, level.energy.imag + 0.0, res + 0.0, str(ok).lower())
    _emit(
        _csv_text("E_closed_re,E_closed_im,residual,matched", "%.15g,%.15g,%.15g,%s", [row]),
        config.output,
    )
    return EXIT_OK if ok else EXIT_UNMATCHED


def _profile_text(xs, values) -> str:
    """The `wavefunction` CSV of a profile: x, Re psi and Im psi, one format call a row."""
    columns = [(column + 0.0).tolist() for column in (xs, values.real, values.imag)]
    return _csv_text("x,re_psi,im_psi", "%.15g,%.15g,%.15g", zip(*columns))


def cmd_wavefunction(config: RunConfig) -> int:
    sol, _ = _level_for(config.spec, config.epsilon, config.n)
    if config.grid.n_points > MAX_PROFILE_POINTS:
        raise InvalidSpec(
            f"profile capped at {MAX_PROFILE_POINTS} points, got {config.grid.n_points}")
    psi = tower_state(sol.realization, sol.m, config.n, config.grid.points)
    _emit(_profile_text(psi.xs, psi.values), config.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The parser of the four subcommands; each parses to its runner in `run`."""
    parser = argparse.ArgumentParser(
        prog="sl2spectra",
        description="Closed-form spectra of complexified solvable potentials, "
        "with an independent finite-difference verification oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    couplings = dict.fromkeys(f.name for cls in families.FAMILIES.values() for f in fields(cls))

    def command(name, run, summary, level=False):
        """A subcommand running run, with --family, every coupling and --output;
        a level command also takes the grid flags, --epsilon and --n."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--family", required=True, choices=list(families.FAMILIES))
        for coupling in couplings:
            p.add_argument("--" + coupling.replace("_", "-"), type=float, dest=coupling)
        p.add_argument("--output")
        if level:
            p.add_argument("--x-min", type=float)
            p.add_argument("--x-max", type=float)
            p.add_argument("--n-points", type=int)
            p.add_argument("--epsilon", type=int, choices=[1, -1])
            p.add_argument("--n", type=int)
        return p

    command("analyze", cmd_analyze, "closed-form spectrum report (JSON)")
    scan = command("scan", cmd_scan, "sweep a coupling and log the phase (CSV)")
    for flag in ("--start", "--stop", "--step"):
        scan.add_argument(flag, type=float, required=True)
    verify = command("verify", cmd_verify, "match closed forms against the grid oracle (CSV)",
                     level=True)
    verify.add_argument("--tol", type=float)
    verify.add_argument("--from-file",
                        help="re-ingest an exported wavefunction and check its residual")
    command("wavefunction", cmd_wavefunction, "export one bound profile (CSV)", level=True)
    return parser


def config_from_args(args) -> RunConfig:
    """The validated configuration of one call, read from the flags the module docstring lists."""
    cls = families.FAMILIES[args.family]
    given = {name: value for name, value in vars(args).items()
             if value is not None and name not in ("command", "run", "family")}
    call = f"{args.command} --family {args.family}"
    read = {"analyze": (), "scan": ("start", "stop", "step"),
            "wavefunction": ("x_min", "x_max", "n_points", "epsilon", "n"),
            "verify": ("x_min", "x_max", "n_points", "tol")}[args.command]
    if "from_file" in given:
        call, read = "verify --from-file", ("from_file", "epsilon", "n")
    couplings = [f.name for f in fields(cls)]
    swept = cls.sweep_field if args.command == "scan" else None
    unread = [name for name in given
              if name == swept or name not in ("output", *couplings, *read)]
    if unread:
        raise InvalidSpec(f"{call} does not read {_flags(unread)}")
    if swept:
        given[swept] = args.start
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in given]
    if missing:
        raise InvalidSpec(f"family {args.family!r} requires {_flags(missing)}")
    config = RunConfig(
        command=args.command,
        spec=cls(**{name: given[name] for name in couplings if name in given}),
        **{name: given[name] for name in ("epsilon", "n", "from_file", "output") if name in given},
    )
    if args.command == "scan":
        config.sweep = (args.start, args.stop, args.step)
    if "n_points" in read:  # wavefunction, and verify without --from-file
        from . import oracle

        x_min, x_max = config.spec.box
        config.grid = oracle.Grid(given.get("x_min", x_min), given.get("x_max", x_max),
                                  given.get("n_points", oracle.DEFAULT_GRID_N))
    if "tol" in read:
        config.tol = given.get("tol", oracle.DEFAULT_MATCH_TOL)
        if not (math.isfinite(config.tol) and config.tol > 0):
            raise InvalidSpec(f"--tol must be finite and positive, got {config.tol}")
    return config


def main(argv=None) -> int:
    # built per call, so each command runs the cmd_* function the module holds now
    args = build_parser().parse_args(argv)
    try:
        return args.run(config_from_args(args))
    except SpectraError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
