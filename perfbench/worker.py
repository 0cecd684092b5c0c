"""Workload process of the sl2spectra benchmark.

`run.py` starts this file twice over: as `setup` (import the package, build
the inputs, report ready, exit) to time set-up, and as `run` to measure one
workload.  Every workload is a closed loop with one caller in one process:
each operation is issued only after the previous one has returned.

Workloads (inputs depend only on --seed; outputs are checked without trusting
the program's own verdicts):

verify-dense
    One in-process `oracle.verify_spectrum` per case on the family default
    boxes (plus the pinned criterion-1 box) at N = VERIFY_N points.  Checks:
    every row's e_closed equals -(m - n - 1/2)**2 from the solver's m, and the
    matched flags equal the reference recorded in goldens/verify_dense.json.
closed-form-sweep
    `analyze` -> `cli.report_document` -> `json.dumps(indent=2)` over seeded
    couplings drawn from a fixed pool (all four families, some with no regular
    branch), and `scan_threshold` sweeps across |v2| = v1 + 1/4 and
    delta' = gamma'.  Each pass draws a fresh sample from the pool, seeded by
    the run's seed and the pass number.  Checks: byte identity with
    goldens/closed_form.json, and, on the first occurrence of each document,
    the v1 JSON schema and each level energy recomputed from the document's m.
cli-roundtrip
    One `python -m sl2spectra.cli` subprocess per op: the README analyze/scan
    calls, `wavefunction --n-points 4001 --output` for the 12 emitted levels of
    the four default-box cases, `verify --from-file` on each exported file,
    and two bad inputs.  Checks: stdout, exported files and exit codes against
    goldens/cli_roundtrip.json; the bad inputs against the README contract
    (exit 2, no traceback, valid JSON).  `analyze --v1 1e300` is left out on
    purpose: it runs for more than 60 s and would stall the run.

Op times are calibrated wall times.  Other tenants of a shared host slow the
machine by up to ~2x for minutes at a time, longer than a run, so that no
repetition of an op in the run is fast.  A fixed pure-Python reference kernel,
which uses nothing of sl2spectra, runs in bursts between the ops, at least
every REF_EVERY_S.  Each op's wall time is scaled by REF_NOMINAL_S over the
median kernel time of the bursts just before and just after it: the op's time
at the speed at which the kernel takes REF_NOMINAL_S.  An op's time in the run
is the median of these, as a calibration error goes either way.  The kernel
tracks the interpreter best, so closed-form-sweep gains the most; for the
dense eigensolver and for subprocess start-up it takes out part of a slow
phase.  A change that slowed the interpreter itself, in this process,
would slow the kernel as well and would not show.

Every workload repeats its inputs over the passes of a run.  A result cache in
the program would turn the repeats into lookups that no user with fresh inputs
gets.  So a run whose repeats run more than CACHE_GUARD times as fast as the
first occurrences of the same ops (median repeat against first, summed over
ops) fails its check instead of reporting a speed-up.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
import weakref
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens"
sys.path.insert(0, str(ROOT / "src"))
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

from sl2spectra import algebra, cli, families, oracle, spectrum  # noqa: E402

from spans import ERROR_CATEGORIES, Tracer  # noqa: E402

# Untraced references to the functions the checks call, so that checking an
# output never opens a span when the program is instrumented.
_solve = families.solve

# The dense oracle at N = 3000 takes ~26 s per case on a 2-core box, so passes
# over five cases would not fit the benchmark's run budget.  At N = 1200 the
# eigensolve still takes more than 99 % of an op and every recorded verdict is
# unchanged (the pinned-box crossing rows still miss by 1.068e-3 > 1e-3).
VERIFY_N = 1200
TINY_VERIFY_N = 200
CLI_N_POINTS = "4001"
PROCESS_REPEATS = 5
# Co-tenants of a shared machine slow single passes by up to ~1.6x; a result
# cache makes repeats faster by orders of magnitude.
CACHE_GUARD = 3.0
# The kernel takes 0.13-0.25 ms on a 2-core Xeon VM.  A burst runs it at least
# REF_BURST times and for at least REF_SHARE of the time since the last burst,
# so that the long ops of verify-dense and cli-roundtrip get a steady
# reference too; bursts cost ~4 % of a closed-form-sweep run, ~2 % elsewhere.
REF_EVERY_S = 0.02
REF_BURST = 5
REF_SHARE = 0.02
REF_NOMINAL_S = 1.3e-4

POOL_SEED = 2002
POOL_ANALYZE = 4096
POOL_SCAN = 256
SAMPLE_ANALYZE = 512
SAMPLE_SCAN = 32


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def load_golden(name: str) -> dict:
    return json.loads((GOLDENS / name).read_text())


@dataclass
class Outcome:
    """Verdict of the benchmark's check on one op.

    ok: the op did what its contract says.  correct: the output equals the
    recorded reference, or the op reproduced a known, recorded defect.
    """

    ok: bool = True
    correct: bool = True
    verified: int = 0
    checked: int = 0
    error_max: float = 0.0
    note: str = ""


@dataclass
class Op:
    name: str
    payload: object


# ---------------------------------------------------------------- verify-dense

VERIFY_CASES = {
    "scarf-default": (families.ScarfSpec(9.75, 6.0), None),
    "scarf-box15": (families.ScarfSpec(9.75, 6.0), (-15.0, 15.0)),
    "scarf-broken": (families.ScarfSpec(0.0, 5.0), None),
    "gpt": (families.PoschlTellerSpec(9.75, 6.0, 0.0, math.pi / 8), None),
    "morse-ab": (families.MorseABSpec(1.0, 1.0, 3.0, 5.0), None),
}


def verify_grid(case: str, n_points: int) -> oracle.Grid:
    spec, box = VERIFY_CASES[case]
    if box is None:
        return oracle.default_grid(spec, n_points)
    return oracle.Grid(box[0], box[1], n_points)


class VerifyDense:
    name = "verify-dense"

    def __init__(self, seed: int, tiny: bool):
        self.io_bytes = Counter()
        self.n_points = TINY_VERIFY_N if tiny else VERIFY_N
        cases = list(VERIFY_CASES)
        random.Random(seed).shuffle(cases)
        self.ops = [Op(c, (VERIFY_CASES[c][0], verify_grid(c, self.n_points))) for c in cases]
        self.reference = load_golden("verify_dense.json")[str(self.n_points)]

    def run_op(self, op: Op, inprocess: bool):
        spec, grid = op.payload
        return oracle.verify_spectrum(spec, grid=grid)

    def pass_ops(self, index: int) -> list[Op]:
        return self.ops

    def check(self, op: Op, report) -> Outcome:
        spec, _ = op.payload
        m_of = {sol.epsilon: sol.m for sol in _solve(spec)}
        out = Outcome(checked=len(report.rows))
        for row in report.rows:
            expected = -((m_of[row.epsilon] - row.n - 0.5) ** 2)
            if abs(row.e_closed - expected) > 1e-12 * max(1.0, abs(expected)):
                out.correct, out.ok = False, False
                out.note = f"{op.name}: e_closed {row.e_closed} != {expected}"
        flags = [bool(r.matched) for r in report.rows]
        if flags != self.reference[op.name]:
            out.correct, out.ok = False, False
            out.note = f"{op.name}: matched flags {flags} != reference {self.reference[op.name]}"
        out.verified = sum(flags)
        matched_errors = [r.abs_error for r in report.rows if r.matched]
        out.error_max = max(matched_errors, default=0.0)
        return out

    def sizes(self) -> dict:
        levels = sum(len(self.reference[c]) for c in self.reference)
        return {"N": self.n_points, "specs": len(self.ops), "levels": levels}

    def instrument(self, tracer: Tracer) -> None:
        instrument_closed_form(tracer)
        instrument_oracle(tracer)


# ----------------------------------------------------------- closed-form-sweep


def _signed(rng: random.Random, value: float) -> float:
    return value if rng.random() < 0.5 else -value


def analyze_pool() -> list:
    """The fixed pool of analyze specs the runs sample from (goldens index it)."""
    rng = random.Random(POOL_SEED)
    pool = []
    for i in range(POOL_ANALYZE):
        family = i % 4
        if family in (0, 1):
            v1 = 0.0 if rng.random() < 0.1 else round(10 ** rng.uniform(-2.0, 2.6), 4)
            if family == 1:
                v1 = round(v1 - 0.2, 4)
            # |v2| relative to the critical coupling: both phases, and small
            # couplings with no regular branch
            v2 = _signed(rng, max(1e-4, round(rng.uniform(0.02, 2.0) * (v1 + 0.25), 4)))
            if family == 0:
                pool.append(families.ScarfSpec(v1, v2))
            else:
                gamma = _signed(rng, round(rng.uniform(0.05, 0.75), 4))
                pool.append(families.PoschlTellerSpec(v1, v2, round(rng.uniform(-2, 2), 4), gamma))
        elif family == 2:
            pool.append(
                families.MorseSpec(
                    round(rng.uniform(-10, 10), 4),
                    _signed(rng, round(rng.uniform(0.1, 10), 4)),
                    round(rng.uniform(-10, 10), 4),
                    round(rng.uniform(-10, 10), 4),
                )
            )
        else:
            gamma_p = round(rng.uniform(0, 8), 4)
            delta_p = gamma_p if rng.random() < 0.25 else round(rng.uniform(0, 8), 4)
            pool.append(
                families.MorseABSpec(
                    round(rng.uniform(0.2, 3), 4),
                    _signed(rng, round(rng.uniform(0.2, 3), 4)),
                    gamma_p,
                    delta_p,
                )
            )
    return pool


def scan_pool() -> list:
    """Fixed pool of (base spec, start, stop, step) sweeps across each threshold."""
    rng = random.Random(POOL_SEED + 1)
    pool = []
    for i in range(POOL_SCAN):
        family = i % 3
        if family < 2:
            v1 = round(10 ** rng.uniform(-1.0, 2.0), 4)
            threshold = v1 + 0.25
            half = round(rng.uniform(0.2, 0.6) * threshold, 4)
            start, stop, step = threshold - half, threshold + half, half / 20
            if family == 0:
                base = families.ScarfSpec(v1, start)
            else:
                gamma = _signed(rng, round(rng.uniform(0.05, 0.75), 4))
                base = families.PoschlTellerSpec(v1, start, 0.0, gamma)
        else:
            gamma_p = round(rng.uniform(1.5, 6), 4)
            half = round(rng.uniform(0.5, 2), 4)
            start, stop, step = gamma_p - half, gamma_p + half, half / 20
            base = families.MorseABSpec(
                round(rng.uniform(0.2, 3), 4), _signed(rng, round(rng.uniform(0.2, 3), 4)),
                gamma_p, start,
            )
        pool.append((base, start, stop, step))
    return pool


def closed_form_output(kind: str, payload) -> tuple[int, str]:
    """One closed-form op, through the same code path as `sl2spectra analyze|scan`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if kind == "analyze":
            code = cli.cmd_analyze(cli.RunConfig(command="analyze", spec=payload))
        else:
            base, start, stop, step = payload
            code = cli.cmd_scan(cli.RunConfig(command="scan", spec=base, sweep=(start, stop, step)))
    return code, buf.getvalue()


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


def confirmed_levels(doc: dict) -> tuple[int, int]:
    """(levels checked, levels whose energy equals -(m - n - 1/2)**2 from the doc's m)."""
    checked = confirmed = 0
    for branch in doc["branches"]:
        m = complex(branch["m_re"], branch["m_im"])
        for level in branch["levels"]:
            expected = -((m - level["n"] - 0.5) ** 2)
            got = complex(*level["energy"])
            checked += 1
            confirmed += abs(got - expected) <= 1e-10 * max(1.0, abs(expected))
    return checked, confirmed


class ClosedFormSweep:
    name = "closed-form-sweep"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.n_analyze, self.n_scan = (32, 4) if tiny else (SAMPLE_ANALYZE, SAMPLE_SCAN)
        self.pools = {"analyze": analyze_pool(), "scan": scan_pool()}
        self.golden = load_golden("closed_form.json")
        self.validator = None
        # analyze index -> verdict of the schema and level checks on its document
        self.verdicts: dict[int, Outcome] = {}
        self.levels = 0
        self.io_bytes = Counter()

    def pass_ops(self, index: int) -> list[Op]:
        """A fresh sample of the pools, seeded by the run's seed and the pass number."""
        rng = random.Random(f"{self.seed}:{index}")
        ops = [Op(f"{kind}/{i}", (kind, i, self.pools[kind][i]))
               for kind, n in (("analyze", self.n_analyze), ("scan", self.n_scan))
               for i in rng.sample(range(len(self.pools[kind])), n)]
        rng.shuffle(ops)
        return ops

    def run_op(self, op: Op, inprocess: bool):
        kind, _, payload = op.payload
        return closed_form_output(kind, payload)

    def check(self, op: Op, result) -> Outcome:
        kind, index, _ = op.payload
        code, text = result
        self.io_bytes["cli.bytes_out"] += len(text.encode("utf-8"))
        if f"{code}:{digest(text)}" != self.golden[kind][index]:
            return Outcome(ok=False, correct=False, note=f"{op.name}: output differs from golden")
        if kind == "scan":
            return Outcome()
        if index in self.verdicts:
            seen = self.verdicts[index]
            return Outcome(ok=seen.ok, correct=seen.correct, note=seen.note)
        self.verdicts[index] = outcome = self.check_document(op.name, text)
        return outcome

    def check_document(self, name: str, text: str) -> Outcome:
        """Schema and level checks of one analyze document."""
        if self.validator is None:
            import jsonschema

            schema = json.loads((ROOT / "src/sl2spectra/schemas/spectrum_report.v1.json").read_text())
            self.validator = jsonschema.validators.validator_for(schema)(schema)
        try:
            doc = _strict_json(text)
        except ValueError as exc:
            return Outcome(ok=False, correct=False, note=f"{name}: {exc}")
        errors = [e.message for e in self.validator.iter_errors(doc)]
        checked, confirmed = confirmed_levels(doc)
        self.levels += checked
        return Outcome(ok=not errors, correct=not errors, verified=confirmed, checked=checked,
                       note=f"{name}: {errors[0]}" if errors else "")

    def sizes(self) -> dict:
        return {"specs_per_pass": self.n_analyze, "scans_per_pass": self.n_scan,
                "pool_specs": len(self.pools["analyze"]), "pool_scans": len(self.pools["scan"]),
                "specs_checked": len(self.verdicts), "levels": self.levels}

    def instrument(self, tracer: Tracer) -> None:
        instrument_closed_form(tracer)
        instrument_oracle(tracer)
        instrument_cli(tracer)


# --------------------------------------------------------------- cli-roundtrip

CLI_SPECS = {
    "scarf-default": ["--family", "scarf2", "--v1", "9.75", "--v2", "6"],
    "scarf-broken": ["--family", "scarf2", "--v1", "0", "--v2", "5"],
    "gpt": ["--family", "poschl-teller", "--v1", "9.75", "--v2", "6"],
    "morse-ab": ["--family", "morse-ab", "--A", "1", "--B", "1", "--gamma-p", "3", "--delta-p", "5"],
}
# every level the four default-box cases emit, as (epsilon, n)
CLI_LEVELS = {
    "scarf-default": [(1, 0), (1, 1), (1, 2), (-1, 0)],
    "scarf-broken": [(1, 0), (-1, 0)],
    "gpt": [(1, 0), (1, 1), (1, 2), (-1, 0)],
    "morse-ab": [(1, 0), (1, 1)],
}
README_OPS = {
    "analyze-scarf2": ["analyze", "--family", "scarf2", "--v1", "9.75", "--v2", "6"],
    "analyze-morse-ab": ["analyze", "--family", "morse-ab", "--A", "1", "--B", "1",
                         "--gamma-p", "3", "--delta-p", "3"],
    "scan-scarf2": ["scan", "--family", "scarf2", "--v1", "1", "--start", "0.1",
                    "--stop", "2.5", "--step", "0.05"],
}
BAD_OPS = {
    "bad-missing-file": ["verify", *CLI_SPECS["scarf-default"], "--from-file",
                         "{work}/missing.csv", "--epsilon", "1", "--n", "0"],
    "bad-v2-nan": ["analyze", "--family", "scarf2", "--v1", "9.75", "--v2", "nan"],
}


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: str


def known_defect(name: str, r: CliResult) -> bool:
    """The behaviour of each bad input at the commit the benchmark was defined on."""
    if name == "bad-missing-file":
        return r.code == 1 and "FileNotFoundError" in r.stderr
    return r.code == 3 and b"NaN" in r.stdout


def meets_contract(r: CliResult) -> bool:
    """README/ROADMAP contract for bad input: exit 2, no traceback, no invalid JSON."""
    if r.code != 2 or "Traceback" in r.stderr:
        return False
    if r.stdout.strip():
        try:
            _strict_json(r.stdout.decode("utf-8"))
        except ValueError:
            return False
    return True


def cli_ops(tiny: bool) -> list[Op]:
    """The op set of one pass, in a fixed order; the run shuffles it."""
    ops = [Op(name, argv) for name, argv in {**README_OPS, **BAD_OPS}.items()]
    for case, levels in CLI_LEVELS.items():
        for eps, n in levels[:1] if tiny else levels:
            tag = f"{case}-e{eps}-n{n}"
            where = ["--epsilon", str(eps), "--n", str(n)]
            ops.append(Op(f"wavefunction/{tag}", ["wavefunction", *CLI_SPECS[case], *where,
                                                  "--n-points", CLI_N_POINTS,
                                                  "--output", f"{{work}}/{tag}.csv"]))
            ops.append(Op(f"verify-file/{tag}", ["verify", *CLI_SPECS[case], *where,
                                                 "--from-file", f"{{work}}/{tag}.csv"]))
        if tiny:
            break
    return ops


def _order_respecting_files(ops: list[Op], rng: random.Random) -> list[Op]:
    """A seeded order in which each file is written before it is read back."""
    ops = ops[:]
    rng.shuffle(ops)
    pos = {op.name: i for i, op in enumerate(ops)}
    for op in list(ops):
        if op.name.startswith("verify-file/"):
            i, j = pos[op.name], pos["wavefunction/" + op.name.split("/", 1)[1]]
            if i < j:
                ops[i], ops[j] = ops[j], ops[i]
                pos[ops[i].name], pos[ops[j].name] = i, j
    return ops


def run_cli_subprocess(argv: list[str]) -> CliResult:
    proc = subprocess.run(
        [sys.executable, "-m", "sl2spectra.cli", *argv],
        capture_output=True, timeout=120, cwd=ROOT, env=CHILD_ENV,
    )
    return CliResult(proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace"))


def with_work_dir(argv: list[str], work: Path) -> list[str]:
    return [a.replace("{work}", str(work)) for a in argv]


def run_cli_inprocess(argv: list[str]) -> CliResult:
    """cli.main in this process; an escaping exception ends like the interpreter's."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return CliResult(code, out.getvalue().encode("utf-8"), err.getvalue())


def remove_work_dir(work: Path) -> None:
    if work.exists():
        for path in work.iterdir():
            path.unlink()
        work.rmdir()
    with contextlib.suppress(OSError):
        work.parent.rmdir()


class CliRoundtrip:
    name = "cli-roundtrip"

    def __init__(self, seed: int, tiny: bool):
        self.work = ROOT / ".perfbench-tmp" / str(os.getpid())
        self.ops = _order_respecting_files(cli_ops(tiny), random.Random(seed))
        self.golden = load_golden("cli_roundtrip.json")
        self.io_bytes = Counter()

    def argv(self, op: Op) -> list[str]:
        return with_work_dir(op.payload, self.work)

    def pass_ops(self, index: int) -> list[Op]:
        return self.ops

    def run_op(self, op: Op, inprocess: bool) -> CliResult:
        self.work.mkdir(parents=True, exist_ok=True)
        return (run_cli_inprocess if inprocess else run_cli_subprocess)(self.argv(op))

    def check(self, op: Op, r: CliResult) -> Outcome:
        argv = self.argv(op)
        self.io_bytes["cli.bytes_out"] += len(r.stdout)
        if op.name in BAD_OPS:
            if meets_contract(r):
                return Outcome()
            if known_defect(op.name, r):
                return Outcome(ok=False, note=f"{op.name}: known defect, exit {r.code}")
            return Outcome(ok=False, correct=False, note=f"{op.name}: exit {r.code}, {r.stderr[-200:]!r}")
        want = self.golden[op.name]
        got = {"exit": r.code, "stdout": digest(r.stdout)}
        if op.name.startswith("wavefunction/"):
            path = Path(argv[argv.index("--output") + 1])
            data = path.read_bytes() if path.exists() else None
            got["file"] = None if data is None else digest(data)
            self.io_bytes["cli.bytes_out"] += len(data or b"")
        if got != want:
            return Outcome(ok=False, correct=False, note=f"{op.name}: {got} != golden {want}")
        if op.name.startswith("verify-file/"):
            self.io_bytes["cli.bytes_in"] += Path(argv[argv.index("--from-file") + 1]).stat().st_size
            row = next(csv.DictReader(io.StringIO(r.stdout.decode("utf-8"))))
            return Outcome(verified=int(row["matched"] == "true"), checked=1)
        return Outcome()

    def cleanup(self) -> None:
        remove_work_dir(self.work)

    def sizes(self) -> dict:
        n_files = sum(op.name.startswith("wavefunction/") for op in self.ops)
        return {"ops": len(self.ops), "levels": n_files, "n_points": int(CLI_N_POINTS)}

    def instrument(self, tracer: Tracer) -> None:
        instrument_closed_form(tracer)
        instrument_oracle(tracer)
        instrument_cli(tracer)
        tracer.wrap(cli, "main", "cli.main")
        tracer.wrap(cli, "cmd_verify", "cli.cmd_verify")
        tracer.wrap(cli, "cmd_wavefunction", "cli.cmd_wavefunction")
        tracer.wrap(cli, "tower_state", "algebra.tower_state")
        tracer.wrap(algebra, "apply_ladder", "algebra.apply_ladder", span=False,
                    after=lambda t, a, r: t.counts.update(["algebra.apply_ladder_calls"]))


WORKLOADS = {w.name: w for w in (VerifyDense, ClosedFormSweep, CliRoundtrip)}


# ------------------------------------------------------------ instrumentation


def _count(key: str, amount):
    return lambda tracer, args, result: tracer.counts.update({key: amount(args, result)})


def instrument_closed_form(tracer: Tracer) -> None:
    tracer.wrap(families, "solve", "families.solve", after=_count("families.solve_calls", lambda a, r: 1))
    tracer.wrap(spectrum, "classify", "spectrum.classify")
    tracer.wrap(spectrum, "enumerate_levels", "spectrum.enumerate_levels",
                after=_count("spectrum.levels_emitted", lambda a, r: len(r)))
    tracer.wrap(spectrum, "is_pt_symmetric", "spectrum.is_pt_symmetric")
    tracer.wrap(spectrum, "scan_threshold", "spectrum.scan_threshold",
                after=_count("spectrum.scan_rows", lambda a, r: len(r)))


def instrument_cli(tracer: Tracer) -> None:
    # a copy of the json module stands in for it inside cli, so that only the
    # serialisation of CLI documents is timed
    traced_json = types.ModuleType("json")
    traced_json.__dict__.update(vars(json))
    tracer.wrap(traced_json, "dumps", "cli.serialize")
    tracer.replace(cli, "json", traced_json)
    tracer.wrap(cli, "report_document", "cli.report_document")
    tracer.wrap(cli, "cmd_analyze", "cli.cmd_analyze")
    tracer.wrap(cli, "cmd_scan", "cli.cmd_scan")


def instrument_oracle(tracer: Tracer) -> None:
    # eigenvector indices already computed, per Eigendata (vector() caches them)
    probed = weakref.WeakKeyDictionary()

    def on_vector(t, args, result):
        t.counts["oracle.vector_calls"] += 1
        seen = probed.setdefault(args[0], set())
        if args[1] not in seen:
            seen.add(args[1])
            t.counts["oracle.vector_probes"] += 1

    def on_match(t, args, report):
        t.counts["oracle.matched_levels"] += sum(bool(r.matched) for r in report.rows)

    def on_eigvals(t, args, result):
        n = args[0].shape[0]
        t.counts["oracle.eigvals_calls"] += 1
        t.counts["oracle.eigvals_n_total"] += n
        # LAPACK working note 41 estimate for eigenvalues only of a general
        # matrix, ~10 n^3 real flops, times 4 for complex arithmetic
        t.counts["oracle.eigvals_flops_computed"] += 40 * n**3

    tracer.wrap(oracle, "discretize", "oracle.discretize",
                after=_count("oracle.discretize_bytes_computed", lambda a, r: r.nbytes))
    tracer.wrap(oracle, "banded_form", "oracle.banded_form")
    tracer.wrap(oracle, "eigvals_complex", "oracle.eigvals_complex", after=on_eigvals)
    tracer.wrap(oracle.Eigendata, "vector", "oracle.vector", after=on_vector)
    tracer.wrap(oracle, "match_levels", "oracle.match_levels", after=on_match)
    tracer.wrap(oracle, "residual", "oracle.residual",
                after=_count("oracle.residual_points", lambda a, r: a[0].xs.size))


# ------------------------------------------------------------------- measuring


@dataclass
class Tally:
    """Running totals of the checks, so that bookkeeping does not grow with the op count."""

    ops: int = 0
    ok: int = 0
    correct: bool = True
    verified: int = 0
    checked: int = 0
    error_max: float = 0.0
    notes: set = field(default_factory=set)

    def add(self, o: Outcome) -> None:
        self.ops += 1
        self.ok += o.ok
        self.correct &= o.correct
        self.verified += o.verified
        self.checked += o.checked
        self.error_max = max(self.error_max, o.error_max)
        if o.note:
            self.notes.add(o.note)


def reference_kernel() -> int:
    """Fixed pure-Python work like a closed-form op's, without sl2spectra."""
    levels = []
    for k in range(16):
        m = cmath.sqrt(complex(k + 0.25, 0.5 * k))
        e = -((m - k - 0.5) ** 2)
        levels.append({"n": k, "energy": [e.real, e.imag], "pt": abs(e.imag) < 1e-9})
    return len(json.dumps({"family": "reference", "levels": levels}, indent=2))


def reference_burst(min_s: float) -> list[float]:
    times = []
    start = time.perf_counter()
    while len(times) < REF_BURST or time.perf_counter() - start < min_s:
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return times


@dataclass
class Run:
    per_op: dict[str, float]  # each op's median calibrated repetition over the run
    total_s: float  # wall time of all ops
    passes: int
    tally: Tally
    peak_rss_mb: float
    repeat_speedup: float  # first occurrences over median repeats, of repeated ops


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, seconds: float, inprocess: bool, tracer: Tracer | None = None) -> Run:
    """Run whole passes over the op set for about `seconds`.

    The loop starts no pass that the last one says would end past `seconds`,
    once two passes have run: the per-op times and the cache guard need repeats.
    """
    # calibrated op times, packed so that memory grows little with the op count
    times: dict[str, array] = {}
    pending: list[tuple[str, float]] = []  # ops since the last reference burst
    burst, burst_at = reference_burst(0.0), time.perf_counter()

    def calibrate() -> None:
        nonlocal burst, burst_at
        after = reference_burst(REF_SHARE * (time.perf_counter() - burst_at))
        scale = REF_NOMINAL_S / statistics.median(burst + after)
        burst, burst_at = after, time.perf_counter()
        for name, elapsed in pending:
            times.setdefault(name, array("d")).append(elapsed * scale)
        pending.clear()

    total, passes, tally = 0.0, 0, Tally()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in wl.pass_ops(passes):
            if time.perf_counter() - burst_at >= REF_EVERY_S:
                calibrate()
            span = tracer.open("op") if tracer else None
            t0 = time.perf_counter()
            result = wl.run_op(op, inprocess)
            elapsed = time.perf_counter() - t0
            if span is not None:
                tracer.close(span)
            pending.append((op.name, elapsed))
            total += elapsed
            tally.add(wl.check(op, result))
        passes += 1
        now = time.perf_counter()
        if passes >= 2 and (now - start) + (now - pass_start) > seconds:
            break
    calibrate()
    rss = peak_rss_mb(children=isinstance(wl, CliRoundtrip) and not inprocess)
    # medians, not minima, of the repeats, so that more samples alone do not
    # make the repeats look faster
    repeated = [t for t in times.values() if len(t) > 1]
    speedup = 1.0
    if repeated:
        speedup = sum(t[0] for t in repeated) / sum(statistics.median(t[1:]) for t in repeated)
    if speedup > CACHE_GUARD:
        tally.correct = False
        tally.notes.add(f"repeated ops ran {speedup:.1f}x faster than their first occurrence "
                        f"(guard {CACHE_GUARD}x): a result cache, which fresh inputs would miss")
    per_op = {name: statistics.median(t) for name, t in times.items()}
    return Run(per_op, total, passes, tally, rss, speedup)


def summarize(r: Run) -> dict:
    """End-to-end metrics of one untraced run.

    op_p50_s is the median of the per-op times over the distinct ops of the
    run; ops_per_s is their number over their sum.
    """
    t = r.tally
    per_op = list(r.per_op.values())
    return {
        "op_p50_s": statistics.median(per_op),
        "ops_per_s": len(per_op) / sum(per_op),
        "peak_rss_mb": r.peak_rss_mb,
        "ok_frac": t.ok / t.ops,
        "verified_frac": t.verified / t.checked,
    }


def process_metrics(repeats: int) -> dict:
    """Interpreter start-up, and import time of the package, in fresh processes."""
    probe = ("import time; t = time.perf_counter(); import sl2spectra; "
             "print(time.perf_counter() - t)")
    startup, imports = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT, env=CHILD_ENV,
                       timeout=120)
        startup.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                             cwd=ROOT, env=CHILD_ENV, timeout=120, text=True).stdout
        imports.append(float(out))
    return {"process.startup_s": statistics.median(startup),
            "process.import_s": statistics.median(imports)}


PER_OP_SPANS = {
    "oracle.eigvals_s": ["oracle.eigvals_complex"],
    "oracle.discretize_s": ["oracle.discretize"],
    "oracle.banded_form_s": ["oracle.banded_form"],
    "oracle.vector_s": ["oracle.vector"],
    "oracle.match_levels_s": ["oracle.match_levels"],
    "oracle.residual_s": ["oracle.residual"],
    "families.solve_s": ["families.solve"],
    "spectrum.enumerate_levels_s": ["spectrum.enumerate_levels"],
    "spectrum.classify_s": ["spectrum.classify"],
    "spectrum.is_pt_symmetric_s": ["spectrum.is_pt_symmetric"],
    "spectrum.scan_threshold_s": ["spectrum.scan_threshold"],
    "cli.report_document_s": ["cli.report_document"],
    "cli.serialize_s": ["cli.serialize"],
    "cli.self_s": ["cli.main", "cli.cmd_analyze", "cli.cmd_scan", "cli.cmd_verify",
                   "cli.cmd_wavefunction"],
    "algebra.tower_state_s": ["algebra.tower_state"],
}
PER_OP_COUNTS = [
    "oracle.eigvals_flops_computed", "oracle.discretize_bytes_computed", "oracle.vector_calls",
    "oracle.residual_points", "families.solve_calls", "spectrum.levels_emitted",
    "spectrum.scan_rows", "cli.bytes_out", "cli.bytes_in", "algebra.apply_ladder_calls",
    "errors.raised", *("errors.raised." + c for c in ERROR_CATEGORIES),
]


def layer_metrics(tracer: Tracer, traced: Run, untraced: Run) -> dict:
    """Per-op self times and counts of each layer, from one traced pass."""
    n_ops = traced.tally.ops
    self_times = tracer.self_times()
    out = {}
    for metric, names in PER_OP_SPANS.items():
        out[metric] = sum(self_times.get(n, 0.0) for n in names) / n_ops
    for key in PER_OP_COUNTS:
        out[key] = tracer.counts[key] / n_ops
    calls = tracer.counts["oracle.eigvals_calls"]
    out["oracle.eigvals_n"] = tracer.counts["oracle.eigvals_n_total"] / calls if calls else 0.0
    probes = tracer.counts["oracle.vector_probes"]
    out["oracle.probe_yield"] = tracer.counts["oracle.matched_levels"] / probes if probes else 0.0
    out["oracle.error_max"] = traced.tally.error_max
    traced_op = tracer.total("op") / n_ops
    untraced_op = untraced.total_s / untraced.tally.ops
    out["trace.op_s"] = traced_op
    out["trace.self_sum_s"] = sum(self_times.values()) / n_ops
    out["trace.untraced_op_s"] = untraced_op
    out["trace.overhead_frac"] = traced_op / untraced_op - 1.0
    return out


def provenance(wl) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": f"{blas['name']} {blas.get('version', '?')}",
                 "scipy": f"{scipy_blas['name']} {scipy_blas.get('version', '?')}",
                 "threads": blas_threads()},
        "sizes": wl.sizes(),
    }


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return out
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[Path(path).name] = int(getattr(lib, sym)())
                break
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    wl = WORKLOADS[workload](seed, tiny)
    try:
        if not trace:
            p = measure(wl, seconds, inprocess=False)
            metrics = summarize(p)
        else:
            # the untraced reference pass takes the same in-process path as the
            # traced one, so their difference is the tracing overhead alone
            untraced = measure(wl, seconds, inprocess=True)
            tracer = Tracer()
            wl.io_bytes.clear()
            wl.instrument(tracer)
            try:
                p = measure(wl, seconds, inprocess=True, tracer=tracer)
            finally:
                tracer.restore()
            if any(s.parent is None and s.name != "op" for s in tracer.spans):
                raise RuntimeError("a traced call ran outside any op")
            tracer.counts.update(wl.io_bytes)
            metrics = layer_metrics(tracer, p, untraced)
            metrics.update(process_metrics(1 if tiny else PROCESS_REPEATS))
    finally:
        if isinstance(wl, CliRoundtrip):
            wl.cleanup()
    return {
        "correct": p.tally.correct,
        "attempted": p.tally.ops,
        "failed": p.tally.ops - p.tally.ok,
        "passes": p.passes,
        "timed_ops": len(p.per_op),
        "repeat_speedup": p.repeat_speedup,
        "metrics": metrics,
        "notes": sorted(p.tally.notes),
        "provenance": provenance(wl),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        WORKLOADS[args.workload](args.seed, args.tiny)
        print("ready", flush=True)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
