"""sl2spectra benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verify-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload cli-roundtrip --seed 1 --trace 1 --out runs.jsonl
    python3 perfbench/compare.py base.jsonl head.jsonl

Workloads: verify-dense, closed-form-sweep, cli-roundtrip (see worker.py and
the `why` of each in BENCHMARK.json).  The script starts worker.py to run
whole passes over the seeded op set for about --seconds, and times
set-up (interpreter, `import sl2spectra`, input generation) in fresh processes
before and after it; setup_s is the median of SETUP_REPEATS set-ups.  It
prints every metric with its unit, a provenance line (cores, BLAS, versions,
git sha, seed, case sizes) and, last, one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 reruns
the ops in-process with spans around each module's public functions and
reports the per-layer metrics, including the tracing overhead.  BLAS is held
to the number of cores this process may use.  --out appends the run, with its
provenance, to a JSON-lines file for compare.py.

Exit status: 0 when every output check passed, 1 when one failed (the result
is still printed), 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 8
# a measuring loop runs at least two passes (30-60 s for verify-dense and
# cli-roundtrip); the traced run adds process probes of a few seconds
PASS_AND_PROBE_MARGIN_S = 130


def child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    return {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
    }


def worker_argv(mode: str, args) -> list[str]:
    argv = [sys.executable, str(HERE / "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    return argv


def time_setup(args, repeats: int) -> list[float]:
    """Wall time from process start until the worker reports its inputs ready."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(worker_argv("setup", args), stdout=subprocess.PIPE,
                                env=child_env(), cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            code = proc.wait(timeout=60)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with exit {code}")
    return times


def run_worker(args) -> dict:
    argv = worker_argv("run", args) + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    # the traced run measures twice: an untraced reference loop, then the traced one
    timeout = (2 if args.trace else 1) * args.seconds + PASS_AND_PROBE_MARGIN_S
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker exceeded {timeout:g} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(bench: dict, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, help="append this run to a JSON-lines file")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes for the benchmark's own smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "sl2spectra").is_dir() or not bench_file.is_file():
        sys.stderr.write(f"error: no sl2spectra sources or BENCHMARK.json under {ROOT}\n")
        return 2
    bench = json.loads(bench_file.read_text())
    args = parse_args(bench, argv)
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    repeats = 0 if args.trace else 1 if args.tiny else SETUP_REPEATS // 2
    try:
        # set-ups on both sides of the run sample the machine as the run found it
        setup = time_setup(args, repeats)
        result = run_worker(args)
        setup += time_setup(args, repeats)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    if set(metrics) != set(declared):
        sys.stderr.write(f"error: metrics {sorted(set(metrics) ^ set(declared))} "
                         "do not match BENCHMARK.json\n")
        return 2

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        **result["provenance"],
    }
    print(f"workload {args.workload}  seed {args.seed}  ops {result['attempted']}  "
          f"failed {result['failed']}  correct {result['correct']}")
    for name in declared:
        extra = f"  (median of {len(setup)} set-ups)" if name == "setup_s" else ""
        if name in ("op_p50_s", "ops_per_s"):
            extra = (f"  ({result['timed_ops']} distinct ops, each the median of its "
                     f"calibrated repetitions over {result['passes']} passes)")
        print(f"  {name} = {metrics[name]:.6g} {declared[name]}{extra}")
    print(f"  (repeated ops ran {result['repeat_speedup']:.3f}x as fast as their first "
          "occurrence)")
    if args.trace and metrics["oracle.eigvals_s"] > 0:
        share = metrics["oracle.eigvals_s"] / metrics["trace.op_s"]
        print(f"  (oracle.eigvals_s is {share:.2%} of trace.op_s)")
    for note in result["notes"]:
        print(f"  note: {note}")
    print("provenance " + json.dumps(provenance, sort_keys=True))

    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": declared[n]} for n in declared},
    }
    if args.out:
        with args.out.open("a") as fh:
            fh.write(json.dumps({"provenance": provenance, "result": final}) + "\n")
    print(json.dumps(final))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
