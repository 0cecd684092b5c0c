"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

Checks that every metric a run prints is declared in BENCHMARK.json, that the
traced self times add up to the traced op time, that compare mode flags a
synthetic regression, and that a run served from a result cache fails.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402

METRIC_LINE = re.compile(r"^  (\S+) = (\S+) (\S+)")


def run_bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_printed_metrics_are_declared(workload, trace):
    lines, result = run_bench(workload, trace)
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {m.group(1): m.group(3) for m in map(METRIC_LINE.match, lines) if m}
    assert printed == declared
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.op_s"], rel=1e-9)


def test_self_times_sum_to_op_time():
    tracer = Tracer()
    for _ in range(3):
        op = tracer.open("op")
        outer = tracer.open("outer")
        inner = tracer.open("inner")
        sum(range(1000))
        tracer.close(inner)
        tracer.close(tracer.open("sibling"))
        tracer.close(outer)
        tracer.close(op)
    self_times = tracer.self_times()
    assert set(self_times) == {"op", "outer", "inner", "sibling"}
    assert min(self_times.values()) >= 0.0
    assert sum(self_times.values()) == pytest.approx(tracer.total("op"), rel=1e-12)


def test_wrap_counts_each_error_once_and_restores():
    import types

    def inner():
        raise ValueError("boom")

    def outer():
        return module.inner()

    module = types.SimpleNamespace(inner=inner, outer=outer)
    tracer = Tracer()
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(module, "outer", "outer")
    op = tracer.open("op")
    with pytest.raises(ValueError):
        module.outer()
    tracer.close(op)
    tracer.restore()
    assert module.inner is inner and module.outer is outer
    assert tracer.counts["errors.raised"] == 1
    assert tracer.counts["errors.raised.other"] == 1
    assert [s.error for s in tracer.spans] == [None, "ValueError", "ValueError"]


class _Memoized:
    """A workload whose program answers repeats from a result cache."""

    def __init__(self):
        self.ops = [worker.Op(f"op/{i}", i) for i in range(4)]
        self.cache = {}

    def pass_ops(self, index):
        return self.ops

    def run_op(self, op, inprocess):
        if op.payload not in self.cache:
            time.sleep(0.002)
            self.cache[op.payload] = op.payload
        return self.cache[op.payload]

    def check(self, op, result):
        return worker.Outcome()


def test_cache_guard_fails_a_run_served_from_a_cache():
    run = worker.measure(_Memoized(), seconds=0.05, inprocess=True)
    assert run.passes > 1
    assert run.repeat_speedup > worker.CACHE_GUARD
    assert run.tally.correct is False


def _runs(workload: str, values: dict[str, list[float]]) -> list[str]:
    n = len(next(iter(values.values())))
    return [
        json.dumps({
            "provenance": {"workload": workload, "seed": seed, "trace": 0},
            "result": {"metrics": {k: {"value": v[seed], "unit": "x"} for k, v in values.items()}},
        })
        for seed in range(n)
    ]


def test_compare_flags_synthetic_regression(tmp_path, capsys):
    steady = [1.0 + 0.001 * d for d in (0, 1, -1, 0, 2, -2, 0, 1, -1, 0)]
    base = {m["name"]: steady for m in BENCH["end_to_end"]}
    head = dict(base, op_p50_s=[1.5 * v for v in steady])
    (tmp_path / "base.jsonl").write_text("\n".join(_runs("verify-dense", base)) + "\n")
    (tmp_path / "head.jsonl").write_text("\n".join(_runs("verify-dense", head)) + "\n")
    code = compare.main([str(tmp_path / "base.jsonl"), str(tmp_path / "head.jsonl")])
    out = capsys.readouterr().out
    verdicts = {line.split()[1]: line.split()[-1] for line in out.splitlines()[1:]}
    assert code == 1
    assert verdicts["op_p50_s"] == "worse"
    assert {v for k, v in verdicts.items() if k != "op_p50_s"} == {"unchanged"}


def test_compare_verdicts():
    metric = {"name": "op_p50_s", "better": "lower", "bound": 0.1}
    base = [1.0, 1.01, 0.99, 1.0]
    faster = [0.5, 0.51, 0.49, 0.5]
    assert compare.verdict(metric, base, faster, list(zip(base, faster))) == "better"
    noisy = [1.0, 2.0, 0.5, 1.5]
    assert compare.verdict(metric, noisy, base, list(zip(noisy, base))) == "unresolved"
    assert compare.verdict(metric, noisy, [0.1] * 4, list(zip(noisy, [0.1] * 4))) == "better"
