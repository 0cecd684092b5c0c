"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

rewrites perfbench/goldens/*.json from the program at the current commit:
the matched flags of every verify-dense case, the exit code and output digest
of every closed-form pool entry, and the exit code, stdout digest and exported
file digest of every cli-roundtrip op.  Re-record only when an output change
is intended; a refactor that must keep outputs byte for byte should pass the
benchmark against the goldens as they are.
"""

from __future__ import annotations

import json

import worker


def write(name: str, data) -> None:
    path = worker.GOLDENS / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def record_verify_dense() -> dict:
    out = {}
    for n_points in (worker.VERIFY_N, worker.TINY_VERIFY_N):
        out[str(n_points)] = {
            case: [bool(r.matched) for r in worker.oracle.verify_spectrum(
                spec, grid=worker.verify_grid(case, n_points)).rows]
            for case, (spec, _) in worker.VERIFY_CASES.items()
        }
    return out


def record_closed_form() -> dict:
    out = {"pool_seed": worker.POOL_SEED}
    for kind, pool in (("analyze", worker.analyze_pool()), ("scan", worker.scan_pool())):
        out[kind] = []
        for payload in pool:
            code, text = worker.closed_form_output(kind, payload)
            out[kind].append(f"{code}:{worker.digest(text)}")
    return out


def record_cli_roundtrip() -> dict:
    work = worker.ROOT / ".perfbench-tmp" / "record"
    work.mkdir(parents=True, exist_ok=True)
    ops = sorted(worker.cli_ops(tiny=False), key=lambda op: not op.name.startswith("wavefunction/"))
    out = {}
    try:
        for op in ops:  # files are written before they are read back
            if op.name in worker.BAD_OPS:
                continue
            argv = worker.with_work_dir(op.payload, work)
            r = worker.run_cli_subprocess(argv)
            entry = {"exit": r.code, "stdout": worker.digest(r.stdout)}
            if op.name.startswith("wavefunction/"):
                with open(argv[argv.index("--output") + 1], "rb") as fh:
                    entry["file"] = worker.digest(fh.read())
            out[op.name] = entry
    finally:
        worker.remove_work_dir(work)
    return out


def main() -> None:
    write("closed_form.json", record_closed_form())
    write("cli_roundtrip.json", record_cli_roundtrip())
    write("verify_dense.json", record_verify_dense())


if __name__ == "__main__":
    main()
