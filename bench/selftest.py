#!/usr/bin/env python3
"""Self-test of the benchmark harness on a tiny grid.

    python3 bench/selftest.py

For every workload in ``workloads.py`` and both trace settings it runs
``run.py --tiny`` and checks that the last output line is the result
object, that every end-to-end (``--trace 0``) or per-layer
(``--trace 1``) metric is emitted under its name with its unit, and that
the gate passed.  It also checks that the workloads of ``BENCHMARK.json``
are defined, with the same rationales, in ``workloads.py`` and that the
harness exits nonzero, printing no result, when the package sources are
absent.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def run(cwd: Path, script: Path, workload: str, trace: int):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, RUN, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace {trace}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        fail(f"{workload} trace {trace}: gate {record['failures']} {record['determinism_errors']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        fail(f"{workload} trace {trace}: metrics differ: "
             f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        value = got[m["name"]]
        if value["unit"] != m["unit"] or not math.isfinite(value["value"]):
            fail(f"{workload} trace {trace}: {m['name']} = {value}")
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "thread_env"):
        if key not in record["machine"]:
            fail(f"{workload}: machine fact {key} missing")
    print(f"ok   {workload} trace {trace}: {len(got)} metrics")


def check_without_sources(spec: dict, workload: str) -> None:
    """The benchmark alone, without src/, must fail without a result."""
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, tmp / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(tmp, tmp / RUN.relative_to(ROOT), workload, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print(f"ok   without sources: exit {proc.returncode}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if not set(names) <= set(workloads.WORKLOADS):
        fail(f"workloads {names} not all in {sorted(workloads.WORKLOADS)}")
    for w in spec["workloads"]:
        if w["why"] != workloads.WORKLOADS[w["name"]].why:
            fail(f"{w['name']}: why differs from workloads.py")
    # Every workload the harness defines, in BENCHMARK.json or not.
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_result(spec, name, trace)
    check_without_sources(spec, names[0])
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
