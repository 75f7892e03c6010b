#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for robustdeblur.

Run from the repository root:

    python3 bench/run.py --workload solve-ash256-precond --seed 1 --seconds 55 --trace 0

``--trace 0`` times the operations with tracing off and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics from spans around the calls
into each module (see ``tracing.py``).  Every operation passes the
correctness gate in ``workloads.py`` or counts as failed.  ``wall_s`` and
``setup_s`` are given at a nominal host speed (see ``Reference``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full record: machine facts, samples, exact counts and errors.
Spans of the traced run go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Each workload is single-threaded; BLAS/OpenMP pools sized by default to
# the core count made the 3-frame solve slower and noisier on a 2-core box.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

SETUP_REPS = 7  # fresh processes per run measuring setup_s
MIN_OPS = 3  # timed operations per untraced run, at least

# Host-speed reference.  The shared host's speed drifts by up to 2x over
# seconds to minutes, so a run's raw medians depend on when it ran.  After
# each operation and each setup process the harness times a fixed reference
# kernel, numpy FFT round trips of a 64x64 grid that call nothing from the
# package, and reports wall_s and setup_s as
#     raw median * REF_NOMINAL_S / median reference sample,
# that is, in seconds at the host speed where one sample takes
# REF_NOMINAL_S.  On a 2-vCPU Xeon VM, in sets of ten seeded runs whose
# raw medians spread (quartile distance over median) by 11-30%, the
# rescaled ones spread by 7-20%.
REF_GRID = 64
REF_REPS = 500  # round trips per reference sample
REF_SHARE = 0.05  # reference seconds per second measured, at least one sample
REF_NOMINAL_S = 0.055  # one sample on a 2-vCPU Xeon VM in a fast phase

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "rel_error": "ratio",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "gridfft.transforms": "count",
    "gridfft.mults": "count",
    "gridfft.adds": "count",
    "gridfft.dft2.calls": "count",
    "gridfft.dft2.self_s": "s",
    "gridfft.idft2.calls": "count",
    "gridfft.idft2.self_s": "s",
    "gridfft.bytes_computed": "B",
    "gridfft.self_s": "s",
    "operators.hessian_apply.calls": "count",
    "operators.hessian_apply.total_s": "s",
    "operators.hessian_apply.self_s": "s",
    "operators.apply.calls": "count",
    "operators.apply.total_s": "s",
    "operators.apply_adjoint.calls": "count",
    "operators.apply_adjoint.total_s": "s",
    "operators.self_s": "s",
    "objective.value.calls": "count",
    "objective.value.total_s": "s",
    "objective.gradient.calls": "count",
    "objective.gradient.total_s": "s",
    "objective.hessian_weights.calls": "count",
    "objective.hessian_weights.total_s": "s",
    "objective.applies_per_step": "1/step",
    "objective.saturated_frac": "ratio",
    "objective.self_s": "s",
    "precond.build.calls": "count",
    "precond.build.total_s": "s",
    "precond.solve.calls": "count",
    "precond.solve.total_s": "s",
    "precond.self_s": "s",
    "solver.newton_iters": "count",
    "solver.pcg_iters": "count",
    "solver.pcg.self_s": "s",
    "solver.linesearch.evals_per_step": "1/step",
    "solver.nonconverged": "count",
    "solver.self_s": "s",
    "gcv.evaluations": "count",
    "gcv.trace_term.total_s": "s",
    "gcv.trace_term.pcg_iters": "count",
    "gcv.unreliable": "count",
    "gcv.self_s": "s",
    "testbed.make_instance_s": "s",
    "testbed.self_s": "s",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly across repetitions and traced/untraced runs.
EXACT = (
    "transforms",
    "mults",
    "adds",
    "newton_iters",
    "pcg_iters",
    "gcv_evaluations",
    "nonconverged",
)


def pin_threads() -> dict:
    """Pin this process's (and its children's) thread pools to one thread."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_package():
    """Import robustdeblur from this checkout's ``src`` and the workloads.

    Exits 2 when the sources are absent.  Call after :func:`pin_threads`,
    since both modules import numpy.
    """
    if not (SRC / "robustdeblur" / "__init__.py").is_file():
        print(f"error: no robustdeblur sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import robustdeblur
    import workloads

    return robustdeblur, workloads


def openblas_threads():
    """Thread count OpenBLAS reports for this process, or None if not found."""
    import ctypes
    import glob

    import numpy

    site = Path(numpy.__file__).parent.parent
    for lib in sorted(glob.glob(str(site / "*.libs" / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return {"library": Path(lib).name, "threads": int(fn())}
    return None


def machine_facts(thread_env: dict) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(affinity) if affinity is not None else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": thread_env,
        "openblas": openblas_threads(),
    }


class Reference:
    """Samples of the reference kernel taken through one run."""

    def __init__(self):
        import numpy as np

        self.fft2, self.ifft2 = np.fft.fft2, np.fft.ifft2
        self.grid = np.random.default_rng(0).random((REF_GRID, REF_GRID)) + 0j
        self.samples: list[float] = []
        self.sample()  # warm-up, not kept
        self.samples.clear()

    def sample(self) -> float:
        start = time.perf_counter()
        for _ in range(REF_REPS):
            self.ifft2(self.fft2(self.grid))
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def after(self, seconds: float) -> None:
        """Sample for ``REF_SHARE`` of the ``seconds`` just measured."""
        spent = self.sample()
        while spent < REF_SHARE * seconds:
            spent += self.sample()

    def scale(self) -> float:
        """Factor from this run's seconds to seconds at the nominal speed."""
        return REF_NOMINAL_S / statistics.median(self.samples)


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def setup_probe(args) -> None:
    """Child mode: time package import plus construction of the run's inputs."""
    start = time.perf_counter()
    rd, wk = import_package()
    wk.make_cases(rd, wk.WORKLOADS[args.workload], args.seed, args.tiny)
    print(f"{time.perf_counter() - start!r}")


def measure_setup(args, ref: Reference) -> list[float]:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
        ref.after(samples[-1])
    return samples


class Runner:
    """Runs operations, applies the gate and checks count determinism."""

    def __init__(self, rd, wk, wl, cases, tiny):
        self.rd, self.wk, self.wl, self.cases, self.tiny = rd, wk, wl, cases, tiny
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[str] = []  # determinism mismatches
        self.counts: dict[int, dict] = {}  # case index -> first exact counts
        self.outcomes: dict[int, object] = {}  # case index -> first outcome

    def op(self, case, call=None):
        """Run one operation; returns (seconds per unit, outcome) or None."""
        wk = self.wk
        call = call or wk.run_op
        self.attempted += 1
        try:
            start = time.perf_counter()
            result, tally = call(self.rd, self.wl, case)
            seconds = time.perf_counter() - start
            out = wk.summarize(self.rd, self.wl, case, result, tally)
        except Exception:
            self.failures.append(f"case {case.index}: {traceback.format_exc(limit=3)}")
            return None
        reasons = wk.gate(self.wl, out, self.tiny)
        if reasons:
            self.failures.append(f"case {case.index}: " + "; ".join(reasons))
            return None
        exact = {k: out.counts[k] for k in EXACT}
        first = self.counts.setdefault(case.index, exact)
        if first != exact:
            self.errors.append(f"case {case.index}: counts {exact} != {first}")
        self.outcomes.setdefault(case.index, out)
        return seconds / out.units, out

    def closed_loop(self, seconds: float, step, min_steps: int) -> None:
        """Call ``step(case)`` over the cases in turn until ``seconds`` would pass."""
        start = time.perf_counter()
        durations = []
        k = 0
        while True:
            t0 = time.perf_counter()
            step(self.cases[k % len(self.cases)])
            durations.append(time.perf_counter() - t0)
            k += 1
            elapsed = time.perf_counter() - start
            if k >= min_steps and elapsed + statistics.median(durations) > seconds:
                break

    def rel_error(self) -> float:
        """Mean over the panel of each instance's (deterministic) error."""
        errs = [o.rel_error for o in self.outcomes.values()]
        return statistics.fmean(errs) if errs else math.nan


def run_untraced(rd, wk, wl, args, record):
    """End-to-end run with tracing off; returns (runner, metrics)."""
    setup_ref = Reference()
    setup = measure_setup(args, setup_ref)
    cases = wk.make_cases(rd, wl, args.seed, args.tiny)
    runner = Runner(rd, wk, wl, cases, args.tiny)
    ref = Reference()
    samples = []

    def step(case):
        start = time.perf_counter()
        got = runner.op(case)
        ref.after(time.perf_counter() - start)
        if got is not None:
            samples.append(got[0])

    runner.closed_loop(args.seconds, step, max(MIN_OPS, len(cases)))
    raw_wall = statistics.median(samples) if samples else math.nan
    raw_setup = statistics.median(setup)
    record.update(
        samples_setup_s=setup,
        samples_wall_s=samples,
        wall_s_quartiles=quartiles(samples),
        raw_wall_s=raw_wall,
        raw_setup_s=raw_setup,
        reference_s=ref.samples,
        setup_reference_s=setup_ref.samples,
    )
    metrics = {
        "wall_s": raw_wall * ref.scale(),
        "setup_s": raw_setup * setup_ref.scale(),
        "rel_error": runner.rel_error(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return runner, metrics


def layer_metrics(spans, lo, hi, out, shape) -> dict:
    """Per-layer metrics of one traced operation from its span subtree."""
    calls, total, self_s, nested, nested_count = tracing.subtree_stats(spans, lo, hi)
    c = out.counts
    steps = c["newton_iters"]
    m = {
        "gridfft.transforms": c["transforms"],
        "gridfft.mults": c["mults"],
        "gridfft.adds": c["adds"],
        # computed, not measured: complex128 grid per transform call
        "gridfft.bytes_computed": (calls["gridfft.dft2"] + calls["gridfft.idft2"])
        * shape[0]
        * shape[1]
        * 16,
        "objective.applies_per_step": (
            nested["operators.apply", "objective"] / steps if steps else 0.0
        ),
        "objective.saturated_frac": out.saturated_frac,
        "solver.newton_iters": steps,
        "solver.pcg_iters": c["pcg_iters"],
        "solver.pcg.self_s": self_s["solver.pcg"],
        "solver.linesearch.evals_per_step": (
            nested["objective.value", "solver.linesearch"] / steps if steps else 0.0
        ),
        "solver.nonconverged": c["nonconverged"],
        "gcv.evaluations": c["gcv_evaluations"],
        "gcv.trace_term.total_s": total["gcv.trace_term"],
        "gcv.trace_term.pcg_iters": nested_count["solver.pcg", "gcv.trace_term"],
        "gcv.unreliable": c["unreliable"],
    }
    for name in ("gridfft.dft2", "gridfft.idft2", "operators.hessian_apply"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in (
        "operators.hessian_apply",
        "operators.apply",
        "operators.apply_adjoint",
        "objective.value",
        "objective.gradient",
        "objective.hessian_weights",
        "precond.build",
        "precond.solve",
    ):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.total_s"] = total[name]
    for module in tracing.MODULES:
        if module != "testbed":
            m[f"{module}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(module + ".")
            )
    return m


def run_traced(rd, wk, wl, args, record):
    """Alternating untraced and traced run; returns (runner, metrics)."""
    recorder = tracing.Recorder()
    build_times, testbed_self = [], []
    with tracing.installed(rd, recorder):
        for _ in range(3):
            lo = len(recorder.spans)
            cases = wk.make_cases(rd, wl, args.seed, args.tiny)
            calls, total, self_s, _, _ = tracing.subtree_stats(
                recorder.spans, lo, len(recorder.spans)
            )
            n = calls["testbed.make_instance"]
            build_times.append(total["testbed.make_instance"] / n)
            testbed_self.append(self_s["testbed.make_instance"] / n)

    # Traced operations all use the seed's own instance, so the per-layer
    # counts of two traced runs of one seed are comparable however many
    # operations fit in the time.
    runner = Runner(rd, wk, wl, cases[:1], args.tiny)
    plain, traced, per_op = [], [], []

    def traced_call(rd_, wl_, case):
        with tracing.installed(rd, recorder):
            return recorder.wrap("bench.op", wk.run_op)(rd_, wl_, case)

    def step(case):
        got = runner.op(case)
        if got is not None:
            plain.append(got[0])
        lo = len(recorder.spans)
        got = runner.op(case, traced_call)
        if got is not None:
            traced.append(got[0])
            shape = case.instance.shape
            per_op.append(layer_metrics(recorder.spans, lo, len(recorder.spans), got[1], shape))

    runner.closed_loop(args.seconds, step, 1)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.csv.gz"
    recorder.write(spans_path)

    metrics = {}
    for name in PER_LAYER:
        values = [m[name] for m in per_op if name in m]
        if values:
            metrics[name] = statistics.median(values)
    metrics["testbed.make_instance_s"] = statistics.median(build_times)
    metrics["testbed.self_s"] = statistics.median(testbed_self)
    if plain and traced:
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    record.update(
        samples_untraced_wall_s=plain,
        samples_traced_wall_s=traced,
        spans=len(recorder.spans),
        spans_file=str(spans_path.relative_to(ROOT)),
    )
    return runner, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="self-test grid instead of the workload's"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    thread_env = pin_threads()
    if args.setup_probe:
        setup_probe(args)
        return 0
    rd, wk = import_package()
    if args.workload not in wk.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(wk.WORKLOADS)}")
    wl = wk.WORKLOADS[args.workload]

    record = {
        "schema": "robustdeblur-bench v1",
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "loop": "closed, one process, single-threaded",
        "machine": machine_facts(thread_env),
    }
    if args.trace:
        runner, metrics = run_traced(rd, wk, wl, args, record)
        units = PER_LAYER
    else:
        runner, metrics = run_untraced(rd, wk, wl, args, record)
        units = END_TO_END

    failed = len(runner.failures)
    record.update(
        attempted=runner.attempted,
        failed=failed,
        failed_frac=failed / runner.attempted,
        failures=runner.failures,
        determinism_errors=runner.errors,
        exact_counts={str(k): v for k, v in runner.counts.items()},
        lam_star={str(k): o.lam_star for k, o in runner.outcomes.items()},
        rel_error_per_case={str(k): o.rel_error for k, o in runner.outcomes.items()},
    )
    missing = [name for name in units if not math.isfinite(metrics.get(name, math.nan))]
    if missing:
        runner.errors.append(f"metrics not measured: {missing}")
    correct = failed == 0 and not runner.errors
    record["correct"] = correct
    print(json.dumps(record))
    summary = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if math.isfinite(metrics.get(name, math.nan))
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
