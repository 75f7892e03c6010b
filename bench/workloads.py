"""Workload definitions for the robustdeblur benchmark.

Each workload is a closed loop of one library operation on inputs made
from the run's seed.  A run builds ``panel`` instances; instance ``i``
uses noise seed ``seed + 1000 * i`` and outlier seed one above it, and
the scene itself is fixed.  Seed 1 reproduces the package defaults
(``make_instance`` uses noise seed 1 and outlier seed 2).

Importing this module imports numpy; ``run.py`` pins the thread pools
before it does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TERMINATIONS = ("converged", "max_iterations", "pcg_breakdown", "linesearch_failure")

# Grid edge used by the harness self-test.
TINY_SIZE = 32


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # testbed scene
    size: int
    outlier_fraction: float
    beta: float
    use_preconditioner: bool
    gcv: bool  # minimize_gcv instead of projected_newton at fixed lambda
    panel: int  # instances per run
    rel_error_ref: float  # reference at seed 1
    rel_error_tol: float  # gate: rel_error <= ref * (1 + tol)


LAMBDA = 1e-3
GCV_BRACKET = (1e-6, 1e-1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-ash256-precond",
            why=(
                "3-frame solve with the preconditioner on: per-frame loops in "
                "operators, objective and precond; objective evaluations are "
                "about a third of the time"
            ),
            kind="ash",
            size=256,
            outlier_fraction=0.05,
            beta=2.795,
            use_preconditioner=True,
            gcv=False,
            panel=1,
            # seeds 1..8 give 0.0531..0.0546
            rel_error_ref=0.0546,
            rel_error_tol=0.15,
        ),
        Workload(
            name="solve-sat512-wls",
            why=(
                "1-frame weighted least squares without the preconditioner: "
                "Hessian-apply bound on arrays larger than L2; bypasses precond, "
                "frame batching and saturation"
            ),
            kind="satellite",
            size=512,
            outlier_fraction=0.0,
            beta=math.inf,
            use_preconditioner=False,
            gcv=False,
            panel=1,
            # seeds 1..5 give 0.1620..0.1635
            rel_error_ref=0.1635,
            rel_error_tol=0.15,
        ),
        Workload(
            name="gcv-ash64",
            why=(
                "GCV lambda search on a 64x64 3-frame problem: the only gcv "
                "user; about 20k tiny transforms per call, so fixed per-call "
                "costs dominate"
            ),
            kind="ash",
            size=64,
            outlier_fraction=0.05,
            beta=2.795,
            use_preconditioner=True,
            gcv=True,
            # The evaluation count of one search ranges over 15..34 across
            # seeds and rel_error over 0.028..0.036, so a run averages several
            # instances and wall_s is seconds per GCV evaluation.
            panel=6,
            rel_error_ref=0.0298,
            rel_error_tol=0.5,
        ),
    )
}


@dataclass
class Case:
    """One generated instance with everything an operation needs."""

    index: int
    instance: object
    objective: object
    x0: np.ndarray
    solver_opts: object
    gcv_opts: object


@dataclass
class Outcome:
    """What one operation returned, reduced to what the benchmark checks."""

    x: np.ndarray
    rel_error: float
    counts: dict  # exact, must repeat across repetitions
    units: int  # divisor turning the op's seconds into wall_s
    lam_star: float | None
    saturated_frac: float


def make_cases(rd, wl: Workload, seed: int, tiny: bool) -> list[Case]:
    """Build the run's instances, operators and objectives."""
    size = TINY_SIZE if tiny else wl.size
    cases = []
    for i in range(wl.panel):
        noise_seed = seed + 1000 * i
        inst = rd.make_instance(
            wl.kind,
            (size, size),
            outlier_fraction=wl.outlier_fraction,
            noise_seed=noise_seed,
            outlier_seed=noise_seed + 1,
        )
        solver_opts = rd.SolverOptions(use_preconditioner=wl.use_preconditioner)
        loss = rd.LossFunction("talwar", wl.beta)
        gcv_opts = None
        if wl.gcv:
            obj = inst.objective(loss, 0.0)
            gcv_opts = rd.GcvOptions(
                lambda_lo=GCV_BRACKET[0],
                lambda_hi=GCV_BRACKET[1],
                solver=solver_opts,
            )
        else:
            obj = inst.objective(loss, LAMBDA)
        cases.append(
            Case(i, inst, obj, rd.default_start(inst.observed), solver_opts, gcv_opts)
        )
    return cases


def run_op(rd, wl: Workload, case: Case):
    """The timed call; returns the raw library result and its op counts."""
    with rd.count_transforms() as tally:
        if wl.gcv:
            result = rd.minimize_gcv(case.objective, case.gcv_opts, x0=case.x0)
        else:
            result = rd.projected_newton(case.objective, case.x0, case.solver_opts)
    return result, tally


def summarize(rd, wl: Workload, case: Case, result, tally) -> Outcome:
    """Reduce a result to the checked quantities (outside the timed region)."""
    if wl.gcv:
        lam_star, evaluations = result
        at_star = min(evaluations, key=lambda ev: abs(ev.lam - lam_star))
        x = at_star.x
        reports = [ev.newton_report for ev in evaluations]
        n_evals = len(evaluations)
        unreliable = sum(not ev.reliable for ev in evaluations)
    else:
        x, report = result
        lam_star = None
        reports = [report]
        n_evals = unreliable = 0
    counts = {
        "transforms": tally.fft2 + tally.ifft2,
        "mults": tally.mults,
        "adds": tally.adds,
        "newton_iters": sum(r.iterations for r in reports),
        "pcg_iters": sum(r.total_pcg_iterations for r in reports),
        "gcv_evaluations": n_evals,
        "nonconverged": sum(r.termination != "converged" for r in reports),
        "unreliable": unreliable,
        "terminations": sorted({r.termination for r in reports}),
    }
    saturated = math.nan
    if np.all(np.isfinite(x)) and not np.any(x < 0):  # else the gate fails it
        mask = case.objective.hessian_weights(x).inlier_mask
        saturated = float(1.0 - np.mean(mask))
    return Outcome(
        x=x,
        rel_error=rd.relative_error(x, case.instance.x_true),
        counts=counts,
        units=max(n_evals, 1),
        lam_star=lam_star,
        saturated_frac=saturated,
    )


def gate(wl: Workload, out: Outcome, tiny: bool) -> list[str]:
    """Correctness gate on one operation; returns the reasons it failed."""
    reasons = []
    if not np.all(np.isfinite(out.x)):
        reasons.append("x has non-finite entries")
    elif np.any(out.x < 0):
        reasons.append("x has negative entries")
    # The reference holds for the full-size grid; on the self-test grid the
    # gate only asks for a result better than the zero image.
    limit = 1.0 if tiny else wl.rel_error_ref * (1.0 + wl.rel_error_tol)
    if not out.rel_error <= limit:
        reasons.append(f"rel_error {out.rel_error:.4g} above {limit:.4g}")
    terms = out.counts["terminations"]
    if not terms or any(t not in TERMINATIONS for t in terms):
        reasons.append(f"termination not recorded: {terms}")
    if wl.gcv:
        lo, hi = GCV_BRACKET
        if out.lam_star is None or not lo <= out.lam_star <= hi:
            reasons.append(f"lambda* {out.lam_star} outside [{lo}, {hi}]")
    elif terms != ["converged"]:
        reasons.append(f"solve ended {terms[0] if terms else 'unrecorded'}")
    return reasons
