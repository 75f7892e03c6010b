"""Automatic choice of the regularization weight.

Generalized cross-validation scores each lambda by the weighted residual
energy over the squared effective degrees of freedom; the trace in the
denominator is estimated with a single Rademacher probe so each score
costs one extra linear solve, started from the previous evaluation's
solution.  Each Newton solve also starts from the previous solution, and
reads that point's data-term value, weights and gradient from the
previous solve instead of recomputing them: only the penalty term depends
on lambda.  The demo minimizes the score over a bracket, prints the
search's transforms per evaluation, split between the Newton solve, the
influence (trace) solve and the rest of the score (its fit), and
compares the resulting error against the best value on a reference grid,
which GCV never saw.
"""

from pathlib import Path

import numpy as np

from robustdeblur import (
    GcvOptions,
    LossFunction,
    count_transforms,
    default_start,
    lambda_scan,
    make_instance,
    minimize_gcv,
    relative_error,
    write_gcv_trace,
)

OUT = Path(__file__).parent / "out" / "05_gcv"


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    inst = make_instance("satellite", (64, 64), outlier_fraction=0.02,
                         noise_seed=11, outlier_seed=12)
    loss = LossFunction()

    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-1, x_tol=1e-4,
                      probe_seed=0)
    obj = inst.objective(loss, 0.0)
    with count_transforms() as tally:
        lam_star, evals = minimize_gcv(obj, opts,
                                       x0=default_start(inst.observed))
    write_gcv_trace(OUT / "gcv_trace.csv", evals)

    print("evaluations (in search order):")
    for e in evals:
        print("  lambda %.3e  gcv %.5e  trace %.1f"
              % (e.lam, e.gcv_value, e.trace_estimate))
    transforms = tally.fft2 + tally.ifft2
    newton = sum(e.newton_report.counts.fft2 + e.newton_report.counts.ifft2
                 for e in evals)
    influence = sum(e.influence_transforms for e in evals)
    n = len(evals)
    print("%d evaluations, %d transforms, %.1f per evaluation "
          "(%.1f in the Newton solve, %.1f in the influence solve, "
          "%.1f for the fit); influence share %.0f%%"
          % (n, transforms, transforms / n, newton / n, influence / n,
             (transforms - newton - influence) / n,
             100.0 * influence / transforms))
    starred = next(e for e in evals if e.lam == lam_star)
    err_gcv = relative_error(starred.x, inst.x_true)

    grid = np.logspace(-5, -1, 12)
    best = min(lambda_scan(inst, loss, grid),
               key=lambda p: p.relative_error)
    print("\nchosen lambda %.3e -> relative error %.4f" % (lam_star, err_gcv))
    print("grid best     %.3e -> relative error %.4f" % (best.lam,
                                                         best.relative_error))
    print("wrote", OUT / "gcv_trace.csv")


if __name__ == "__main__":
    main()
