"""Inner-iteration counts with and without the preconditioner.

The preconditioner replaces the solution-dependent weights by a single
diagonal scaling chosen so that the approximation has exactly the right
diagonal, then inverts the remaining circulant-plus-smoothing symbol in
closed form.  Each application costs one transform pair; the payoff is
measured here on a three-frame problem with 5% corrupted cells, for the
Newton steps and for the influence solve behind the GCV trace estimate,
where the same construction uses the weights W^2.
"""

import numpy as np

from robustdeblur import (
    GcvOptions,
    LossFunction,
    SolverOptions,
    count_transforms,
    default_start,
    make_instance,
    projected_newton,
    rademacher_probe,
    trace_term,
)

LAM = 1e-3


def main():
    inst = make_instance("ash", (64, 64), outlier_fraction=0.05,
                         noise_seed=11, outlier_seed=12)
    x0 = default_start(inst.observed)
    obj = inst.objective(LossFunction(), LAM)
    reports = {}
    for use in (False, True):
        opts = SolverOptions(pcg_tol=1e-1, use_preconditioner=use)
        x_lam, reports[use] = projected_newton(obj, x0, opts)

    width = max(r.iterations for r in reports.values())
    print("PCG iterations per Newton step (lam = %.0e, tol = 1e-1):" % LAM)
    print("  %-15s" % "step:" + " ".join("%3d" % (k + 1)
                                          for k in range(width)))
    for use, name in ((False, "plain"), (True, "preconditioned")):
        per_step = reports[use].pcg_iterations
        padded = per_step + ["-"] * (width - len(per_step))
        print("  %-15s" % name + " ".join("%3s" % c for c in padded))
    plain, pre = reports[False], reports[True]
    print("totals: %d -> %d inner iterations (ratio %.2f)"
          % (plain.total_pcg_iterations, pre.total_pcg_iterations,
             pre.total_pcg_iterations / plain.total_pcg_iterations))
    print("transforms: %d -> %d fft2+ifft2"
          % (plain.counts.fft2 + plain.counts.ifft2,
             pre.counts.fft2 + pre.counts.ifft2))

    # the influence solve at the last (preconditioned) solution
    probe = rademacher_probe(inst.observed.shape, seed=0)
    print("GCV trace term at lam = %.0e (inner tol = %.0e):"
          % (LAM, GcvOptions().inner_cg_tol))
    for use, name in ((False, "plain"), (True, "preconditioned")):
        with count_transforms() as tally:
            opts = GcvOptions(solver=SolverOptions(use_preconditioner=use))
            estimate, reliable = trace_term(obj, x_lam, probe, opts)
        print("  %-15s estimate %.2f, reliable %s, %d fft2+ifft2"
              % (name, estimate, reliable, tally.fft2 + tally.ifft2))


if __name__ == "__main__":
    main()
