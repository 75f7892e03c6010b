"""Edge-case sweep: every input ends in a solution with a named termination.

Tiny and thin grids, both scenes, zero read-out noise, no and total
corruption, data scaled far past its usual range, lambda from 0 to 1e6,
and the preconditioner off and on.  No exception may escape a solve or a
GCV search; the only error allowed is the scene generator's own, raised
when the instance is built.
"""

import math
import warnings

import numpy as np
import pytest

from robustdeblur.gcv import GcvOptions, minimize_gcv
from robustdeblur.objective import Objective
from robustdeblur.solver import SolverOptions, default_start, projected_newton
from robustdeblur.testbed import make_instance

TERMINATIONS = {"converged", "max_iterations", "all_saturated",
                "pcg_breakdown", "linesearch_failure"}


def build(kind, shape, fraction):
    try:
        return make_instance(kind, shape, outlier_fraction=fraction)
    except ValueError as err:
        assert str(err) == "scene degenerated to all zeros"
        return None


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (2, 9), (7, 6)],
                         ids="{0[0]}x{0[1]}".format)
@pytest.mark.parametrize("kind", ["ash", "satellite"])
def test_every_edge_case_ends_in_a_named_termination(kind, shape):
    for fraction in (0.0, 1.0):
        inst = build(kind, shape, fraction)
        if inst is None:
            continue
        for sigma in (inst.sigma, 0.0):
            for use_precond in (False, True):
                solver = SolverOptions(use_preconditioner=use_precond)
                for scale in (1.0, 1e6):
                    data = scale * inst.observed
                    for lam in (0.0, 10.0, 1e6):
                        case = (fraction, sigma, use_precond, scale, lam)
                        obj = Objective(inst.op, data, sigma, lam=lam)
                        x, report = projected_newton(
                            obj, default_start(data), solver
                        )
                        assert np.all(np.isfinite(x)) and x.min() >= 0, case
                        trace = report.objective_trace
                        assert all(b < a for a, b in zip(trace, trace[1:])), case
                        assert report.termination in TERMINATIONS, case

                obj = Objective(inst.op, inst.observed, sigma)
                opts = GcvOptions(x_tol=1e-4, solver=solver)
                with warnings.catch_warnings():
                    # flagged evaluations warn; the search must still end
                    warnings.simplefilter("ignore", RuntimeWarning)
                    lam_star, _ = minimize_gcv(obj, opts)
                assert math.isfinite(lam_star), (fraction, sigma, use_precond)
                assert opts.lambda_lo <= lam_star <= opts.lambda_hi
