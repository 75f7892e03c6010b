"""Edge-case sweep: every input ends in a solution with a named termination,
or in a one-line error raised where the input enters.

Tiny and thin grids, both scenes, zero read-out noise, no and total
corruption, data scaled far past its usual range, lambda from 0 to 1e6,
and the preconditioner off and on.  No exception may escape a solve or a
GCV search; the only error allowed is the scene generator's own, raised
when the instance is built.

These end in a ``ValueError`` that names the parameter, raised by the
constructor, option object or function it enters through, before any
transform: a NaN, infinite or negative sigma, lambda (of an objective, a
Hessian product, a preconditioner, a GCV evaluation or a scan grid),
Newton or PCG tolerance, GCV bracket end, GCV tolerance, corruption
ceiling, PSF width or scene peak, and a NaN or infinite PSF tilt; a
grid shape that is not two integers of at least 2, and PSF parameters
that are not :class:`GaussianPsfParams`, given to ``make_instance``; a
non-integer or too small iteration cap (``newton_maxit``, ``pcg_maxit``,
``inner_cg_maxit``) or seed (probe, scene, noise or corruption); and text
that is no number, or None, for any of them or for ``use_preconditioner``.
A valid value may come as its text (``"1e-3"``, ``"3"``, ``"no"``): each
options object keeps the value its rule returns.
"""

import math
import warnings

import numpy as np
import pytest

from robustdeblur import gcv as gcv_module
from robustdeblur.gcv import GcvOptions, gcv_eval, minimize_gcv, rademacher_probe
from robustdeblur.gridfft import count_transforms
from robustdeblur.objective import LossFunction, Objective
from robustdeblur.operators import hessian_apply
from robustdeblur.precond import precond_build
from robustdeblur.solver import SolverOptions, default_start, projected_newton
from robustdeblur.testbed import (
    GaussianPsfParams,
    inject_random_corruptions,
    lambda_scan,
    make_instance,
    simulate_data,
    synthetic_scene,
)

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


# parameter -> call that passes the value v through the one entry it
# enters by; each must reject NaN, inf and -1 (only NaN and inf for tau,
# which may be negative)
ENTRIES = {
    "sigma (objective)": lambda inst, v: Objective(inst.op, inst.observed, v),
    "lam (objective)": lambda inst, v: inst.objective(lam=v),
    "lam (with_lambda)": lambda inst, v: inst.objective().with_lambda(v),
    "lam (hessian_apply)": lambda inst, v: hessian_apply(
        inst.op, np.ones(inst.observed.shape), v, inst.x_true),
    "lam (precond_build)": lambda inst, v: precond_build(
        inst.op, np.ones(inst.observed.shape), v),
    "lam (gcv_eval)": lambda inst, v: gcv_eval(
        inst.objective(), v, default_start(inst.observed), GcvOptions()),
    "newton_tol": lambda inst, v: SolverOptions(newton_tol=v),
    "pcg_tol": lambda inst, v: SolverOptions(pcg_tol=v),
    "lambda_lo": lambda inst, v: GcvOptions(lambda_lo=v),
    "lambda_hi": lambda inst, v: GcvOptions(lambda_hi=v),
    "x_tol": lambda inst, v: GcvOptions(x_tol=v),
    "inner_cg_tol": lambda inst, v: GcvOptions(inner_cg_tol=v),
    "sigma (simulate_data)": lambda inst, v: simulate_data(inst.clean, v, 1),
    "ceiling": lambda inst, v: inject_random_corruptions(
        inst.observed, 0.5, v, 2),
    "fraction": lambda inst, v: inject_random_corruptions(
        inst.observed, v, 1.0, 2),
    "lambda_grid": lambda inst, v: lambda_scan(
        inst, LossFunction(), [1e-3, v]),
    "gamma1": lambda inst, v: GaussianPsfParams(v, 2.0),
    "gamma2": lambda inst, v: GaussianPsfParams(2.0, v),
    "tau": lambda inst, v: GaussianPsfParams(2.0, 2.0, v),
    "max_intensity": lambda inst, v: make_instance(
        "satellite", (8, 8), max_intensity=v),
}


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry in ENTRIES
    for value in (math.nan, math.inf, -1.0)
    if not (entry == "tau" and value == -1.0)
])
def test_non_finite_or_negative_scalars_fail_where_they_enter(
        entry, value, monkeypatch):
    assert_fails_where_it_enters(ENTRIES[entry], entry, value, monkeypatch)


# integer parameter -> (its least value, call that passes the value v
# through the one entry it enters by); each must reject a non-integer and
# a value below its least
INTEGER_ENTRIES = {
    "newton_maxit": (1, lambda inst, v: SolverOptions(newton_maxit=v)),
    "pcg_maxit": (1, lambda inst, v: SolverOptions(pcg_maxit=v)),
    "inner_cg_maxit": (1, lambda inst, v: GcvOptions(inner_cg_maxit=v)),
    "probe_seed": (0, lambda inst, v: GcvOptions(probe_seed=v)),
    "seed (rademacher_probe)": (0, lambda inst, v: rademacher_probe(
        inst.observed.shape, v)),
    "seed (synthetic_scene)": (0, lambda inst, v: synthetic_scene(
        "ash", (8, 8), seed=v)),
    "noise_seed (simulate_data)": (0, lambda inst, v: simulate_data(
        inst.clean, 1.0, v)),
    "outlier_seed (inject_random_corruptions)": (
        0, lambda inst, v: inject_random_corruptions(inst.observed, 0.5, 1.0, v)),
    "noise_seed (make_instance)": (0, lambda inst, v: make_instance(
        "satellite", (8, 8), noise_seed=v)),
    # no corruption draws from this stream, and it is checked all the same
    "outlier_seed (make_instance)": (0, lambda inst, v: make_instance(
        "satellite", (8, 8), outlier_seed=v)),
    "scene_seed (make_instance)": (0, lambda inst, v: make_instance(
        "ash", (8, 8), scene_seed=v)),
}


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry, (least, _) in INTEGER_ENTRIES.items()
    for value in (2.5, "2.5", True, least - 1)
])
def test_non_integer_or_too_small_counts_and_seeds_fail_where_they_enter(
        entry, value, monkeypatch):
    assert_fails_where_it_enters(INTEGER_ENTRIES[entry][1], entry, value,
                                 monkeypatch)


# make_instance's own arguments, each checked at entry under its own name:
# (parameter, keyword arguments that pass a bad value of it)
MAKE_INSTANCE_ROWS = [
    ("sigma", {"sigma": -1.0}),
    ("outlier_fraction", {"outlier_fraction": 1.5}),
    ("outlier_ceiling", {"outlier_ceiling": -1.0}),
    ("shape", {"shape": (0, 5)}),
    ("shape", {"shape": (2.5, 4)}),
    ("shape", {"shape": 64}),
    ("shape", {"shape": (-4, 4)}),
    ("psf_params", {"psf_params": [(1, 2, 3)]}),
]


@pytest.mark.parametrize("name, kwargs", MAKE_INSTANCE_ROWS,
                         ids=[f"{n}={v!r}" for n, kw in MAKE_INSTANCE_ROWS
                              for v in kw.values()])
def test_make_instance_checks_every_argument_before_a_transform(
        name, kwargs, monkeypatch):
    assert_fails_where_it_enters(
        lambda inst, v: make_instance("ash", **{"shape": (8, 8), **v}),
        name, kwargs, monkeypatch)


# every scalar entry, as a call that passes the value v through it
EVERY_ENTRY = {
    **ENTRIES,
    **{entry: call for entry, (_, call) in INTEGER_ENTRIES.items()},
    "use_preconditioner": lambda inst, v: SolverOptions(use_preconditioner=v),
}


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry in EVERY_ENTRY for value in ("x", None)
])
def test_text_that_is_no_value_or_none_fails_where_it_enters(
        entry, value, monkeypatch):
    assert_fails_where_it_enters(EVERY_ENTRY[entry], entry, value, monkeypatch)


def test_options_keep_the_values_their_rules_return():
    opts = SolverOptions(newton_tol="1e-3", newton_maxit="40",
                         use_preconditioner="no")
    assert (opts.newton_tol, opts.newton_maxit) == (1e-3, 40)
    assert opts.use_preconditioner is False
    for flag, value in ((np.True_, True), (1, True), (0, False), ("Off", False)):
        assert SolverOptions(use_preconditioner=flag).use_preconditioner is value
    assert type(SolverOptions(pcg_maxit=np.int64(7)).pcg_maxit) is int
    gcv = GcvOptions(lambda_hi="0.1", probe_seed="3")
    assert (gcv.lambda_hi, gcv.probe_seed) == (0.1, 3)
    assert LossFunction(beta="3").beta == 3.0
    assert GaussianPsfParams("4", 2.0) == GaussianPsfParams(4.0, 2.0)
    for flag in ("maybe", 2, 1.0):
        with pytest.raises(ValueError, match="^use_preconditioner expected"):
            SolverOptions(use_preconditioner=flag)
    with pytest.raises(ValueError, match="^solver must be a SolverOptions"):
        GcvOptions(solver=None)
    # a solve with the text tolerance runs as with the float
    inst = make_instance("ash", (32, 32), outlier_fraction=0.05)
    obj = inst.objective(LossFunction(), 1e-3)
    x0 = default_start(inst.observed)
    x_text, text = projected_newton(obj, x0, opts)
    x_float, plain = projected_newton(obj, x0, SolverOptions(newton_tol=1e-3))
    assert text.termination == plain.termination == "converged"
    assert np.array_equal(x_text, x_float)


def assert_fails_where_it_enters(call, entry, value, monkeypatch):
    """``call`` with ``value`` raises a one-line ``ValueError`` that starts
    with the parameter named by ``entry``, before any solve or transform."""
    inst = make_instance("satellite", (8, 8))

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the input was checked")

    # a scan's solves run in the gcv module's walk, as a search's do
    monkeypatch.setattr(gcv_module, "projected_newton", no_solve)
    name = entry.split()[0]
    with count_transforms() as tally:
        with pytest.raises(ValueError) as err:
            call(inst, value)
    assert str(err.value).startswith(name + " "), str(err.value)
    assert "\n" not in str(err.value)
    assert tally.fft2 + tally.ifft2 == 0


def test_infinite_beta_stays_weighted_least_squares():
    # beta = inf is the documented switch to plain weighted least squares;
    # a NaN beta is rejected
    assert LossFunction(beta=math.inf).beta == math.inf
    with pytest.raises(ValueError, match="beta must be positive"):
        LossFunction(beta=math.nan)
