"""The benchmark's traced run rebinds package names; each must exist.

``bench/tracing.py`` names its span targets as ``(module, attribute)``
pairs.  A target removed from the package would otherwise surface only
in the slow benchmark self-test, so this reads the table (without
installing anything) and resolves every entry the way ``installed`` does.
"""

import importlib.util
from pathlib import Path

import robustdeblur
from robustdeblur import gcv as gcv_module

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_span_targets_resolve():
    tracing = load_tracing()
    for name in tracing.MODULES:
        assert hasattr(robustdeblur, name), name
    for module, attr, span, _ in tracing.TRACED:
        owner = getattr(robustdeblur, module)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), span
        else:
            assert callable(getattr(owner, attr)), span


def test_gcv_search_calls_each_span_target_once_per_evaluation(monkeypatch):
    # The gcv.* spans exist only if a search routes its calls through the
    # gcv module's names, which the traced run rebinds.
    calls = {"projected_newton": 0, "gcv_eval": 0, "trace_term": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(gcv_module, name, counted(name, getattr(gcv_module, name)))
    inst = robustdeblur.make_instance("satellite", (16, 16), noise_seed=73)
    obj = inst.objective(robustdeblur.LossFunction(), 0.0)
    opts = robustdeblur.GcvOptions(lambda_lo=1e-6, lambda_hi=1e-2, x_tol=1e-4)
    _, evaluations = robustdeblur.minimize_gcv(obj, opts)
    assert len(evaluations) > 1
    assert calls == dict.fromkeys(calls, len(evaluations))
