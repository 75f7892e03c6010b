"""The benchmark's traced run rebinds package names; each must exist.

``bench/tracing.py`` names its span targets as ``(module, attribute)``
pairs.  A target removed from the package would otherwise surface only
in the slow benchmark self-test, so this reads the table (without
installing anything) and resolves every entry the way ``installed`` does.
"""

import importlib.util
from pathlib import Path

import robustdeblur

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
