"""Each demo under ``demos/`` runs to the end, writing into a temporary
directory.  The suite's ``error::RuntimeWarning`` filter applies, so a
demo that warns fails like any test."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, tmp_path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    if hasattr(demo, "OUT"):
        demo.OUT = tmp_path / demo.OUT.name
    demo.main()
