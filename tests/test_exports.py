"""Every name a module exports resolves, and no ``__all__`` repeats one."""

import importlib
import pkgutil

import robustdeblur


def test_every_exported_name_resolves_once():
    names = ["robustdeblur"] + [
        "robustdeblur." + info.name
        for info in pkgutil.iter_modules(robustdeblur.__path__)
    ]
    for name in names:
        module = importlib.import_module(name)
        exported = module.__all__
        assert len(set(exported)) == len(exported), name
        missing = [n for n in exported if not hasattr(module, n)]
        assert not missing, (name, missing)
