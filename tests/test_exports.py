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


def test_root_reexports_every_library_module_list():
    # The root lists no name itself: each public name is listed once, in its
    # module, and resolves at the root to the same object.
    for info in pkgutil.iter_modules(robustdeblur.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module("robustdeblur." + info.name)
        for name in module.__all__:
            assert name in robustdeblur.__all__, (info.name, name)
            assert getattr(robustdeblur, name) is getattr(module, name), name


def test_counts_is_listed_by_its_module():
    from robustdeblur import gridfft

    assert "COUNTS" in gridfft.__all__
    assert robustdeblur.COUNTS is gridfft.COUNTS
