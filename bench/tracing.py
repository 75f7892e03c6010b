"""Spans around the calls into each robustdeblur module, for the traced run.

The wrappers are installed only by rebinding public names inside the
benchmark process: a module-level function is replaced under every name
that refers to it in the package and its modules, a method on its class.
Nothing under ``src/`` changes, and :func:`installed` restores the
originals on exit, so untraced operations run the plain code.

A span is ``[name, parent, start, end, count]``; spans are kept in one
list in the order they open, so every descendant of a span follows it
and precedes the next root.  ``count`` holds the iteration count that a
``projected_pcg`` call returned or carried on its breakdown error.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from collections import defaultdict

MODULES = ("gridfft", "operators", "objective", "precond", "solver", "gcv", "testbed")


def _pcg_iterations(out):
    return out[1]


# (module, attribute, span name, count extractor)
TRACED = (
    ("gridfft", "dft2", "gridfft.dft2", None),
    ("gridfft", "idft2", "gridfft.idft2", None),
    ("operators", "BlurOperator.apply", "operators.apply", None),
    ("operators", "BlurOperator.apply_adjoint", "operators.apply_adjoint", None),
    ("operators", "hessian_apply", "operators.hessian_apply", None),
    ("objective", "Objective.value", "objective.value", None),
    ("objective", "Objective.gradient", "objective.gradient", None),
    ("objective", "Objective.hessian_weights", "objective.hessian_weights", None),
    ("precond", "precond_build", "precond.build", None),
    ("precond", "Preconditioner.solve", "precond.solve", None),
    ("solver", "projected_newton", "solver.projected_newton", None),
    ("solver", "projected_pcg", "solver.pcg", _pcg_iterations),
    ("solver", "linesearch", "solver.linesearch", None),
    ("gcv", "minimize_gcv", "gcv.minimize_gcv", None),
    ("gcv", "gcv_eval", "gcv.gcv_eval", None),
    ("gcv", "trace_term", "gcv.trace_term", None),
    ("testbed", "make_instance", "testbed.make_instance", None),
)


class Recorder:
    """In-memory span list for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.origin = time.perf_counter()

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    span[4] = count(out)
                return out
            except Exception as err:
                span[4] = getattr(err, "iterations", None)
                raise
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def write(self, path) -> None:
        """Write every span as gzipped CSV, times relative to the recorder's start."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,parent,name,start_s,end_s,count\n")
            for i, (name, parent, start, end, count) in enumerate(self.spans):
                fh.write(
                    f"{i},{parent},{name},{start - self.origin:.9f},"
                    f"{end - self.origin:.9f},{'' if count is None else count}\n"
                )


@contextlib.contextmanager
def installed(package, recorder: Recorder):
    """Rebind every traced name to a recording wrapper for the block."""
    namespaces = [package] + [getattr(package, m) for m in MODULES]
    undo = []
    try:
        for module, attr, name, count in TRACED:
            owner = getattr(package, module)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, recorder.wrap(name, original, count))
                undo.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapper = recorder.wrap(name, original, count)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        undo.append((ns, key, original))
        yield recorder
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)


def subtree_stats(spans, lo: int, hi: int):
    """Per-name calls, total and self seconds over spans ``lo .. hi-1``.

    Self time is a span's duration minus that of its direct children;
    calls are sequential, so children never overlap.  Also returns, per
    name, how many calls sat under an ``objective.*``, ``solver.linesearch``
    or ``gcv.trace_term`` ancestor, and the summed ``count`` field per
    (name, ancestor) pair.
    """
    n = hi - lo
    child = [0.0] * n
    under = [frozenset()] * n
    for i in range(lo, hi):
        name, parent, start, end, _ = spans[i]
        if parent >= lo:
            child[parent - lo] += end - start
            pname = spans[parent][0]
            tags = under[parent - lo]
            if pname.startswith("objective."):
                tags = tags | {"objective"}
            elif pname in ("solver.linesearch", "gcv.trace_term"):
                tags = tags | {pname}
            under[i - lo] = tags
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    nested = defaultdict(int)
    nested_count = defaultdict(int)
    for i in range(lo, hi):
        name, _, start, end, count = spans[i]
        d = end - start
        calls[name] += 1
        total[name] += d
        self_s[name] += d - child[i - lo]
        for tag in under[i - lo]:
            nested[name, tag] += 1
            if count is not None:
                nested_count[name, tag] += count
    return calls, total, self_s, nested, nested_count
