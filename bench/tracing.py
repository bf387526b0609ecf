"""Spans around the calls into ffprog's public functions, from outside the package.

The tracer replaces each listed function with a wrapper in every ffprog
module namespace that binds it (``cli`` imports names directly, ``counting``
calls its own ``lambda3``, ``ENUMERATORS["fast"]`` is looked up at call
time), records one span per call and restores the originals afterwards.
Spans live in memory until the run ends.

Work counters are computed from the call's inputs (``k_bytes`` = 8 p^3 per
enumeration, ``cells`` = p^2 per count or Weil sum) or read from the file a
call wrote or read (fiber-file bytes). They are labelled as computed, not
measured: they say how much work the inputs demand, not what the hardware did.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _k_bytes(args, kwargs):
    return 8 * _arg(args, kwargs, 1, "field").p ** 3


def _cells(index):
    return lambda args, kwargs: _arg(args, kwargs, index, "field").p ** 2


def _file_bytes(index):
    return lambda args, kwargs: os.path.getsize(_arg(args, kwargs, index, "path"))


# (span name, module, attribute path, counter key, counter).  The span name is
# the metric prefix; two attributes may share one span name (cli.emit).
TRACED = (
    ("variety.enumerate_fibers", "ffprog.variety", "enumerate_fibers", "k_bytes", _k_bytes),
    ("variety.FiberDistribution.save", "ffprog.variety", "FiberDistribution.save", "bytes", _file_bytes(1)),
    ("variety.FiberDistribution.load", "ffprog.variety", "FiberDistribution.load", "bytes", _file_bytes(1)),
    ("variety.growth_report", "ffprog.variety", "growth_report", None, None),
    ("counting.count_progressions", "ffprog.counting", "count_progressions", "cells", _cells(5)),
    ("counting.lambda3", "ffprog.counting", "lambda3", None, None),
    ("counting.lambda2", "ffprog.counting", "lambda2", None, None),
    ("counting.lambda_prime", "ffprog.counting", "lambda_prime", None, None),
    ("counting.decomposition_residual", "ffprog.counting", "decomposition_residual", None, None),
    ("counting.prop22_sides", "ffprog.counting", "prop22_sides", None, None),
    ("fourier.weil_ratio", "ffprog.fourier", "weil_ratio", "cells", _cells(1)),
    ("fourier.dft", "ffprog.fourier", "dft", None, None),
    ("fourier.char_sums_over_fibers", "ffprog.fourier", "char_sums_over_fibers", None, None),
    ("fourier.lambda_prime_spectral", "ffprog.fourier", "lambda_prime_spectral", None, None),
    ("field.value_table", "ffprog.field", "value_table", None, None),
    ("setfun.random_subset", "ffprog.setfun", "random_subset", None, None),
    ("setfun.balance", "ffprog.setfun", "balance", None, None),
    ("polys.normalize_pair", "ffprog.polys", "normalize_pair", None, None),
    ("polys.build_aux_system", "ffprog.polys", "build_aux_system", None, None),
    ("symbolic.certify_separation_unequal", "ffprog.symbolic", "certify_separation_unequal", None, None),
    ("symbolic.certify_separation_equal", "ffprog.symbolic", "certify_separation_equal", None, None),
    ("symbolic.verify_lm_claims", "ffprog.symbolic", "verify_lm_claims", None, None),
    ("cli.cmd_count", "ffprog.cli", "cmd_count", None, None),
    ("cli.cmd_variety", "ffprog.cli", "cmd_variety", None, None),
    ("cli.cmd_verify", "ffprog.cli", "cmd_verify", None, None),
    ("cli.get_fibers", "ffprog.cli", "get_fibers", None, None),
    ("cli.emit", "ffprog.cli", "emit_rows", None, None),
    ("cli.emit", "ffprog.cli", "emit_json", None, None),
)

ENUMERATE = "variety.enumerate_fibers"
GET_FIBERS = "cli.get_fibers"
OVERHEAD = "trace.overhead_s"
# Metric suffixes that count work; they must repeat exactly between iterations.
COUNTERS = {"calls": "count", "k_bytes": "bytes", "bytes": "bytes", "cells": "count", "hits": "count", "misses": "count"}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for span, _module, _attr, key, _counter in TRACED:
        if any(name.startswith(span + ".") for name, _, _ in specs):
            continue
        specs += [(f"{span}.s", "s", "lower"), (f"{span}.self_s", "s", "lower"), (f"{span}.calls", "count", "lower")]
        if key is not None:
            specs.append((f"{span}.{key}", COUNTERS[key], "lower"))
    specs += [(f"{GET_FIBERS}.hits", "count", "higher"), (f"{GET_FIBERS}.misses", "count", "lower")]
    specs.append((OVERHEAD, "s", "lower"))
    return specs


def counters(metrics: dict[str, float]) -> dict[str, float]:
    """The work counters among a set of per-layer metrics."""
    return {k: v for k, v in metrics.items() if k.rsplit(".", 1)[-1] in COUNTERS}


class Tracer:
    """In-memory span recorder.  A span is [id, parent id, name, start, end, counters]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, key, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                rec[5] = {key: counter(args, kwargs)}
            return result

        return traced

    # -- installing and removing the wrappers ---------------------------------

    def install(self) -> None:
        """Wrap every TRACED function wherever an ffprog namespace binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "ffprog" or n.startswith("ffprog.")]
        wrappers = {}
        for name, module, attr, key, counter in TRACED:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, key, counter))
                else:
                    wrapped = self._wrap(name, raw, key, counter)
                self._undo.append(functools.partial(setattr, cls, meth, raw))
                setattr(cls, meth, wrapped)
            else:
                fn = getattr(owner, attr)
                wrappers[id(fn)] = (fn, self._wrap(name, fn, key, counter))

        def original(value):
            hit = wrappers.get(id(value))
            return hit is not None and hit[0] is value

        tables = [vars(m) for m in modules]
        tables += [v for t in list(tables) for v in t.values() if isinstance(v, dict)]
        for table in tables:
            for slot, value in list(table.items()):
                if original(value):
                    self._undo.append(functools.partial(table.__setitem__, slot, value))
                    table[slot] = wrappers[id(value)][1]

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (all metric_specs but overhead).

    ``.s`` sums the spans of a name that have no ancestor of the same name, so
    nested calls are not counted twice; ``.self_s`` subtracts the time covered
    by direct children, which run one after another in this single thread.
    """
    names = [spec[0] for spec in metric_specs() if spec[0] != OVERHEAD]
    out = dict.fromkeys(names, 0)
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = {}
    for sid, parent, _name, start, end, _counters in spans:
        if parent >= 0:
            child_time[parent] += end - start
            children.setdefault(parent, []).append(sid)

    def ancestors(sid):
        parent = spans[sid][1]
        while parent >= 0:
            yield spans[parent][2]
            parent = spans[parent][1]

    def has_descendant(sid, name):
        stack = list(children.get(sid, ()))
        while stack:
            cur = stack.pop()
            if spans[cur][2] == name:
                return True
            stack += children.get(cur, ())
        return False

    for sid, _parent, name, start, end, counters in spans:
        if f"{name}.calls" not in out:
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child_time[sid]
        if name not in ancestors(sid):
            out[f"{name}.s"] += end - start
        for key, value in (counters or {}).items():
            out[f"{name}.{key}"] += value
        if name == GET_FIBERS:
            out[f"{GET_FIBERS}.{'misses' if has_descendant(sid, ENUMERATE) else 'hits'}"] += 1
    return out
