"""The benchmark's contract with the package.

bench/tracing.py wraps ffprog functions by module and attribute name, and its
work counters read arguments by position.  A rename or a reordered signature
would break the benchmark without failing any other test, so this file reads
that list (and does not edit it) and checks it against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from ffprog import field_new

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# attribute, argument name, position: the arguments the counters read
COUNTED = [
    ("count_progressions", "field", 5),
    ("weil_ratio", "field", 1),
    ("enumerate_fibers", "field", 1),
    ("FiberDistribution.save", "path", 1),
    ("FiberDistribution.load", "path", 1),
]


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def resolve(module, attr):
    """The function the tracer wraps; for a method, the plain function
    (a classmethod's counter sees cls as argument 0)."""
    owner = importlib.import_module(module)
    *cls, name = attr.split(".")
    if cls:
        raw = getattr(owner, cls[0]).__dict__[name]
        return getattr(raw, "__func__", raw)
    return getattr(owner, name)


def test_every_traced_function_resolves():
    traced = load_traced()
    assert traced
    for _span, module, attr, _key, _counter in traced:
        assert callable(resolve(module, attr)), f"{module}.{attr}"


def test_every_counter_is_checked():
    counted = {attr for _span, _module, attr, _key, counter in load_traced() if counter}
    assert counted == {attr for attr, _name, _index in COUNTED}


@pytest.mark.parametrize("attr, name, index", COUNTED)
def test_counter_reads_its_argument(tmp_path, attr, name, index):
    (_span, module, _attr, _key, counter), = (t for t in load_traced() if t[2] == attr)
    params = list(inspect.signature(resolve(module, attr)).parameters)
    assert params[index] == name
    # only that position holds a usable value, so the counter must read it
    path = tmp_path / "fibers.json"
    path.write_bytes(b"x" * 11)
    args = [None] * len(params)
    args[index] = field_new(7) if name == "field" else str(path)
    assert counter(tuple(args), {}) in {"field": (7**2, 8 * 7**3), "path": (11,)}[name]
