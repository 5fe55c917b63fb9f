"""The names perfbench reaches by string still exist.

perfbench's layer tracer wraps each binding in ``LAYER_BINDINGS`` with
``getattr`` and no default, and the ``lc_table`` workload calls the Lc
tool by name, so a deleted or renamed function breaks a traced benchmark
run long after the tests that used it pass. perfbench is only imported
here, never changed.
"""

import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_lc_tool():
    return load(ROOT / "tools" / "simulate_lc_critical_values.py", "simulate_lc_critical_values")


def test_every_layer_binding_resolves_to_a_callable():
    layertrace = load(ROOT / "perfbench" / "layertrace.py", "layertrace")
    modules = layertrace.package_modules(load_lc_tool())
    for layer, bindings in layertrace.LAYER_BINDINGS.items():
        for module, attr in bindings:
            assert callable(getattr(modules[module], attr, None)), (layer, module, attr)


def test_lc_tool_keeps_what_the_lc_workload_reads():
    tool = load_lc_tool()
    assert set(tool.CONFIG_TREND_POWERS) == {"const", "linear_trend", "quadratic_trend"}
    params = inspect.signature(tool.simulate_lc_chunk).parameters
    assert list(params) == ["rng", "reps", "t_len", "powers"]
