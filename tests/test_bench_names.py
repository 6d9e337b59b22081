"""The names the benchmark looks up in the package.

``bench/tracer.py`` replaces each function of its ``FUNCTIONS`` table by name,
and the workloads call a few more; a deleted or renamed one breaks a bench run
only when it is made.  The tracer imports only the standard library, so its
table is read here from the file itself.
"""

import importlib.util
from pathlib import Path

import pytest

import torsionforms
import torsionforms.cli  # noqa: F401  (not imported by the package itself)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("metric, home, attr", _tracer().FUNCTIONS)
def test_traced_function_resolves(metric, home, attr):
    assert callable(getattr(getattr(torsionforms, home), attr))


@pytest.mark.parametrize("path", [
    "thue.order_n_points",
    "thue.detect",
    "curves.Curve",
    "cli.main",
    "torsion.torsion_points.cache_clear",
    "torsion.torsion_points.cache_info",
    "records.CurveRecord.to_json_line",
    "records.CurveRecord.from_json_line",
])
def test_workload_name_resolves(path):
    obj = torsionforms
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_record_methods_are_wrapped_where_they_are_defined():
    # the tracer replaces them in the class dict, the read as a classmethod
    record = torsionforms.records.CurveRecord.__dict__
    assert callable(record["to_json_line"])
    assert isinstance(record["from_json_line"], classmethod)
