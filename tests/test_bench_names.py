"""The package names the benchmark scripts under ``bench/`` rely on.

``bench/spans.py`` patches module attributes where ``pipeline`` and ``cli``
look them up, and ``bench/job.py`` and ``bench/run.py`` import and call the
package; a renamed function would break the benchmark without failing any
other test.  The scripts are parsed as source, not imported.
"""

import ast
import importlib
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# Names the scripts reach through a module or an instance, not an import
ATTRIBUTES = [
    ("features", "FeatureRegistry.indices_of_type"),
    ("cli", "train_model"),
    ("cli", "build_run_config"),
    ("pipeline", "evaluate_model"),
    ("pipeline", "resolve_families"),
]


def _parse(script):
    with open(os.path.join(BENCH, script), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def bench_names():
    """(module, name) of every span site, tracer patch and package import."""
    names = set(ATTRIBUTES)
    spans = _parse("spans.py")
    for node in ast.walk(spans):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPAN_SITES" for t in node.targets
        ):
            names.update(site for sites in ast.literal_eval(node.value).values() for site in sites)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_patch"
            and all(isinstance(arg, ast.Constant) for arg in node.args[:2])
        ):
            names.add((node.args[0].value, node.args[1].value))
    for script in ("job.py", "run.py"):
        for node in ast.walk(_parse(script)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("argdissect."):
                module = node.module.split(".", 1)[1]
                names.update((module, alias.name) for alias in node.names)
    return sorted(names)


def test_bench_names_cover_the_span_sites_and_imports():
    names = bench_names()
    assert ("pipeline", "build_views") in names  # a span site
    assert ("pipeline", "build_side_view") in names  # a counted patch
    assert ("features", "assemble") in names and ("learn", "load_model") in names  # imports


@pytest.mark.parametrize("module, name", bench_names())
def test_bench_name_exists_in_the_package(module, name):
    obj = importlib.import_module(f"argdissect.{module}")
    for attr in name.split("."):
        assert hasattr(obj, attr), f"argdissect.{module} has no {name}"
        obj = getattr(obj, attr)
