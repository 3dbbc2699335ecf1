"""The package's exported surface and the names its users import."""

import ast
import importlib.util
import re
from pathlib import Path

import starpart

ROOT = Path(__file__).resolve().parent.parent


def _imported_from_starpart() -> set[str]:
    """Every name that the tests, perfbench and README import from ``starpart``."""
    names = set()
    for path in [*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "starpart":
                names.update(alias.name for alias in node.names)
    readme = (ROOT / "README.md").read_text()
    for group in re.findall(r"from starpart import \(([^)]*)\)", readme):
        names.update(re.findall(r"\w+", group))
    return names


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from starpart import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(starpart.__all__)
    assert len(starpart.__all__) == len(set(starpart.__all__)) <= 35
    for name in starpart.__all__:
        assert namespace[name] is getattr(starpart, name)


def test_every_used_name_still_imports():
    used = _imported_from_starpart()
    # the acceptance criteria reach the flow internals through the package
    pinned = {"test_x", "slackness", "build_flow_network", "max_flow_unit", "lower_demand"}
    assert pinned <= used and "solve_min_max_ind" in used
    missing = sorted(name for name in used if not hasattr(starpart, name))
    assert missing == []


def test_tracer_hooks_resolve():
    # perfbench/tracer.py skips a hook whose target is gone, which drops its
    # per-layer metric; every hook must name a live module-level function.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench/tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.HOOKS
    for module_name, func, _, _ in tracer.HOOKS:
        assert callable(getattr(importlib.import_module(module_name), func, None)), (module_name, func)
