"""The package's public surface, and its independence from the test code."""

import ast
import importlib
from pathlib import Path

import pytest

import icbounds

PUBLIC = {
    "CellPartition", "ConditionReport", "CorrelatedGaussianIC", "DiscreteIC",
    "GaussianIC", "RateRegion", "RegimeReport", "SimConfig", "SimResult",
    "capacity_region_one_sided", "capacity_region_strong", "check_condition",
    "classify", "convex_hull", "from_csv", "frontier_csv",
    "inner_region_one_sided", "inner_region_strong", "outer_region", "psi",
    "simulate", "sum_capacity_fwd_interference", "sum_capacity_fwd_own",
    "sum_rate_bound",
}

# module -> names that only the tests use; they live in tests/reference.py
TEST_ONLY = {
    "errors": ("DegenerateChannelError", "UnboundedRegionError", "NumericalError"),
    "gaussian": ("GaussianSystem", "independent_system", "build_system", "_logdet",
                 "gaussian_mi", "DerivedSignals", "derived_signals", "full_system",
                 "RIDGE", "PSD_TOL"),
    "outer_bound": ("BoundParams", "constraints_at", "region_at"),
    "regions": ("RateConstraint", "from_constraints", "_dedupe_collinear",
                "includes", "gap"),
    "discrete": ("mi", "AuxJointDist", "AXES7", "joint_with_aux",
                 "outer_constraints"),
}


def test_star_import_yields_the_public_names():
    namespace = {}
    exec("from icbounds import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert len(icbounds.__all__) == len(PUBLIC) == 24


@pytest.mark.parametrize("module", sorted(TEST_ONLY))
def test_test_only_names_left_the_package(module):
    mod = importlib.import_module(f"icbounds.{module}")
    assert [n for n in TEST_ONLY[module] if hasattr(mod, n)] == []


def test_removed_members_stay_removed():
    for cls, names in ((icbounds.RateRegion, ("tag", "vertices", "contains",
                                              "is_point")),
                       (icbounds.DiscreteIC, ("from_json_dict", "to_json_dict")),
                       (icbounds.CellPartition, ("kappa_of",))):
        assert [n for n in names if hasattr(cls, n)] == []


def test_one_module_sets_the_cell_budget():
    src = Path(icbounds.__file__).resolve().parent
    owners = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for t in targets:
                if isinstance(t, ast.Name) and t.id.endswith("_CELLS"):
                    owners.setdefault(path.stem, []).append(t.id)
    assert owners == {"regions": ["SWEEP_CELLS"]}


def test_package_imports_no_test_module():
    src = Path(icbounds.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            for name in names:
                parts = set(name.split("."))
                assert not parts & {"reference", "conftest", "tests"}, (path.name, name)


def _calls_exit(node) -> bool:
    """A call to sys.exit or _fail, or a raise of SystemExit."""
    if isinstance(node, ast.Call):
        f = node.func
        return (isinstance(f, ast.Name) and f.id == "_fail") or (
            isinstance(f, ast.Attribute) and f.attr == "exit"
            and isinstance(f.value, ast.Name) and f.value.id == "sys")
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "SystemExit"
    return False


def test_cli_turns_errors_into_exit_codes_in_one_place():
    import click

    from icbounds import cli

    group = type(cli.main)
    assert issubclass(group, click.Group) and group.invoke is not click.Group.invoke
    tree = ast.parse(Path(cli.__file__).read_text())
    exits = []
    for top in tree.body:
        is_class = isinstance(top, ast.ClassDef)
        for stmt in top.body if is_class else [top]:
            name = getattr(stmt, "name", "<module level>")
            name = f"{top.name}.{name}" if is_class else name
            exits += [name for node in ast.walk(stmt) if _calls_exit(node)]
    assert exits == [f"{group.__name__}.invoke"]
    # a command callback wears only its command and option decorators
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or not fn.decorator_list:
            continue
        for deco in fn.decorator_list:
            target = ast.unparse(deco.func if isinstance(deco, ast.Call) else deco)
            assert target in ("main.command", "click.option", "click.argument",
                              "click.group"), (fn.name, target)
