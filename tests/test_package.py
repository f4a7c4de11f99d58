"""The package namespace: every public name is exported once and used,
and every parameter in the source is read."""

import ast
import re
from pathlib import Path

import relusplines as rs

MODULES = (
    rs.analysis,
    rs.core,
    rs.evaluate,
    rs.normalize,
    rs.serialization,
    rs.synth,
    rs.transfer,
)


def test_all_is_the_union_of_module_lists():
    expected = {name for module in MODULES for name in module.__all__}
    assert set(rs.__all__) == expected
    assert len(rs.__all__) == len(set(rs.__all__))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(rs, name) is getattr(module, name)


def test_star_import_exports_every_public_name():
    namespace = {}
    exec("from relusplines import *", namespace)
    assert "write_csv" in namespace
    assert set(rs.__all__) <= set(namespace)


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "relusplines").glob("*.py"))


def _loaded_names(node: ast.AST, attributes: bool) -> set:
    """Names read anywhere under ``node``, and attribute names if asked."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif attributes and isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_public_name_is_used_outside_the_tests():
    # a use inside the name's own top-level definition does not count
    used = set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text()).body:
            names = _loaded_names(stmt, attributes=True)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    texts = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    words = set(re.findall(r"\w+", "\n".join(texts + [(ROOT / "README.md").read_text()])))
    unused = [name for name in rs.__all__ if name not in used | words]
    assert unused == []


def test_every_private_helper_is_used_in_the_source():
    # a private top-level function or class must be read in src/ outside its
    # own definition, so a deleted path cannot live on as a helper only tests
    # call; imports are not reads
    used, private = set(), []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text()).body:
            names = _loaded_names(stmt, attributes=True)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if stmt.name.startswith("_"):
                    private.append(f"{path.name}:{stmt.name}")
            used |= names
    unused = [name for name in private if name.split(":")[1] not in used]
    assert unused == []


def test_every_parameter_is_read():
    unread = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = set().union(*(_loaded_names(stmt, attributes=False) for stmt in body))
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}:{name}({p.arg})" for p in params if p.arg not in read]
    assert unread == []


def test_only_the_cli_catches_the_packages_own_errors():
    # the package's exceptions report to the caller; only the CLI turns them
    # into exit codes, so no library module uses one for control flow
    own = {
        obj.__name__
        for module in MODULES
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__.startswith("relusplines")
    }
    caught = []
    for path in SOURCES:
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = _loaded_names(node.type, attributes=True) & own
                caught += [f"{path.name}:{node.lineno}:{name}" for name in sorted(names)]
    assert {"ActivityError", "SchemaError"} <= own
    assert caught == []


def test_one_function_reports_inactive_knots():
    # every build decides activity through one check, so exactly one
    # function in the source constructs ActivityError
    sites = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                isinstance(sub, ast.Call)
                and "ActivityError" in _loaded_names(sub.func, attributes=True)
                for sub in ast.walk(node)
            ):
                sites.append(f"{path.name}:{node.name}")
    assert sites == ["synth.py:_checked"]


def test_one_function_reads_activity_tol():
    # every activity window comes from one place, so exactly one function
    # in the source reads ACTIVITY_TOL
    sites = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                body = node.body if isinstance(node.body, list) else [node.body]
                if any("ACTIVITY_TOL" in _loaded_names(stmt, attributes=True) for stmt in body):
                    sites.append(f"{path.name}:{getattr(node, 'name', '<lambda>')}")
    assert sites == ["synth.py:_activity_windows"]


def test_one_module_checks_finiteness():
    # caller input is checked once, by core's value types and _frozen_array,
    # so no other module in the source calls isfinite
    sites = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "isfinite" in _loaded_names(node.func, attributes=True):
                sites.add(path.name)
    assert sites == {"core.py"}


# bench/selftest.py reads synth.dnn_to_spline to check that tracing wraps and
# restores every binding; no synth code calls it
UNREAD_IMPORTS = ["synth.py:dnn_to_spline"]


def test_every_import_is_read():
    # a name a module imports must be read in that module, so a deleted call
    # cannot leave its import behind; star imports bind no single name
    unread = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        read = _loaded_names(tree, attributes=False)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "*" and name not in read:
                        unread.append(f"{path.name}:{name}")
    assert unread == UNREAD_IMPORTS
