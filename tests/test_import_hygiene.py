"""Import hygiene of the package source, checked on its syntax trees.

No linter runs on the package, so a deletion could leave an import, or a
private helper, behind that nothing reads; these tests catch that, and a
public name that ``hybridrbf`` imports but does not list in ``__all__`` (or
lists but does not bind).  They also keep scipy, whose ``scipy.linalg``
costs more to import than the rest of the package, inside the one loader
that imports it at the first factorization.
"""

import ast
from pathlib import Path

import hybridrbf

PACKAGE = Path(hybridrbf.__file__).parent

# Names a module imports on purpose without reading them.  objectives.fit is
# rebound by perfbench/tests/test_perfbench.py, whose tracer must find it in
# the objectives namespace.
UNUSED_ON_PURPOSE = {("objectives", "fit")}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level or nested import binds, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including names inside string annotations."""
    names = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def _all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _read_names(tree) | set(_all_names(tree))
        for name, line in _imported_names(tree).items():
            if name not in used and (path.stem, name) not in UNUSED_ON_PURPOSE:
                unused.append(f"{path.name}:{line}: {name}")
    assert unused == []


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private (one leading underscore) function, class or constant a
    module defines at its top level, with its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def test_every_private_name_is_read_somewhere_in_the_package():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))
    }
    read = set()
    for tree in trees.values():
        read |= _read_names(tree)
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    dead = [
        f"{path.name}:{line}: {name}"
        for path, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    ]
    assert dead == []


def _imports_scipy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"


def test_scipy_is_imported_only_inside_the_lapack_loader():
    places = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            function = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
            place = f"{path.stem}.{top.name}" if function else f"{path.name}:{top.lineno}"
            places += [place for node in ast.walk(top) if _imports_scipy(node)]
    assert sorted(set(places)) == ["interpolation._lapack"]


def test_the_exception_is_still_an_unused_import():
    tree = ast.parse((PACKAGE / "objectives.py").read_text(encoding="utf-8"))
    assert "fit" in _imported_names(tree) and "fit" not in _read_names(tree)


def test_all_lists_exactly_the_public_names_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    public = {name for name in _imported_names(tree) if not name.startswith("_")}
    assert sorted(hybridrbf.__all__) == sorted(public)
    assert len(set(hybridrbf.__all__)) == len(hybridrbf.__all__)
    for name in hybridrbf.__all__:
        assert getattr(hybridrbf, name) is not None
