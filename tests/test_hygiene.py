"""Source hygiene checks. All but the last read the source only, with
nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "sfdalab").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that no expression
    of the module reads; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda t: t[1])
            if name not in used]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from a import b as c\nc()\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def wrapped_reductions(source: str) -> list[str]:
    """Calls of ``np.all`` and ``np.any``: on an array the methods
    ``.all()`` and ``.any()`` do the same check for less overhead."""
    return [f"line {node.lineno}: np.{node.func.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("all", "any") and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_wrapped_reductions(path):
    assert wrapped_reductions(path.read_text()) == []


def test_checker_flags_a_wrapped_reduction():
    assert wrapped_reductions("if np.all(x > 0) or np.any(y, axis=1):\n    pass\n") == [
        "line 1: np.all", "line 1: np.any"]
    assert wrapped_reductions("ok = (x > 0).all() and np.isfinite(y).any(axis=1)\n") == []
    # a reference that is not a call, and another module's all
    assert wrapped_reductions("f = np.all\nall(xs)\nsome.all(x)\n") == []


def listed_exports(source: str) -> set[str]:
    """The names the ``__all__`` literal of a package ``__init__`` lists."""
    listed = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            listed.update(ast.literal_eval(node.value))
    return listed


def export_mismatches(source: str) -> list[str]:
    """Differences between the names a package ``__init__`` imports and
    the names its ``__all__`` literal lists; ``from __future__`` imports
    are exempt."""
    imported, listed = set(), listed_exports(source)
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return ([f"imported, not in __all__: {name}" for name in sorted(imported - listed)]
            + [f"in __all__, not imported: {name}" for name in sorted(listed - imported)])


def unread_names(sources: dict[str, str]) -> list[str]:
    """Module-level names, dunders aside, that a module of ``sources``
    ({module name: source}) binds by assignment, ``def`` or ``class`` and
    that nothing reads: no load of the bare name in its own module, no
    attribute access and no import of it in any module. A package
    ``__init__`` imports what it exports, so an exported name is read."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    elsewhere = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                elsewhere.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                elsewhere.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        bound = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{module}: {name}" for name in sorted(bound)
                   if not name.startswith("__") and name not in loaded and name not in elsewhere]
    return unread


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private names (one leading underscore) of ``unread_names``."""
    return [entry for entry in unread_names(sources) if entry.split(": ")[1].startswith("_")]


def unread_exports(init_source: str, readers: list[str]) -> list[str]:
    """Names of the ``__all__`` of ``init_source`` that no source of
    ``readers`` reads: no load of the bare name, no attribute access and
    no import of it. A ``def`` or ``class`` statement only defines its
    name, so it is not a read."""
    read = set()
    for src in readers:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(listed_exports(init_source) - read)


def test_every_export_is_read_by_the_package_or_the_acceptance_gate():
    # what the package's own modules and the acceptance gate read
    readers = [p.read_text() for p in PACKAGE if p.name != "__init__.py"]
    readers.append((ROOT / "tests" / "test_acceptance.py").read_text())
    init = (ROOT / "src" / "sfdalab" / "__init__.py").read_text()
    assert unread_exports(init, readers) == []


def test_checker_flags_an_unread_export():
    init = "from .a import f, g, h, k\n__all__ = ['f', 'g', 'h', 'k']\n"
    a = "def f():\n    pass\n\n\ndef g():\n    return f()\n\n\nclass h:\n    pass\n\n\nk = 1\n"
    assert unread_exports(init, [a]) == ["g", "h", "k"]
    # read by import, attribute access or a bare name elsewhere
    assert unread_exports(init, [a, "from .a import h\nimport a\na.k\n", "print(g)\n"]) == []


def test_init_imports_exactly_all():
    assert export_mismatches((ROOT / "src" / "sfdalab" / "__init__.py").read_text()) == []


def test_no_unread_private_names():
    assert unread_private_names({p.stem: p.read_text() for p in PACKAGE}) == []


# Public names that no module reads or exports: the CSV writer the tests
# build CLI inputs with, and two names only bench/spans.py's TRACED table
# holds, as strings
UNREAD_KEPT = {"datasets: save_csv_dataset", "datasets: make_open_set_variant",
               "objectives: disperse_only_loss"}


def test_every_unexported_name_is_read_by_the_package():
    assert set(unread_names({p.stem: p.read_text() for p in PACKAGE})) == UNREAD_KEPT


def test_checker_flags_an_unread_public_name():
    # a refactor that stops calling a helper leaves it behind
    sources = {"m": "def full_bank():\n    pass\n\n\ndef report():\n    pass\n\n\nTAU = 1\n",
               "__init__": "from .m import report\n"}
    assert unread_names(sources) == ["m: TAU", "m: full_bank"]
    sources["n"] = "from .m import full_bank\nprint(full_bank(), m.TAU)\n"
    assert unread_names(sources) == []


def test_checker_flags_a_stale_export():
    assert export_mismatches("from .a import b, c\n__all__ = ['b']\n") == [
        "imported, not in __all__: c"]
    assert export_mismatches("from .a import b\n__all__ = ['b', 'd']\n") == [
        "in __all__, not imported: d"]
    assert export_mismatches("from __future__ import annotations\n"
                             "from .a import b\n__all__ = ['b']\n") == []


def test_checker_flags_an_unread_private_name():
    assert unread_private_names({"m": "_A = 1\n_B = 2\nprint(_B)\n"}) == ["m: _A"]
    assert unread_private_names({"m": "def _f():\n    pass\n"}) == ["m: _f"]
    # read by another module, by attribute or by import
    assert unread_private_names({"m": "_A = 1\n", "n": "import m\nm._A\n"}) == []
    assert unread_private_names({"m": "_A = 1\n", "n": "from m import _A\n"}) == []
    # bound in a function, dunder, or public: not module-level private names
    assert unread_private_names({"m": "def f():\n    _x = 1\n__all__ = []\nA = 1\n"}) == []


def test_every_adapt_setting_is_a_flag_of_sfdalab_adapt():
    # a setting that no user path can set is a moving part for no one
    import dataclasses

    from sfdalab import cli
    from sfdalab.orchestrator import AdaptConfig

    fields = {f.name for f in dataclasses.fields(AdaptConfig)}
    assert fields == set(cli._ADAPT) | {"seed"}
