"""Every private helper, public function and method in gpfkit has a user."""

import ast
from pathlib import Path

import gpfkit

PACKAGE = Path(gpfkit.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _names_used(node, own):
    """Names a top-level statement refers to, other than its own name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    out.discard(own)
    return out


def _getattr_prefixes(tree):
    """String prefixes of getattr(obj, "prefix" + name) lookups."""
    out = set()
    for sub in ast.walk(tree):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "getattr"
            and len(sub.args) > 1
            and isinstance(sub.args[1], ast.BinOp)
            and isinstance(sub.args[1].left, ast.Constant)
        ):
            out.add(sub.args[1].left.value)
    return out


def test_no_unreferenced_private_helpers():
    defined = {}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if own.startswith("_") and not own.startswith("__"):
                    defined[own] = path.name
            used |= _names_used(node, own)
    dead = sorted("%s in %s" % (name, defined[name]) for name in set(defined) - used)
    assert not dead, "unreferenced private helpers: %s" % ", ".join(dead)


def test_no_unreferenced_methods():
    """A method of a gpfkit class is named somewhere in the package, the
    tests or the benchmark; dunder methods are called by the language."""
    sources = sorted(PACKAGE.glob("*.py"))
    for extra in ("tests", "gpfbench"):
        sources += sorted((ROOT / extra).glob("*.py"))
    used = set()
    prefixes = set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _names_used(tree, None)
        prefixes |= _getattr_prefixes(tree)
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if name in used or any(name.startswith(p) for p in prefixes):
                    continue
                dead.append("%s.%s in %s" % (cls.name, name, path.name))
    assert not dead, "unreferenced methods: %s" % ", ".join(sorted(dead))


def _strings(tree):
    """The dotted parts of every string constant, such as the benchmark's
    ("modops", "ideal_intersection") trace targets."""
    out = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out |= set(sub.value.split("."))
    return out


def test_no_unreferenced_public_functions():
    """A public module-level function is referenced elsewhere in the
    package, exported in gpfkit.__all__, or named by the benchmark, which
    wraps some functions by name; imports in the package's __init__ do
    not count, since __all__ says what it exports."""
    used = set(gpfkit.__all__)
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = node.name
                if not own.startswith("_"):
                    defined[own] = path.name
            elif isinstance(node, ast.ClassDef):
                own = node.name
            if path.name != "__init__.py":
                used |= _names_used(node, own)
    for path in sorted((ROOT / "gpfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _names_used(tree, None) | _strings(tree)
    dead = sorted("%s in %s" % (name, defined[name]) for name in set(defined) - used)
    assert not dead, "unreferenced public functions: %s" % ", ".join(dead)
