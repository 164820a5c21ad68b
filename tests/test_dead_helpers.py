"""Every module-level private function or class in gpfkit has a user."""

import ast
from pathlib import Path

import gpfkit

PACKAGE = Path(gpfkit.__file__).parent


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
