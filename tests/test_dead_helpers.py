"""Every private helper, public function, method and module-level name in
gpfkit has a user."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gpfkit

PACKAGE = Path(gpfkit.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _sources():
    """The Python files of the package, the tests and the benchmark."""
    out = sorted(PACKAGE.glob("*.py"))
    for extra in ("tests", "gpfbench"):
        out += sorted((ROOT / extra).glob("*.py"))
    return out


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


def _attribute_reads(tree):
    """Attribute names a module reads, and names it imports."""
    out = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_no_unreferenced_methods():
    """A method of a gpfkit class is read as an attribute, imported, or
    reached through a getattr prefix somewhere in the package, the tests
    or the benchmark; a bare name such as a parameter or local of the
    same spelling does not count, since a method is only reached as an
    attribute.  Dunder methods are called by the language."""
    used = set()
    prefixes = set()
    for path in _sources():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _attribute_reads(tree)
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


def _function_refs(node, own, modules, bare=True):
    """What a statement refers to as a function: bare names it loads (when
    bare), names it imports, and `<gpfkit module>.name` or `gk.name`
    attributes, as (module, name) pairs, module None when any module's
    name counts.  A method call such as `sub.contains(...)` does not
    count."""
    out = set()
    for sub in ast.walk(node):
        if bare and isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add((None, sub.id))
        elif isinstance(sub, ast.alias):
            out.add((None, sub.name))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            if sub.value.id in modules:
                out.add((sub.value.id, sub.attr))
            elif sub.value.id == "gk":
                out.add((None, sub.attr))
    out.discard((None, own))
    return out


def _traced():
    """The (module, name) pairs of the TRACED table in gpfbench/tracer.py."""
    path = ROOT / "gpfbench" / "tracer.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TRACED" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("no TRACED table in %s" % path)


def test_no_unreferenced_public_functions():
    """A public module-level function is referenced elsewhere in the
    package, exported in gpfkit.__all__, or used by the benchmark, as an
    import, a `gk.name` or `<module>.name` attribute or a (module, name)
    pair of the functions its tracer wraps; the benchmark's bare names
    are its own functions.  Imports in the package's __init__ do not
    count, since __all__ says what it exports."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    used = {(None, name) for name in gpfkit.__all__} | _traced()
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = node.name
                if not own.startswith("_"):
                    defined.append((path.stem, own))
            elif isinstance(node, ast.ClassDef):
                own = node.name
            if path.name != "__init__.py":
                used |= _function_refs(node, own, modules)
    for path in sorted((ROOT / "gpfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _function_refs(tree, None, modules, bare=False)
    dead = sorted(
        "%s in %s.py" % (name, mod)
        for mod, name in defined
        if (None, name) not in used and (mod, name) not in used
    )
    assert not dead, "unreferenced public functions: %s" % ", ".join(dead)


def _reads(tree):
    """Names a module reads: loaded names, attributes and imported names;
    a name that is only assigned is not read."""
    out = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_no_unread_module_level_names():
    """A name a gpfkit module assigns at top level is read somewhere in
    the package, the tests or the benchmark; dunder names are exempt."""
    read = set()
    for path in _sources():
        read |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if not isinstance(name, ast.Name):
                        continue
                    if name.id.startswith("__") and name.id.endswith("__"):
                        continue
                    if name.id not in read:
                        unread.append("%s in %s" % (name.id, path.name))
    assert not unread, "unread module-level names: %s" % ", ".join(sorted(unread))


def test_no_write_only_record_fields():
    """A `__slots__` field of a gpfkit class is read as an attribute
    somewhere in the package, the tests or the benchmark; a constructor
    argument or an assignment is not a read."""
    read = set()
    for path in _sources():
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                read.add(sub.attr)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__slots__" for t in node.targets
                ):
                    fields = ast.literal_eval(node.value)
                    if isinstance(fields, str):
                        fields = (fields,)
                    unread += [
                        "%s.%s in %s" % (cls.name, name, path.name)
                        for name in fields
                        if name not in read
                    ]
    assert not unread, "write-only record fields: %s" % ", ".join(sorted(unread))


_MUTATORS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__"}
_DICT_CALLS = {"dict", "OrderedDict", "defaultdict"}
_FUNCTOOLS_MEMOS = {"lru_cache", "cache", "cached_property"}


def _module_dicts(tree):
    """Names bound to a dict at module level."""
    out = set()
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not targets:
            continue
        is_dict = isinstance(value, (ast.Dict, ast.DictComp)) or (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None))
            in _DICT_CALLS
        )
        if is_dict:
            out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return out


def _writes_in_functions(tree, names):
    """Module-level dicts among names that a function body writes to."""
    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(fn):
            if (
                isinstance(sub, ast.Subscript)
                and isinstance(sub.ctx, (ast.Store, ast.Del))
                and isinstance(sub.value, ast.Name)
                and sub.value.id in names
            ):
                out.add(sub.value.id)
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _MUTATORS
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id in names
            ):
                out.add(sub.func.value.id)
    return out


def test_caches_live_in_the_cache_module():
    """No module-level dict that functions fill, and no functools memo,
    serves as a cache outside cache.py, so every cache has its bound."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cache.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in sorted(_writes_in_functions(tree, _module_dicts(tree))):
            found.append("%s in %s" % (name, path.name))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.ImportFrom) and sub.module == "functools":
                memos = {a.name for a in sub.names} & _FUNCTOOLS_MEMOS
                found += ["functools.%s in %s" % (m, path.name) for m in memos]
            elif (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "functools"
                and sub.attr in _FUNCTOOLS_MEMOS
            ):
                found.append("functools.%s in %s" % (sub.attr, path.name))
    assert not found, "caches outside cache.py: %s" % ", ".join(found)


def test_cli_import_skips_dataclasses_and_inspect():
    """The command line starts without the dataclasses and inspect
    modules, and without the oracle, which only --oracle imports; -S keeps
    site packages from importing them first."""
    code = (
        "import sys, gpfkit.cli; "
        "print(sorted({'dataclasses', 'inspect', 'gpfkit.oracle'} "
        "& set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_no_module_reads_the_environment():
    """Budgets and options are module constants or command-line flags; no
    gpfkit module reads os.environ or os.getenv, so none regains an
    environment route."""
    reads = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for sub in ast.walk(tree):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "os"
                and sub.attr in reads
            ):
                found.append("os.%s in %s" % (sub.attr, path.name))
            elif isinstance(sub, ast.ImportFrom) and sub.module == "os":
                found += [
                    "os.%s in %s" % (a.name, path.name)
                    for a in sub.names
                    if a.name in reads
                ]
    assert not found, "environment reads: %s" % ", ".join(found)
