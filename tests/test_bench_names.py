"""Every function the benchmark's traced run wraps still exists in gpfkit.

`gpfbench/tracer.py` patches the names in its `TRACED` table; a name
that a refactor deletes or renames would break `run.py --trace 1` only
when the benchmark runs, so the table is resolved here instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "gpfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("gpfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_gpfkit():
    missing = []
    for modname, attr in _tracer().TRACED:
        home = importlib.import_module("gpfkit." + modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name, None)
            found = cls is not None and callable(cls.__dict__.get(meth))
        else:
            found = callable(getattr(home, attr, None))
        if not found:
            missing.append("%s.%s" % (modname, attr))
    assert not missing, "traced names missing from gpfkit: %s" % ", ".join(missing)
