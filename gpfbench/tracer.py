"""Spans around gpfkit's public functions, recorded from outside.

``install()`` replaces each traced function with a wrapper in every
gpfkit module that bound it (``from .x import y`` copies the function
into the importing module, so patching the defining module alone misses
those calls).  Modules are looked up in ``sys.modules``, because the
package attribute ``gpfkit.gpf`` is the function, not the module.

Spans are kept in memory as (id, name, start, end, parent, item, self)
tuples, where self is the duration minus the time of the wrapped
children, and are written out once, when the traced pass ends.
"""

import gzip
import importlib
import sys
import time

# (module, attribute path); the class methods are patched on the class.
TRACED = (
    ("groebner", "buchberger"),
    ("groebner", "GroebnerBasis.contains"),
    ("arith", "Polynomial.__mul__"),
    ("arith", "PolyRing.reduce"),
    ("modops", "colon_module"),
    ("modops", "colon_ideal"),
    ("modops", "ideal_intersection"),
    ("modops", "intersect"),
    ("modops", "module_scale"),
    ("modops", "saturate"),
    ("primes", "ass_enumerate"),
    ("primes", "ass_contains"),
    ("primes", "supp_contains"),
    ("filtration", "rpe_filtration"),
    ("filtration", "verify_step"),
    ("filtration", "interchange"),
    ("gpf", "gpf"),
    ("gpf", "check_iff_criterion"),
    ("gpf", "check_supp_conditions"),
    ("gpf", "construct_general"),
    ("gpf", "construct_prime_power"),
    ("gpf", "exists_incomparable"),
    ("dsl", "parse"),
    ("dsl", "Env.declare"),
    ("cli", "Runner.dispatch"),
    ("cli", "Runner.emit"),
    ("oracle", "run_fixture_checks"),
)

# Functions whose self time is reported besides the inclusive time.
SELF_TIMED = {
    "groebner.buchberger",
    "groebner.GroebnerBasis.contains",
    "arith.Polynomial.__mul__",
    "arith.PolyRing.reduce",
    "modops.colon_module",
    "modops.colon_ideal",
    "dsl.parse",
    "cli.Runner.emit",
}


def metric_names():
    """Every per-layer metric name, in report order."""
    out = []
    for mod, attr in TRACED:
        name = "%s.%s" % (mod, attr)
        out += [name + ".calls", name + ".incl_s"]
        if name in SELF_TIMED:
            out.append(name + ".self_s")
        if name == "groebner.buchberger":
            out += [name + ".cache_hits", name + ".hit_ratio", name + ".hit_s"]
        if name == "primes.ass_contains":
            out += [name + ".members", name + ".member_ratio"]
    return out + ["trace.overhead_s"]


def unit(name):
    suffix = name.rsplit(".", 1)[1]
    if suffix in ("calls", "cache_hits", "members"):
        return "count"
    return "ratio" if suffix.endswith("_ratio") else "s"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = -1
        self.next_id = 0
        self.seen_bases = {}
        self.hits = []
        self.members = 0

    def wrap(self, name, fn):
        clock = time.perf_counter
        spans, stack = self.spans, self.stack
        is_gb = name == "groebner.buchberger"
        is_ass = name == "primes.ass_contains"

        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            frame = [0.0]
            parent = stack[-1][0] if stack else -1
            stack.append((span_id, frame))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1][0] += dur
                spans.append((span_id, name, start, end, parent, self.item, dur - frame[0]))
            if is_gb:
                if id(result) in self.seen_bases:
                    self.hits.append(dur)
                else:
                    self.seen_bases[id(result)] = result
            elif is_ass and result:
                self.members += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        for modname, _ in TRACED:
            importlib.import_module("gpfkit." + modname)
        mods = {
            key[len("gpfkit.") :]: mod
            for key, mod in list(sys.modules.items())
            if key.startswith("gpfkit.") and mod is not None
        }
        for modname, attr in TRACED:
            home = mods[modname]
            name = "%s.%s" % (modname, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(home, attr)
            wrapper = self.wrap(name, orig)
            for mod in list(mods.values()) + [sys.modules["gpfkit"]]:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def totals(self):
        """Raw per-function totals; totals of several processes add up."""
        out = {}
        for _, name, start, end, _, _, self_s in self.spans:
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".incl_s"] = out.get(name + ".incl_s", 0.0) + end - start
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + self_s
        out["groebner.buchberger.cache_hits"] = len(self.hits)
        out["groebner.buchberger.hit_s"] = sum(self.hits)
        out["primes.ass_contains.members"] = self.members
        return out

    def dump(self, path):
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("id\tname\tstart\tend\tparent\titem\tself\n")
            for span in self.spans:
                handle.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\t%.9f\n" % span)


def add_totals(a, b):
    return {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}


def metrics(totals, overhead_s):
    """The per-layer metrics named by ``metric_names`` from summed totals."""
    out = {}
    for name in metric_names():
        if name.endswith("_ratio"):
            base = name.rsplit(".", 1)[0]
            num = "cache_hits" if base.endswith("buchberger") else "members"
            calls = totals.get(base + ".calls", 0)
            out[name] = totals.get("%s.%s" % (base, num), 0) / calls if calls else 0.0
        elif name == "trace.overhead_s":
            out[name] = overhead_s
        else:
            out[name] = totals.get(name, 0 if unit(name) == "count" else 0.0)
    return out
