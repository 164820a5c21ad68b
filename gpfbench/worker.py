"""One benchmark process: a pass over a corpus, or one traced gpfkit CLI run.

    worker.py lib CORPUS.json setup|run|trace [SPANS.tsv.gz]
    worker.py cli SPANS.tsv.gz TOTALS.json ITEM -- GPFKIT-ARGS...

``lib`` imports gpfkit, builds the corpus's objects, prints the
monotonic clock reading at which the first item is ready, and (unless
``setup``) runs every item in order in this one interpreter, so the basis
cache grows from item to item.  The last line of standard output is a
JSON object with the per-item milliseconds and outputs.

``cli`` installs the span wrappers and then runs ``gpfkit.cli.main``,
as the ``gpfkit`` entry point does.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import corpus  # noqa: E402


def _indices(prime):
    """A variable-generated prime as sorted variable indices."""
    out = []
    for g in prime.ideal.canonical_gens():
        (mono,) = g.monomials()
        out.append(mono.index(1))
    return sorted(out)


def _monomial_gens(sub):
    """Generators of a monomial submodule as (component, exponents), or
    None when some generator is not a monomial vector."""
    out = []
    for vec in sub.canonical():
        nonzero = [(c, p) for c, p in enumerate(vec) if not p.is_zero()]
        if len(nonzero) != 1 or len(nonzero[0][1]) != 1:
            return None
        c, p = nonzero[0]
        (mono,) = p.monomials()
        out.append([c, list(mono)])
    return out


def _build_module(gk, ring, rank, denom):
    zero = ring.zero()
    gens = []
    for comp, ideal in enumerate(denom):
        for mono in ideal:
            vec = [zero] * rank
            vec[comp] = ring.monomial(tuple(mono))
            gens.append(tuple(vec))
    return gk.QuotientModule.free(ring, rank, tuple(gens))


def _prepare_forward(gk, items):
    out = []
    rings = {}
    for it in items:
        nv, rank = it["nvars"], it["rank"]
        ring = rings.setdefault(nv, gk.PolyRing(gk.QQ, tuple(corpus.VARS[:nv])))
        M = gk.QuotientModule.free(ring, rank)
        vecs = []
        for comp, mono in it["gens"]:
            vec = [ring.zero()] * rank
            vec[comp] = ring.monomial(tuple(mono))
            vecs.append(tuple(vec))
        out.append((M, M.span(vecs)))
    return out


def _run_forward(gk, prepared):
    M, N = prepared
    out = {}
    for tie in ("lex", "revlex"):
        filt = gk.rpe_filtration(N, M, tie_break=tie)
        report = gk.verify_rpe(filt)
        out[tie] = {"primes": [_indices(p) for p in filt.primes()], "verified": report["ok"]}
    return out


def _prepare_inverse(gk, items):
    rings = {n: gk.PolyRing(gk.QQ, tuple(corpus.VARS[:n])) for n in (3, 4)}
    modules = {
        name: (rings[nv], _build_module(gk, rings[nv], rank, denom))
        for name, (nv, rank, denom) in corpus.MODULES.items()
    }
    return [modules[it["module"]] + (it,) for it in items]


def _run_inverse(gk, prepared):
    ring, M, it = prepared
    pairs = [(gk.PrimeIdeal.from_variables(ring, S), r) for S, r in it["pairs"]]
    target = gk.FactorizationTarget(pairs)
    iff = gk.check_iff_criterion(target, M)
    supp = gk.check_supp_conditions(target, M)
    first = supp.first_failure()
    out = {
        "iff": iff.verdict,
        "supp_index": first.index if first else None,
        "witness": None,
        "refusal": None,
    }
    try:
        out["witness"] = _monomial_gens(gk.construct_general(target, M))
    except gk.HypothesisError as exc:
        out["refusal"] = exc.index
    if it["antichain"]:
        report = gk.exists_incomparable([p for p, _ in pairs], M)
        out["exists"] = report.verdict
        out["exists_witness"] = (
            _monomial_gens(report.witness) if report.witness is not None else None
        )
    return out


def lib_main(corpus_path, mode, spans_path=None):
    tracer = None
    import gpfkit as gk

    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    with open(corpus_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    prepare, run = {
        "forward-monomial": (_prepare_forward, _run_forward),
        "inverse-products": (_prepare_inverse, _run_inverse),
    }[spec["workload"]]
    prepared = prepare(gk, spec["items"])
    ready = time.perf_counter()
    result = {"ready": ready, "items": []}
    if mode != "setup":
        for i, item in enumerate(prepared):
            if tracer is not None:
                tracer.item = i
            start = time.perf_counter()
            try:
                out = run(gk, item)
            except Exception as exc:  # counted as a failed operation
                out = {"error": "%s: %s" % (type(exc).__name__, exc)}
            result["items"].append({"ms": (time.perf_counter() - start) * 1e3, "out": out})
        result["done"] = time.perf_counter()
    if tracer is not None:
        tracer.dump(spans_path)
        result["totals"] = tracer.totals()
    sys.stdout.write(json.dumps(result) + "\n")


def cli_main(spans_path, totals_path, item, argv):
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.item = item
    from gpfkit.cli import main

    try:
        code = main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
        with open(totals_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.totals(), handle)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "lib":
        lib_main(*sys.argv[2:])
    else:
        spans, totals, item, sep, *rest = sys.argv[2:]
        sys.exit(cli_main(spans, totals, int(item), rest))
