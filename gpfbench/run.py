"""gpfkit benchmark: one run of one workload.

    python3 gpfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; gpfkit is imported from ``src``.  A run
is a closed loop with one caller and one child process at a time:

1. one untimed warm-up invocation, so bytecode is compiled;
2. several passes over the seeded corpus, each in a fresh interpreter
   with a fixed environment (``PYTHONHASHSEED=0``, no inherited
   ``PYTHON*`` or ``GPFKIT_*`` variables), interleaved with cold starts
   that only set up;
3. checks of every output against the exponent-vector reference, sympy,
   or properties the method must have.

The end-to-end metrics come from medians over passes and cold starts.
With ``--trace 1`` the run instead makes one untraced and one traced
pass and reports the per-layer metrics of the traced one; no
end-to-end metric is taken from it.  The last line of standard output is
the JSON result.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("forward-monomial", "inverse-products", "quotient-cli")
PASSES = 3
# Cold starts that only set up, made before each pass of a library
# workload; with the passes' own starts they give the setup_s samples.
SETUPS_PER_PASS = 3
CHILD_TIMEOUT_S = 150
CLI_ENTRY = "import sys; from gpfkit.cli import main; sys.exit(main())"

# Corpus items per second of --seconds, measured on a 2-vCPU VM so that
# PASSES passes fill about --seconds.  The same seed and --seconds always
# give the same corpus.
DENSITY = {
    "forward-monomial": 0.84,
    "inverse-products": 1.2,
    "quotient-cli": 0.54,
}


class ChildError(RuntimeError):
    pass


def child_env():
    env = {
        k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "GPFKIT_"))
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv):
    """Run one child to its end; returns (start, end, completed process)."""
    start = time.perf_counter()
    proc = subprocess.run(
        argv,
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return start, time.perf_counter(), proc


def worker(*args):
    start, end, proc = spawn([sys.executable, os.path.join(HERE, "worker.py"), *args])
    if proc.returncode != 0:
        raise ChildError("worker %s exited %d: %s" % (args, proc.returncode, proc.stderr[-2000:]))
    return start, end, json.loads(proc.stdout.splitlines()[-1])


def tail(samples):
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), as (percentile, value); needs eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    raise ValueError("a tail needs at least eleven samples")


def corpus_of(workload, seed, count):
    if workload == "forward-monomial":
        return corpus.forward_items(seed, count)
    return corpus.inverse_items(seed, count)


def write_corpus(name, workload, items):
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "items": items}, handle)
    return path


def outputs_problems(workload, items, outs):
    ok = [(it, o) for it, o in zip(items, outs) if "error" not in o]
    check = checks.forward if workload == "forward-monomial" else checks.inverse
    return check([it for it, _ in ok], [o for _, o in ok])


def library_run(workload, seed, count, trace):
    items = corpus_of(workload, seed, count)
    path = write_corpus("corpus-%s-%d.json" % (workload, seed), workload, items)
    warm = write_corpus("warmup-%s.json" % workload, workload, items[:1])
    worker("lib", warm, "run")
    if trace:
        spans = os.path.join(OUT, "trace-%s-%d.tsv.gz" % (workload, seed))
        plain_start, plain_end, plain = worker("lib", path, "run")
        start, end, traced = worker("lib", path, "trace", spans)
        passes = [plain, traced]
        extra = {"totals": traced["totals"], "overhead_s": (end - start) - (plain_end - plain_start)}
    else:
        setups, passes = [], []
        for _ in range(PASSES):
            for _ in range(SETUPS_PER_PASS):
                start, _, res = worker("lib", path, "setup")
                setups.append(res["ready"] - start)
            start, _, res = worker("lib", path, "run")
            setups.append(res["ready"] - start)
            passes.append(res)
        extra = {
            "setups": setups,
            "pass_s": [p["done"] - p["ready"] for p in passes],
        }
    outs = [[it["out"] for it in p["items"]] for p in passes]
    problems = []
    for n, other in enumerate(outs[1:], start=2):
        if json.dumps(other) != json.dumps(outs[0]):
            problems.append("pass %d outputs differ from pass 1" % n)
    problems += outputs_problems(workload, items, outs[0])
    failed = sum(1 for o in outs for x in o if "error" in x)
    samples = [it["ms"] for p in passes for it in p["items"]]
    return dict(extra, samples=samples, attempted=len(samples), failed=failed, problems=problems)


def _cli_argv(entry, path, traced=None):
    if traced is None:
        head = [sys.executable, "-c", CLI_ENTRY]
    else:
        head = [sys.executable, os.path.join(HERE, "worker.py"), "cli", *traced, "--"]
    args = ["--json", *entry["flags"]]
    return head + ([path] if path else []) + args


def cli_pass(scripts, paths, trace_dir=None):
    walls, results = [], []
    for i, (entry, path) in enumerate(zip(scripts, paths)):
        traced = None
        if trace_dir is not None:
            traced = [
                os.path.join(trace_dir, "%02d.tsv.gz" % i),
                os.path.join(trace_dir, "%02d.json" % i),
                str(i),
            ]
        start, end, proc = spawn(_cli_argv(entry, path, traced))
        walls.append(end - start)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return walls, results


def cli_run(seed, count, trace):
    scripts = corpus.cli_scripts(seed, count)
    folder = os.path.join(OUT, "cli-%d" % seed)
    os.makedirs(folder, exist_ok=True)
    paths, decl_paths = [], []
    for i, entry in enumerate(scripts):
        path = decl = None
        if entry["text"] is not None:
            path = os.path.join(folder, "%02d.gpf" % i)
            decl = os.path.join(folder, "%02d.decl.gpf" % i)
            for p, text in ((path, entry["text"]), (decl, entry["decls"])):
                with open(p, "w", encoding="utf-8") as handle:
                    handle.write(text)
        paths.append(path)
        decl_paths.append(decl)
    chain = next(i for i, e in enumerate(scripts) if e["kind"] == "chain")
    _, _, proc = spawn(_cli_argv(scripts[chain], paths[chain]))
    if proc.returncode != 0:
        raise ChildError("warm-up exited %d: %s" % (proc.returncode, proc.stderr[-2000:]))
    decl_results = []
    if trace:
        trace_dir = os.path.join(OUT, "trace-quotient-cli-%d" % seed)
        os.makedirs(trace_dir, exist_ok=True)
        plain_walls, plain = cli_pass(scripts, paths)
        walls, traced = cli_pass(scripts, paths, trace_dir)
        runs, samples_walls = [plain, traced], [plain_walls, walls]
        totals = {}
        for i in range(len(scripts)):
            with open(os.path.join(trace_dir, "%02d.json" % i), encoding="utf-8") as handle:
                totals = tracer.add_totals(totals, json.load(handle))
        extra = {"totals": totals, "overhead_s": sum(walls) - sum(plain_walls)}
    else:
        runs, samples_walls = [], []
        for _ in range(PASSES):
            walls, results = cli_pass(scripts, paths)
            runs.append(results)
            samples_walls.append(walls)
        setups = []
        for entry, decl in zip(scripts, decl_paths):
            if decl is None:
                continue
            start, end, proc = spawn(_cli_argv(entry, decl))
            setups.append(end - start)
            decl_results.append((proc.returncode, proc.stdout, proc.stderr))
        extra = {"setups": setups, "pass_s": [sum(w) for w in samples_walls]}
    failed = sum(1 for results in runs for code, _, _ in results if code != 0)
    problems = checks.cli(scripts, runs, decl_results)
    samples = [w * 1e3 for walls in samples_walls for w in walls]
    return dict(extra, samples=samples, attempted=len(samples), failed=failed, problems=problems)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gpfkit", "__init__.py")):
        sys.stderr.write("error: no gpfkit sources under %s\n" % SRC)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # at least four items, so that PASSES passes give a tail
    count = max(4, round(args.seconds * DENSITY[args.workload]))
    try:
        if args.workload == "quotient-cli":
            res = cli_run(args.seed, count, args.trace)
        else:
            res = library_run(args.workload, args.seed, count, args.trace)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    samples = res["samples"]
    raw = os.path.join(OUT, "samples-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(raw, "w", encoding="utf-8") as handle:
        json.dump({k: v for k, v in res.items() if k != "totals"}, handle)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": tracer.unit(name)}
            for name, value in tracer.metrics(res["totals"], res["overhead_s"]).items()
        }
    else:
        pct, tail_ms = tail(samples)
        print(
            "%s seed %d: %d items x %d passes; tail is p%d of %d samples"
            % (args.workload, args.seed, count, PASSES, pct, len(samples))
        )
        metrics = {
            "items_per_s": {"value": count / statistics.median(res["pass_s"]), "unit": "1/s"},
            "item_ms_p50": {"value": statistics.median(samples), "unit": "ms"},
            "item_ms_tail": {"value": tail_ms, "unit": "ms"},
            "setup_s": {"value": statistics.median(res["setups"]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    for name, m in metrics.items():
        print("%-45s %14.6f %s" % (name, m["value"], m["unit"]))
    print("attempted %d failed %d" % (res["attempted"], res["failed"]))
    for problem in res["problems"][:20]:
        sys.stderr.write("check failed: %s\n" % problem)
    correct = not res["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
