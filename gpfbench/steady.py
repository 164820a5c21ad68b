"""Steadiness check: two sets of runs of the same code.

    python3 gpfbench/steady.py            # two sets, seeds 1..10, every workload
    python3 gpfbench/steady.py --traced   # two traced runs per workload, seed 1

Each set runs every workload of BENCHMARK.json once per seed.  For each
workload and end-to-end metric the command prints, per set, the median
and quartiles over seeds and the spread (quartile distance over median),
then the gap between the two set medians (their distance over the first
set's median), each against the metric's bound.  It also compares the
share of failed operations between runs, which must be equal.

``--traced`` makes two traced runs per workload instead, checks that the
reported names are BENCHMARK.json's per-layer metrics and that every
count is identical, and prints the tracing overhead of each.
The raw results go to gpfbench/out/steady-*.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEEDS = range(1, 11)
TRACED_SEED = 1


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(bench, workload, seed, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py")]
    argv += ["--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s seed %d exited %d" % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = wall
    print("  %s seed %d: %.1f s" % (workload, seed, wall), flush=True)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def sets_main(bench, workloads):
    raw = {w: [] for w in workloads}
    for n in range(SETS):
        print("set %d" % (n + 1), flush=True)
        for w in workloads:
            raw[w].append([run_once(bench, w, s, 0) for s in SEEDS])
    ok = True
    for w in workloads:
        print("\n%s" % w)
        shares = {r["failed"] / r["attempted"] for runs in raw[w] for r in runs}
        if len(shares) != 1:
            ok = False
        print("  failed share per run: %s" % sorted(shares))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for n, runs in enumerate(raw[w]):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3, sp = spread(values)
                medians.append(q2)
                ok = ok and sp < bound
                print(
                    "  %-13s set %d  q1 %11.4f  median %11.4f  q3 %11.4f  spread %6.2f%%  (bound %g, third %.2f%%) %s"
                    % (name, n + 1, q1, q2, q3, 100 * sp, bound, 100 * bound / 3, "ok" if sp < bound else "OVER")
                )
            gap = abs(medians[1] - medians[0]) / medians[0]
            ok = ok and gap < bound
            print(
                "  %-13s set 2 vs 1: medians differ by %.2f%% (bound %g) %s"
                % (name, 100 * gap, bound, "ok" if gap < bound else "OVER")
            )
    return ok, raw


def traced_main(bench, workloads):
    expected = [m["name"] for m in bench["per_layer"]]
    raw = {w: [run_once(bench, w, TRACED_SEED, 1) for _ in range(2)] for w in workloads}
    ok = True
    for w in workloads:
        a, b = (r["metrics"] for r in raw[w])
        if list(a) != expected or list(b) != expected:
            ok = False
            print("%s: reported names differ from BENCHMARK.json per_layer" % w)
        counts = [k for k, v in a.items() if v["unit"] == "count"]
        differ = [k for k in counts if a[k]["value"] != b[k]["value"]]
        ok = ok and not differ
        print(
            "%s: %d counts, %s; overhead %.3f s and %.3f s"
            % (
                w,
                len(counts),
                "identical" if not differ else "DIFFERENT: %s" % ", ".join(differ),
                a["trace.overhead_s"]["value"],
                b["trace.overhead_s"]["value"],
            )
        )
    return ok, raw


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    bench = load_bench()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.traced:
        ok, raw = traced_main(bench, workloads)
    else:
        ok, raw = sets_main(bench, workloads)
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "steady-%d.json" % int(time.time()))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(raw, handle, indent=1)
    print("\n%s; raw results in %s" % ("steady" if ok else "NOT steady", os.path.relpath(path, ROOT)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
