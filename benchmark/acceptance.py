#!/usr/bin/env python3
"""Runs one acceptance set and reports each metric's spread.

A set is --runs untraced runs of every workload, each with another seed,
through benchmark/run.sh from the repository root. For every end-to-end
metric the spread is the distance between the first and third quartile of its
values (statistics.quantiles(values, n=4)) as a share of their median; it is
printed beside the bound BENCHMARK.json fixes. With --compare, the medians are
also checked against those of an earlier set: none may be worse by more than
its bound.

    python3 benchmark/acceptance.py --out set1.json
    python3 benchmark/acceptance.py --out set2.json --compare set1.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run(manifest, workload, seed):
    cmd = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
    start = time.time()
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output checks failed")
    lines = out.splitlines()
    digest = [l.split()[1] for l in lines if l.startswith("sim_digest ")]
    return {"seed": seed, "elapsed_s": time.time() - start, "box": lines[0],
            "sim_digest": digest[0] if digest else None,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write every run of the set to this file")
    ap.add_argument("--compare", help="an earlier set to compare the medians with")
    args = ap.parse_args()

    manifest = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in manifest["workloads"]]
    runs = {w: [] for w in workloads}
    # Seeds outermost: each workload's runs are spread over the whole set, so
    # the spread includes however much the box drifts meanwhile.
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            runs[w].append(run(manifest, w, seed))
            print(f"{w} seed {seed}: {runs[w][-1]['elapsed_s']:.1f} s", file=sys.stderr)
    if args.out:
        box = runs[workloads[0]][0]["box"]
        for rs in runs.values():
            for r in rs:
                del r["box"]
        json.dump({"box": box, "runs": runs}, open(args.out, "w"), indent=1)

    earlier = json.load(open(args.compare))["runs"] if args.compare else None
    failed = False
    print(f"{'workload':15} {'metric':20} {'median':>12} {'spread':>8} {'bound':>7}")
    for w in workloads:
        for m in manifest["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs[w]]
            med, sp = statistics.median(values), spread(values)
            line = f"{w:15} {m['name']:20} {med:12.6g} {sp:8.4f} {m['bound']:7.3f}"
            if sp > m["bound"] and m["name"] != "setup_s":
                line += "  SPREAD ABOVE BOUND"
                failed = True
            elif sp > m["bound"] / 3:
                line += "  (above a third of the bound)"
            if earlier:
                before = statistics.median(r["metrics"][m["name"]] for r in earlier[w])
                worse = (med - before) / before * (1 if m["better"] == "lower" else -1)
                line += f"  vs earlier set {worse:+.4f}"
                if worse > m["bound"]:
                    line += "  MEDIAN WORSE THAN BOUND"
                    failed = True
            print(line)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
