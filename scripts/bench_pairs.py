#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write BENCH_<pr>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pr 9 --seeds 901-910

PARENT_DIR and CHANGE_DIR are checkouts of the two commits (git clones, so
that each run records its commit).  Pair k runs

    python3 bench/run_bench.py --workload all --trace 0 --seed S_k

in both, the parent first in odd pairs and the change first in even ones.
Each run keeps its per-workload ``env`` lines and its final JSON line.
The set's summary gives, for every end-to-end metric that the change's
BENCHMARK.json declares on each workload, the medians and quartiles of
both sides and the number of pairs the change wins.  The file is
rewritten after every pair, so an interrupted set keeps the pairs it
finished.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WHAT = ("bench/run_bench.py --workload all --trace 0 --seed S on the parent commit and on "
        "this change, in alternating pairs: pair k of a set uses the set's k-th seed, odd "
        "pairs run the parent first and even pairs the change first. Each run keeps its "
        "three per-workload env lines and its final JSON line; summary gives medians, "
        "quartiles and the change's wins.")


def parse_seeds(text: str) -> list:
    """"301-310" or "5,7,9" -> the seeds, in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def commit(checkout: Path):
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_once(checkout: Path, seed: int) -> dict:
    """One benchmark run in checkout: its env lines and its final JSON line."""
    cmd = [sys.executable, "bench/run_bench.py", "--workload", "all", "--trace", "0",
           "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: run in {checkout} (seed {seed}) exited with "
                         f"{done.returncode}:\n" + "\n".join(lines[-5:]))
    return {"env": [json.loads(line[len("env "):]) for line in lines if line.startswith("env ")],
            "result": json.loads(lines[-1])}


def end_to_end_metrics(checkout: Path) -> dict:
    """{"<workload>.<metric>": "higher" | "lower"} from BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {f"{w['name']}.{m['name']}": m["better"]
            for w in spec["workloads"] for m in spec["end_to_end"]}


def summarize(runs: list, metrics: dict) -> dict:
    """Medians, inclusive quartiles and change wins per metric, over the
    pairs whose two runs both finished."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    out = {}
    for name, better in metrics.items():
        sides = {side: [p[side][name]["value"] for p in pairs] for side in ("parent", "change")}
        wins = sum((c > p) if better == "higher" else (c < p)
                   for p, c in zip(sides["parent"], sides["change"]))
        row = {"better": better, "pairs": len(pairs), "change_wins": wins}
        for side, vals in sides.items():
            q1, median, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                              if len(vals) > 1 else vals * 3)
            row.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
        row["change_over_parent"] = row["change_median"] / row["parent_median"]
        out[name] = row
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help='one seed per pair: "301-310" or "5,7,9"')
    ap.add_argument("--note", default="", help="what this set measures")
    ap.add_argument("--host", default=f"{os.cpu_count()}-CPU host")
    args = ap.parse_args(argv)
    out = Path(f"BENCH_{args.pr}.json")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = end_to_end_metrics(checkouts["change"])
    seeds = args.seeds
    span = f"{seeds[0]}-{seeds[-1]}" if seeds == list(range(seeds[0], seeds[-1] + 1)) \
        else ",".join(map(str, seeds))
    bench_set = {"note": args.note, "parent_commit": commit(checkouts["parent"]),
                 "change_commit": commit(checkouts["change"]), "seeds": span,
                 "all_correct": True, "summary": {}, "runs": []}
    doc = {"what": WHAT, "host": args.host, "sets": [bench_set]}
    for pair, seed in enumerate(seeds, 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for position, side in enumerate(order, 1):
            print(f"pair {pair}/{len(seeds)} seed {seed}: {side}", file=sys.stderr, flush=True)
            run = run_once(checkouts[side], seed)
            result = run["result"]
            bench_set["all_correct"] &= result["correct"] and result["failed"] == 0
            bench_set["runs"].append({"pair": pair, "seed": seed, "side": side,
                                      "position_in_pair": position, **run})
        bench_set["summary"] = summarize(bench_set["runs"], metrics)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, row in bench_set["summary"].items():
        print(f"{name}: parent {row['parent_median']:.6g} [{row['parent_q1']:.6g}-"
              f"{row['parent_q3']:.6g}] -> change {row['change_median']:.6g} "
              f"[{row['change_q1']:.6g}-{row['change_q3']:.6g}] "
              f"(x{row['change_over_parent']:.3f}, wins {row['change_wins']}/{row['pairs']})")
    return 0 if bench_set["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
