#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark, and the verdict on a claimed gain.

    python3 tools/ab_bench.py <parent> <change> --workload W --seeds A-B [--label L] [--parity]

With --parity it first runs `tools/parity_hash.py --tolerant <parent>
<change>`. If the two checkouts differ (a root gained or lost, a count or a
diagnostic kind changed, a residual over its bound), it prints the verdict's
lines that are not `equal` and exits 1 without timing anything.

For each seed S from A to B, runs `bench/run.py --workload W --seed S
--seconds <run_seconds> --trace 0` once in each checkout, the parent first
on odd seeds and the change first on even ones. Each run is its own process,
started in its checkout, and leaves its result in that checkout's
`.bench_out/`. `run_seconds` and the end-to-end metrics with their
directions come from the change checkout's BENCHMARK.json.

Writes BENCH_<label>.json (label: the workload by default) at the root of
the repository that holds this tool. It records the machine (nproc,
platform), both commits, whether --parity found them equal (false: not
checked), every pair's end-to-end metrics with each run's
`correct` flag and failed/attempted job counts, and per metric the medians,
the quartiles, the wins and the verdict. A change is a gain on a metric when
it is better in at least 9 of every 10 pairs (a tie is no win) and its
median beats the parent's by more than the parent's quartile spread.
Quartiles interpolate linearly between order statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def read_result(path: Path) -> dict:
    """One run's record as bench/run.py writes it, cut to what a pair keeps."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {"seed": doc["meta"]["seed"], "commit": doc["meta"]["git_sha"],
            "correct": doc["correct"], "failed": doc["failed"], "attempted": doc["attempted"],
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()}}


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric (better: name -> "lower" or "higher") the medians, quartiles,
    wins and gain verdict of (parent, change) result pairs, and whether every
    run was correct and failed the same share of jobs as its pair."""
    metrics = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        parent = np.array([p["metrics"][name] for p, _ in pairs])
        change = np.array([c["metrics"][name] for _, c in pairs])
        wins = int((sign * (change - parent) < 0).sum())
        q1, median, q3 = np.percentile(parent, [25, 50, 75])
        gap = sign * (median - np.median(change))
        metrics[name] = {
            "better": direction,
            "parent_median": median, "change_median": float(np.median(change)),
            "parent_quartiles": [q1, q3],
            "change_quartiles": np.percentile(change, [25, 75]).tolist(),
            "median_gap": gap, "wins": wins, "pairs": len(pairs),
            "gain": bool(10 * wins >= 9 * len(pairs) and gap > q3 - q1),
        }
    return {
        "metrics": metrics,
        "correct": all(r["correct"] for pair in pairs for r in pair),
        "failed_share_equal": all(p["failed"] * c["attempted"] == c["failed"] * p["attempted"]
                                  for p, c in pairs),
    }


def parity(parent: Path, change: Path) -> tuple[int, list[str]]:
    """tools/parity_hash.py --tolerant on the two checkouts: its exit code and the
    lines of its verdict that are not `equal` (the groups that differ, then each
    root gained or lost and each residual over its bound)."""
    cmd = [sys.executable, str(ROOT / "tools" / "parity_hash.py"), "--tolerant",
           str(parent), str(change)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    verdict = out.stdout.partition("# verdict\n")[2].splitlines()
    return out.returncode, [line for line in verdict if not line.endswith(" equal")]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    return read_result(checkout / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, metavar="A-B")
    parser.add_argument("--label", help="names the output file (default: the workload)")
    parser.add_argument("--parity", action="store_true",
                        help="time nothing unless tools/parity_hash.py --tolerant finds the "
                        "checkouts equal")
    args = parser.parse_args(argv[1:])
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        parser.error(f"empty seed range {args.seeds}")
    if args.parity:
        code, lines = parity(args.parent, args.change)
        if code:
            print(f"parity: tools/parity_hash.py --tolerant exited {code}; nothing timed",
                  *lines, sep="\n")
            return 1
        print("parity: equal", flush=True)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = []
    for seed in seeds:
        order = [args.parent, args.change] if seed % 2 else [args.change, args.parent]
        runs = {checkout: run_once(checkout, args.workload, seed, spec["run_seconds"])
                for checkout in order}
        pairs.append((runs[args.parent], runs[args.change]))
        print(f"seed {seed}: " + "  ".join(
            f"{name} {runs[args.parent]['metrics'][name]:.6g} -> "
            f"{runs[args.change]['metrics'][name]:.6g}" for name in better), flush=True)
    summary = summarize(pairs, better)
    doc = {"workload": args.workload, "seconds": spec["run_seconds"], "parity": args.parity,
           "nproc": len(os.sched_getaffinity(0)),
           "platform": platform.platform(),
           "parent": pairs[0][0]["commit"], "change": pairs[0][1]["commit"],
           "pairs": [{"parent": p, "change": c} for p, c in pairs],
           **summary}
    out = ROOT / f"BENCH_{args.label or args.workload}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, m in summary["metrics"].items():
        print(f"{name}: {m['parent_median']:.6g} -> {m['change_median']:.6g}, "
              f"{m['wins']} of {m['pairs']} better, gain {m['gain']}")
    print(f"correct {summary['correct']}, failed share equal {summary['failed_share_equal']}; "
          f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
