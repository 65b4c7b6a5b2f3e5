"""Paired A/B timing of one benchmark workload between two checkouts.

    python tools/ab.py <parent> <change> --workload W [--pairs 10] [--passes 5]

Each pair runs the two checkouts one after the other, each in a fresh
process, and alternates which goes first (the parent in pairs 1, 3, 5, ...). A process imports the library and the workload from its
own checkout (src/ and perfbench/workloads.py), runs the set-up at seed
1 + pair index, one untimed pass, then --passes timed passes of the workload's
operations, with no scaling to a nominal host speed. Its reading is the mean
wall and CPU time of a pass. Both sides of a pair use the same seed.

The report gives each side's median wall and CPU time, the paired ratio
change/parent of wall time (median and quartiles), the number of pairs the
change won (ratio below 1), failed operations per side, and whether the
workload's `tools/fingerprint.py` hash is equal on both sides. It also gives
each side's traced work counts (every metric in unit "count" of one
`perfbench/run.py --trace 1` run at seed 1, in a fresh process per side) and
prints each count that differs. The last line of standard output is one JSON
object with the same numbers.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent


def side(root, workload_name, seed, passes):
    """One side in this process: {"wall_s", "cpu_s", "failed", "fingerprint"}."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench"), str(TOOLS)]
    import shadecraft
    from fingerprint import _workload_hash
    from workloads import WORKLOADS
    if Path(shadecraft.__file__).resolve().parent != root / "src" / "shadecraft":
        raise SystemExit(f"shadecraft was imported from outside {root}")

    workload = WORKLOADS[workload_name]
    state = workload.setup(seed)
    ops = workload.ops(state, seed)
    failed = 0

    def one_pass():
        nonlocal failed
        for op in ops:
            try:
                op.call()
            except Exception:  # a failing call is counted, as the benchmark does
                failed += 1

    one_pass()  # lazy tables and first-use costs are not timed
    failed = 0
    wall, cpu = [], []
    for _ in range(passes):
        w0, c0 = time.perf_counter(), time.process_time()
        one_pass()
        wall.append(time.perf_counter() - w0)
        cpu.append(time.process_time() - c0)
    return {"wall_s": statistics.fmean(wall), "cpu_s": statistics.fmean(cpu),
            "failed": failed, "fingerprint": _workload_hash(workload)}


def run_side(root, workload, seed, passes):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--side", str(root),
         "--workload", workload, "--seed", str(seed), "--passes", str(passes)],
        capture_output=True, text=True)
    if out.returncode:
        raise SystemExit(f"{root} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def traced_counts(root, workload):
    """{metric: value} for every count of one traced benchmark run of the checkout."""
    out = subprocess.run(
        [sys.executable, str(Path(root).resolve() / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True)
    if out.returncode:
        raise SystemExit(f"traced run of {root} failed:\n{out.stderr}")
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--side", help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, default=1, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.passes < 1 or args.pairs < 1:
        ap.error("--pairs and --passes must be >= 1")
    if args.side:
        print(json.dumps(side(args.side, args.workload, args.seed, args.passes)))
        return
    if not (args.parent and args.change):
        ap.error("give a parent and a change checkout")

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            root = args.parent if name == "parent" else args.change
            runs[name].append(run_side(root, args.workload, 1 + i, args.passes))
        p, c = runs["parent"][-1], runs["change"][-1]
        print(f"pair {i + 1}: parent {p['wall_s']:.4f} s, change {c['wall_s']:.4f} s, "
              f"ratio {c['wall_s'] / p['wall_s']:.3f}", flush=True)

    report = {"workload": args.workload, "pairs": args.pairs, "passes": args.passes}
    for name, rs in runs.items():
        report[name] = {
            "wall_s": [r["wall_s"] for r in rs],
            "wall_s_median": statistics.median(r["wall_s"] for r in rs),
            "cpu_s_median": statistics.median(r["cpu_s"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
        }
    ratios = [c["wall_s"] / p["wall_s"] for p, c in zip(runs["parent"], runs["change"])]
    q1, med, q3 = (float(q) for q in np.percentile(ratios, [25, 50, 75]))
    report["ratio"] = {"median": med, "q1": q1, "q3": q3}
    report["change_wins"] = sum(r < 1 for r in ratios)
    prints = {r["fingerprint"] for rs in runs.values() for r in rs}
    report["fingerprints_equal"] = len(prints) == 1
    counts = {name: traced_counts(args.parent if name == "parent" else args.change,
                                  args.workload) for name in runs}
    report["counts"] = counts
    report["counts_differ"] = {k: [counts["parent"].get(k), counts["change"].get(k)]
                               for k in sorted(counts["parent"].keys() | counts["change"].keys())
                               if counts["parent"].get(k) != counts["change"].get(k)}

    for name in runs:
        r = report[name]
        print(f"{name}: wall median {r['wall_s_median']:.4f} s, "
              f"cpu median {r['cpu_s_median']:.4f} s, failed ops {r['failed']}")
    print(f"ratio change/parent: median {med:.3f} [q1-q3 {q1:.3f}-{q3:.3f}], "
          f"change faster in {report['change_wins']} of {args.pairs} pairs")
    print(f"fingerprints equal: {report['fingerprints_equal']}")
    for k, (p, c) in report["counts_differ"].items():
        print(f"traced count {k}: parent {p}, change {c}")
    print(f"traced counts that differ: {len(report['counts_differ'])} "
          f"of {len(counts['parent'])}")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
