"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 30
    python3 perfbench/spread.py --workloads bsp-fit --seeds 1-5 --seconds 30
    python3 perfbench/spread.py --seeds 1-10 --seconds 30 --out perfbench/baseline.json
    python3 perfbench/spread.py --seeds 11-20 --against perfbench/baseline.json

For every workload and end-to-end metric it prints the median of the runs
and the distance between their first and third quartiles as a share of the
median (statistics.quantiles, n=4), flags a spread above a third of the
metric's bound, and exits 1 if any is flagged or an answer was wrong. With
--against it also compares each median with the one in an earlier report
and flags a change for the worse by more than the bound. With --out it
writes medians, spreads and the machine (nproc, Python, numpy, scipy,
commit) to a JSON file, with the per-layer metrics of a traced run at the
first seed and the work counts that differ at the last.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# ROADMAP Baseline figures, measured by hand before this benchmark existed,
# and the traced metric that replaces each: (figure, ROADMAP value,
# workload, value from the per-layer metrics, unit)
ROADMAP_BASELINE = (
    ("Monte Carlo, equilibrium grid strategies, 1 worker", "0.38 M rounds/s",
     "mc-equilibrium", lambda m: 1e-6 * m["payoff.mc.rounds_per_s"], "M rounds/s"),
    ("Monte Carlo, equilibrium grid strategies, 2 workers over 1", "0.45/0.38 = 1.18x",
     "mc-equilibrium", lambda m: m["payoff.mc.speedup_w2"], "x"),
    ("virtual_value_clamped per 65,536 points", "4.5 ms", "mc-equilibrium",
     lambda m: 65536e3 * m["dist.grid.psi.self_s"] / m["dist.grid.psi.points"], "ms"),
    ("GridFunction.__call__ per 65,536 points", "16.5 ms", "mc-equilibrium",
     lambda m: 65536e3 * m["dist.grid.bid.self_s"] / m["dist.grid.bid.points"], "ms"),
    ("_inverse_virtual_clamped per 65,536 points", "63 ms", "mc-equilibrium",
     lambda m: 65536e3 * m["dist.grid.psi_inv.self_s"] / m["dist.grid.psi_inv.points"], "ms"),
    ("bsp_payoff", "12-21 ms", "bsp-fit", lambda m: m["payoff.bsp_payoff.p50_ms"], "ms (median)"),
    ("bsp_payoff_gradient, median over the test box", "56 ms", "bsp-fit",
     lambda m: m["payoff.bsp_gradient.p50_ms"], "ms"),
    ("worst-case gradient at GP(0.0872, 0.0888, -0.0026)", "~30 s", "bsp-fit",
     lambda m: 1e-3 * m["payoff.bsp_gradient.max_ms"], "s"),
    ("worst-case gradient, integrand calls in one integral", "~100,000 (the cap)", "bsp-fit",
     lambda m: m["quad.max_evals_per_call"], "calls"),
)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "iqr_share": (q3 - q1) / med if med else float("nan"),
            "values": values}


def environment():
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
            "machine": platform.machine()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    report = {"environment": environment(), "seconds": args.seconds, "workloads": {}}
    ok = True
    seeds = parse_seeds(args.seeds)
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}}
        for name in bounds:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            steady = s["iqr_share"] <= bounds[name] / 3
            ok &= steady
            shift = ""
            before = earlier.get(workload, {}).get("end_to_end", {}).get(name)
            if before:
                change = s["median"] / before["median"] - 1
                worse = change if lower[name] else -change
                ok &= worse <= bounds[name]
                shift = f" median change {change:+.4f}" + \
                    ("  <-- worse by more than the bound" if worse > bounds[name] else "")
            print(f"{workload:<18} {name:<12} median {s['median']:<12.6g} "
                  f"iqr/median {s['iqr_share']:.4f} bound {bounds[name]} "
                  f"[{' '.join(f'{v:.4g}' for v in s['values'])}]"
                  f"{'' if steady else '  <-- above a third of the bound'}{shift}")
        ok &= entry["correct"]
        print(f"{workload:<18} correct {entry['correct']} failed {entry['failed']}")
        if args.out:
            # traced runs at the first and last seed: the work counts that
            # differ between them depend on the seed's data
            first, last = (run_once(workload, seed, args.seconds, 1)["metrics"]
                           for seed in (seeds[0], seeds[-1]))
            entry["per_layer"] = {k: v["value"] for k, v in first.items()}
            entry["counts_differing_across_seeds"] = [
                k for k, v in first.items()
                if v["unit"] == "count" and v["value"] != last[k]["value"]]
            print(f"{workload:<18} counts differing between seeds {seeds[0]} and {seeds[-1]}: "
                  f"{entry['counts_differing_across_seeds']}")
        report["workloads"][workload] = entry
    if args.out:
        report["roadmap_baseline"] = [
            {"figure": figure, "roadmap": before, "workload": workload,
             "measured": value(report["workloads"][workload]["per_layer"]), "unit": unit}
            for figure, before, workload, value, unit in ROADMAP_BASELINE
            if workload in report["workloads"]]
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
