"""Paired A/B timing of one benchmark workload between two checkouts.

    python tools/ab.py <parent> <change> --workload W [--pairs 10] [--passes N]

Each pair starts both checkouts at once as live processes, one per checkout.
A process imports the library and the workload from its own checkout (src/
and perfbench/workloads.py), runs the set-up at seed 1 + pair index and one
untimed pass, and then waits. The two processes then take turns, --passes
rounds of them: in a round, single timed set-ups alternate between them, and
then single timed passes, and only one runs at a time. Without --passes the
count is sized once, from the first pair's two untimed passes, so that each
side times about SPAN_S seconds of passes per pair (`passes_for`); every
pair uses that count, and the report prints it and gives it as "passes". A
set-up's result is dropped at once, as perfbench's set-up batches drop
theirs, so each set-up allocates its tables afresh next to the live state of
the pass, and the minor page faults it takes (from getrusage) are counted.
The side that goes first alternates from one round to the next, and between
pairs (the parent opens pairs 1, 3, 5, ...). Host drift during a pair thus
falls on both sides alike, a call apart, rather than on whichever process
happened to run later. A side's pass reading is the mean wall and CPU time
of its passes, with no scaling to a nominal host speed. Both sides of a pair
use the same seed.

The report gives each side's median wall and CPU time, the paired ratio
change/parent of wall time (median and quartiles), the number of pairs the
change won (ratio below 1), failed operations per side, and whether the
workload's `tools/fingerprint.py` hash is equal on both sides. For set-up it
gives each side's median wall time of one set-up, unscaled, and its median
minor page faults per set-up, over every set-up of every pair. After its timed
passes each side runs one more pass under a profile hook that counts the
Python-level calls into numpy's and scipy's own modules (wrappers such as
np.clip, not the compiled loops they end in); the report gives each side's
count per pair and its median. It also gives each side's traced work counts
(every metric in unit "count" of one `perfbench/run.py --trace 1` run at seed
1, in a fresh process per side) and prints each count that differs. The last line of standard output is one JSON
object with the same numbers.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

TOOLS = Path(__file__).resolve().parent
# seconds of timed passes per side per pair when --passes is not given
SPAN_S = 1.0
# the directories of numpy's and scipy's Python modules
LIBRARY_DIRS = tuple(str(Path(m.__file__).resolve().parent) + os.sep for m in (np, scipy))


def library_calls(fn):
    """The number of Python-level calls fn() makes into numpy's and scipy's
    modules, counted by a profile hook: a call is a Python function's frame
    starting whose code lies under LIBRARY_DIRS. Compiled functions and
    ufuncs are not Python frames and are not counted."""
    n = 0

    def hook(frame, event, arg):
        nonlocal n
        if event == "call" and frame.f_code.co_filename.startswith(LIBRARY_DIRS):
            n += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return n


def passes_for(pass_s):
    """The pass count that times about SPAN_S per side, from each side's
    untimed pass time in pass_s: SPAN_S over their mean, rounded, at least 1."""
    return max(1, round(SPAN_S / statistics.fmean(pass_s)))


def serve(root, workload_name, seed):
    """One side in this process. After the set-up and an untimed pass, which
    it reports as {"ready", "pass_s"}, it answers each "pass" line on standard
    input with one timed pass, {"wall_s", "cpu_s"}, each "setup" line with
    one timed set-up whose result is dropped, {"setup_s", "faults"}, and
    "end" with {"failed", "fingerprint", "library_calls"}, the last from one
    more pass, profiled and not timed, whose failed operations are not
    counted."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench"), str(TOOLS)]
    import shadecraft
    from fingerprint import _workload_hash
    from workloads import WORKLOADS
    if Path(shadecraft.__file__).resolve().parent != root / "src" / "shadecraft":
        raise SystemExit(f"shadecraft was imported from outside {root}")
    # answers go to the real standard output; anything else printed goes to stderr
    answer, sys.stdout = sys.stdout, sys.stderr

    def say(obj):
        print(json.dumps(obj), file=answer, flush=True)

    workload = WORKLOADS[workload_name]
    state = workload.setup(seed)
    ops = workload.ops(state, seed)
    failed = 0

    def one_pass():
        failed = 0
        for op in ops:
            try:
                op.call()
            except Exception:  # a failing call is counted, as the benchmark does
                failed += 1
        return failed

    w0 = time.perf_counter()
    one_pass()  # lazy tables and first-use costs are not in a timed pass
    say({"ready": True, "pass_s": time.perf_counter() - w0})
    for line in sys.stdin:
        if line.strip() == "pass":
            w0, c0 = time.perf_counter(), time.process_time()
            failed += one_pass()
            say({"wall_s": time.perf_counter() - w0, "cpu_s": time.process_time() - c0})
        elif line.strip() == "setup":
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            w0 = time.perf_counter()
            workload.setup(seed)
            say({"setup_s": time.perf_counter() - w0,
                 "faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0})
        else:
            say({"library_calls": library_calls(one_pass), "failed": failed,
                 "fingerprint": _workload_hash(workload)})
            return


class Side:
    """A live `serve` process of one checkout."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.err = tempfile.TemporaryFile(mode="w+")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--side", str(root),
             "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err, text=True)

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            self.err.seek(0)
            raise SystemExit(f"{self.root} failed:\n{self.err.read()}")
        return json.loads(line)

    def ask(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.err.close()


def run_pair(roots, workload, seed, passes, first):
    """(passes, {name: {"wall_s", "cpu_s", "setups", "failed", "fingerprint",
    "library_calls"}}) for one pair, "setups" being each set-up's {"setup_s",
    "faults"}; the side at index `first` of `roots` opens the first round.
    passes None is sized by passes_for from the two untimed passes."""
    sides = {name: Side(root, workload, seed) for name, root in roots.items()}
    try:
        warm = [s.read()["pass_s"] for s in sides.values()]  # set up and warmed
        passes = passes or passes_for(warm)
        names = list(sides)
        times = {name: [] for name in names}
        setups = {name: [] for name in names}
        for j in range(passes):
            order = names if (first + j) % 2 == 0 else names[::-1]
            for name in order:
                setups[name].append(sides[name].ask("setup"))
            for name in order:
                times[name].append(sides[name].ask("pass"))
        out = {}
        for name, s in sides.items():
            out[name] = {"wall_s": statistics.fmean(t["wall_s"] for t in times[name]),
                         "cpu_s": statistics.fmean(t["cpu_s"] for t in times[name]),
                         "setups": setups[name], **s.ask("end")}
        return passes, out
    finally:
        for s in sides.values():
            s.close()


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
    ap.add_argument("--passes", type=int, help="timed passes per side per pair "
                    f"(default: about {SPAN_S:g} s of them, sized on the first pair)")
    ap.add_argument("--side", help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, default=1, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.pairs < 1 or (args.passes is not None and args.passes < 1):
        ap.error("--pairs and --passes must be >= 1")
    if args.side:
        serve(args.side, args.workload, args.seed)
        return
    if not (args.parent and args.change):
        ap.error("give a parent and a change checkout")

    runs = {"parent": [], "change": []}
    roots = {"parent": args.parent, "change": args.change}
    passes = args.passes
    for i in range(args.pairs):
        passes, pair = run_pair(roots, args.workload, 1 + i, passes, first=i % 2)
        if i == 0:
            how = "--passes" if args.passes else f"sized to ~{SPAN_S:g} s on pair 1"
            print(f"passes per side per pair: {passes} ({how})", flush=True)
        for name in runs:
            runs[name].append(pair[name])
        p, c = pair["parent"], pair["change"]
        print(f"pair {i + 1}: parent {p['wall_s']:.4f} s, change {c['wall_s']:.4f} s, "
              f"ratio {c['wall_s'] / p['wall_s']:.3f}", flush=True)

    report = {"workload": args.workload, "pairs": args.pairs, "passes": passes}
    for name, rs in runs.items():
        setups = [u for r in rs for u in r["setups"]]
        report[name] = {
            "wall_s": [r["wall_s"] for r in rs],
            "wall_s_median": statistics.median(r["wall_s"] for r in rs),
            "cpu_s_median": statistics.median(r["cpu_s"] for r in rs),
            "setup_s_median": statistics.median(u["setup_s"] for u in setups),
            "setup_faults_median": statistics.median(u["faults"] for u in setups),
            "failed": sum(r["failed"] for r in rs),
            "library_calls": [r["library_calls"] for r in rs],
            "library_calls_median": statistics.median(r["library_calls"] for r in rs),
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
              f"cpu median {r['cpu_s_median']:.4f} s, failed ops {r['failed']}; "
              f"set-up median {r['setup_s_median']:.4f} s, "
              f"{r['setup_faults_median']:g} minor faults per set-up; "
              f"numpy and scipy Python calls per pass {r['library_calls_median']:g}")
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
