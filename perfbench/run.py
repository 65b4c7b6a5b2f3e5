"""shadecraft benchmark: one workload per run, closed loop, one client.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mc-equilibrium --seed 1 --seconds 30 --trace 0

With --trace 0 the run times the workload's pass (a fixed list of public
calls, in an order drawn from the seed) over and over for about --seconds,
checks every answer, and reports the end-to-end metrics; wall_s is the
mean pass time and setup_s the median set-up time, sampled before every
pass. Every time is scaled to a nominal host speed by a reference kernel
timed after each call (reference.py). With --trace 1 it runs one pass untraced, then installs span hooks on
the library's module boundaries and runs the set-up, one pass and the
workload's traced extras, and reports the per-layer metrics. The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the lines before it print every metric by name with its unit.

The library is imported from ./src of the checkout; the run fails without
printing a result when that source tree is missing.
"""

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from reference import SMALL_CALLS, HostSpeed
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
# set-up is timed in batches that repeat it for at least this long, so that
# a set-up of a millisecond is timed over many repeats and a slow one once
SETUP_BATCH_S = 0.05
# before every pass, set-up batches run for at least this long, so that a
# short set-up gets as many batches in a run as a long one
SETUP_SAMPLE_S = 0.15
# the timed phase runs at least this many passes, however long they take
MIN_PASSES = 3
# op_tail_ms: p90, the highest of 99/90 with at least ten samples beyond it
# in a run of every workload (mc-equilibrium makes ~170 calls in 30 s)
TAIL_LEVEL = 90.0
TRACE_DIR = ROOT / ".bench_out"

HOOKS = (
    ("shadecraft.payoff.bsp_payoff", "payoff.bsp_payoff", None),
    ("shadecraft.payoff.bsp_payoff_gradient", "payoff.bsp_gradient", None),
    ("shadecraft.payoff.CompetitionDistribution.cdf", "payoff.competition.cdf", 1),
    ("shadecraft.payoff.CompetitionDistribution.pdf", "payoff.competition.pdf", 1),
    ("shadecraft.payoff._outcomes", "payoff.outcomes", 0),
    ("shadecraft.payoff._chunk_stats", "payoff.mc.chunk", None),
    ("shadecraft.dist.GridFunction.__call__", "dist.grid.bid", 1),
    ("shadecraft.dist.GridDistribution.virtual_value_clamped", "dist.grid.psi", 1),
    ("shadecraft.dist.GridDistribution._inverse_virtual_clamped", "dist.grid.psi_inv", 1),
    ("shadecraft.dist.GridDistribution.__init__", "dist.grid.build", None),
    ("shadecraft.dist.GridFunction.__init__", "dist.grid.build", None),
    ("shadecraft.shade.equilibrium_shading", "shade.build", None),
    ("shadecraft.shade.first_price_bid", "shade.build", None),
    ("shadecraft.shade.gamma_from_target", "shade.build", None),
    ("shadecraft.shade.one_vs_uniform_shading", "shade.build", None),
    ("shadecraft.shade.ShadingStrategy.bid_distribution", "shade.build", None),
    ("shadecraft.mech.fit_mechanism", "mech.fit", None),
)
INTEGRATOR = "shadecraft._quad.integrate"
OPTIMIZER = "shadecraft.opt.maximize_bsp"


def import_library():
    """Put the checkout's src/ first on the path and import shadecraft from it."""
    src = ROOT / "src"
    if not (src / "shadecraft" / "__init__.py").is_file():
        raise SystemExit(f"no shadecraft source tree under {src}")
    sys.path.insert(0, str(src))
    import shadecraft
    if Path(shadecraft.__file__).resolve().parent != (src / "shadecraft").resolve():
        raise SystemExit("shadecraft was imported from outside the checkout")


# ----------------------------------------------------------------------
# operations and their failures

def numbers(value):
    """Every number in a result, flattened: for the finiteness and bit-identity checks."""
    if dataclasses.is_dataclass(value):
        return numbers([getattr(value, f.name) for f in dataclasses.fields(value)])
    if isinstance(value, (list, tuple)):
        parts = [numbers(v) for v in value]
        return np.concatenate(parts) if parts else np.zeros(0)
    if value is None:
        return np.zeros(0)
    return np.asarray(value, dtype=float).ravel()


def run_pass(workload, ops, log, speed=None):
    """Run each op once, in order. Returns (results, latencies_s, failed_indices);
    an op fails if it raises, returns a non-finite number, or misses its check.
    With a HostSpeed, latencies are scaled to its nominal speed."""
    results, latencies, failed = [], [], set()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            result = op.call()
            elapsed = time.perf_counter() - t0
        except Exception:  # a failing library call is a measured outcome
            elapsed = time.perf_counter() - t0
            result = None
            log(f"{op.kind} raised:\n{traceback.format_exc()}")
        latencies.append(speed.scale(elapsed) if speed else elapsed)
        if result is not None and not np.all(np.isfinite(numbers(result))):
            log(f"{op.kind} returned a non-finite value")
            result = None
        if result is None:
            failed.add(i)
        results.append(result)
    misses = workload.pass_misses(ops, results)
    for i in sorted(misses):
        log(f"{ops[i].kind} missed its answer check: {results[i]!r}")
    return results, latencies, failed | misses


def percentile(samples, level):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(int(np.ceil(len(ordered) * level / 100)), 1)
    return ordered[rank - 1]


class Log:
    """Diagnostics to stderr, each distinct message once."""

    def __init__(self):
        self.seen = set()

    def __call__(self, message):
        head = message.splitlines()[0]
        if head not in self.seen:
            self.seen.add(head)
            print(message, file=sys.stderr)


# ----------------------------------------------------------------------
# end-to-end run (--trace 0)

def setup_batch(workload, seed, speed):
    """Mean time of one set-up, over a batch of at least SETUP_BATCH_S,
    at the nominal host speed."""
    repeats, t0 = 0, time.perf_counter()
    while repeats == 0 or time.perf_counter() - t0 < SETUP_BATCH_S:
        workload.setup(seed)
        repeats += 1
    return speed.scale(time.perf_counter() - t0) / repeats


def end_to_end(workload, seed, seconds, log):
    # the first set-up pays one-off costs (lazy imports, first use) and is not timed
    state = workload.setup(seed)
    ops = workload.ops(state, seed)
    side = workload.side_checks(state, seed)
    speed = HostSpeed(workload.kernel)
    setup_speed = HostSpeed(SMALL_CALLS)
    setup_times, pass_times, latencies = [], [], []
    attempted, failed = len(side), side.count(False)
    start = time.perf_counter()
    while True:
        # set-up is timed before every pass, so that it is sampled across
        # the whole run, as the passes are
        t0 = time.perf_counter()
        while True:
            setup_times.append(setup_batch(workload, seed, setup_speed))
            if time.perf_counter() - t0 >= SETUP_SAMPLE_S:
                break
        _, lat, bad = run_pass(workload, ops, log, speed)
        # a pass's time is the sum of its calls' times at nominal speed
        pass_times.append(sum(lat))
        latencies.append(lat)
        attempted += len(ops)
        failed += len(bad)
        # stop at the pass boundary nearest to the requested run length
        step = (time.perf_counter() - start) / len(pass_times)
        if len(pass_times) >= MIN_PASSES and time.perf_counter() - start + step / 2 > seconds:
            break
    wall_s = statistics.fmean(pass_times)
    # every pass makes the same calls: a call's latency is its median over
    # the passes, so one slow pass does not move the median call
    per_call = np.median(latencies, axis=0)
    samples = [t for lat in latencies for t in lat]
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (1e3 * float(np.median(per_call)), "ms"),
        "op_tail_ms": (1e3 * percentile(samples, TAIL_LEVEL), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "error_rate": (failed / attempted, "ratio"),
        "mc_rounds_per_s": (workload.rounds_per_pass / wall_s, "1/s")
        if workload.rounds_per_pass else None,
        "passes": (len(pass_times), "count"),
        "reference_unit_ms": (1e3 * speed.median_unit_s(), "ms"),
        "reference_nominal_ms": (1e3 * workload.kernel.nominal_s, "ms"),
        "op_samples": (len(samples), "count"),
        "op_tail_percentile": (TAIL_LEVEL, "%"),
        "setup_failures": (len(workload.setup_failures(state)), "count"),
    }
    return metrics, notes, attempted, failed


# ----------------------------------------------------------------------
# traced run (--trace 1)

def install_hooks(tracer):
    tracer.hook_integrator(INTEGRATOR)
    for dotted, name, points_arg in HOOKS:
        tracer.hook(dotted, name, points_arg)
    tracer.hook(OPTIMIZER, "opt.maximize_bsp", keep_result=True)


def layer_metrics(tracer, setup_range, pass_range):
    spans = tracer.spans
    self_s = tracer.self_seconds((setup_range[0], pass_range[1]))
    by_name = {}
    for i in range(setup_range[0], pass_range[1]):
        by_name.setdefault(spans[i].name, []).append(i)

    def pick(name, rng):
        return [i for i in by_name.get(name, ()) if rng[0] <= i < rng[1]]

    def total_self(name, rng=pass_range):
        return sum(self_s[i] for i in pick(name, rng))

    def points(name):
        return sum(spans[i].points for i in pick(name, pass_range))

    def ms(indices, stat):
        return 1e3 * stat([spans[i].seconds for i in indices]) if indices else 0.0

    quad = pick("quad.integrate", pass_range)
    evals = [spans[i].extra["evals"] for i in quad]
    bsp = pick("payoff.bsp_payoff", pass_range)
    grad = pick("payoff.bsp_gradient", pass_range)
    psi_inv = pick("dist.grid.psi_inv", pass_range)
    fits = [(spans[i].extra or {}).get("result") for i in pick("opt.maximize_bsp", pass_range)]
    return {
        "quad.calls": (len(quad), "count"),
        "quad.integrand_evals": (sum(evals), "count"),
        "quad.points": (points("quad.integrand"), "count"),
        "quad.max_evals_per_call": (max(evals, default=0), "count"),
        "quad.budget_hits": (sum(spans[i].extra["budget_hit"] for i in quad), "count"),
        "quad.self_s": (total_self("quad.integrate"), "s"),
        "payoff.bsp_payoff.calls": (len(bsp), "count"),
        "payoff.bsp_payoff.p50_ms": (ms(bsp, statistics.median), "ms"),
        "payoff.bsp_gradient.calls": (len(grad), "count"),
        "payoff.bsp_gradient.p50_ms": (ms(grad, statistics.median), "ms"),
        "payoff.bsp_gradient.max_ms": (ms(grad, max), "ms"),
        "payoff.competition.cdf.points": (points("payoff.competition.cdf"), "count"),
        "payoff.competition.pdf.points": (points("payoff.competition.pdf"), "count"),
        "payoff.competition.self_s": (total_self("payoff.competition.cdf")
                                      + total_self("payoff.competition.pdf"), "s"),
        "payoff.outcomes.self_s": (total_self("payoff.outcomes"), "s"),
        "payoff.mc.chunks": (len(pick("payoff.mc.chunk", pass_range)), "count"),
        "dist.grid.bid.points": (points("dist.grid.bid"), "count"),
        "dist.grid.bid.self_s": (total_self("dist.grid.bid"), "s"),
        "dist.grid.psi.points": (points("dist.grid.psi"), "count"),
        "dist.grid.psi.self_s": (total_self("dist.grid.psi"), "s"),
        "dist.grid.psi_inv.calls": (len(psi_inv), "count"),
        "dist.grid.psi_inv.points": (points("dist.grid.psi_inv"), "count"),
        "dist.grid.psi_inv.points_per_call":
            (points("dist.grid.psi_inv") / len(psi_inv) if psi_inv else 0.0, "count"),
        "dist.grid.psi_inv.self_s": (total_self("dist.grid.psi_inv"), "s"),
        "dist.grid.build_s": (total_self("dist.grid.build", setup_range), "s"),
        "shade.build_s": (total_self("shade.build", setup_range), "s"),
        "mech.fit_s": (total_self("mech.fit", setup_range), "s"),
        "opt.iterations": (sum(r.iterations for r in fits if r is not None), "count"),
        "opt.objective_evals":
            (sum(tracer.has_ancestor(i, "opt.maximize_bsp") for i in bsp), "count"),
        "opt.gradient_evals":
            (sum(tracer.has_ancestor(i, "opt.maximize_bsp") for i in grad), "count"),
    }


def write_spans(tracer, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.points]) + "\n")


def traced(workload, seed, log):
    state = workload.setup(seed)
    ops = workload.ops(state, seed)
    side = workload.side_checks(state, seed)
    t0 = time.perf_counter()
    plain, _, _ = run_pass(workload, ops, log)
    untraced_s = time.perf_counter() - t0
    extra = workload.untraced_extra(state, seed)

    tracer = Tracer()
    install_hooks(tracer)
    try:
        k0 = len(tracer.spans)
        state = workload.setup(seed)
        k1 = len(tracer.spans)
        ops = workload.ops(state, seed)
        t0 = time.perf_counter()
        results, _, bad = run_pass(workload, ops, log)
        traced_s = time.perf_counter() - t0
        workload.traced_extra(state)
        k2 = len(tracer.spans)
    finally:
        tracer.unhook_all()
    write_spans(tracer, TRACE_DIR / f"spans-{workload.name}-{seed}.jsonl")

    metrics = layer_metrics(tracer, (k0, k1), (k1, k2))
    metrics.update({
        "payoff.mc.rounds_per_s": (workload.rounds_per_pass / untraced_s, "1/s"),
        "payoff.mc.speedup_w2": (extra.get("payoff.mc.speedup_w2", 0.0), "ratio"),
        "shade.build_failures": (len(workload.setup_failures(state)), "count"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.absent_hooks": (len(tracer.absent), "count"),
    })
    for dotted in tracer.absent:
        log(f"trace hook target is gone, layer recorded as absent: {dotted}")
    # tracing must leave every result bit-identical
    changed = {i for i, (a, b) in enumerate(zip(plain, results))
               if numbers(a).tobytes() != numbers(b).tobytes()}
    if changed:
        log(f"tracing changed {len(changed)} results")
    attempted = len(side) + len(ops)
    failed = side.count(False) + len(bad | changed)
    return metrics, {}, attempted, failed


# ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    log = Log()
    if args.trace:
        metrics, notes, attempted, failed = traced(workload, args.seed, log)
    else:
        metrics, notes, attempted, failed = end_to_end(workload, args.seed, args.seconds, log)

    for name, item in {**metrics, **notes}.items():
        if item is not None:
            print(f"{name:<36} {item[0]:.6g} {item[1]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
