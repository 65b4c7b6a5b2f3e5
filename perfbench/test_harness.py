"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench -q
"""

import time

import numpy as np
import pytest

import run
from reference import HostSpeed, Kernel
from spans import Tracer

run.import_library()

from shadecraft import _quad, dist, mech, opt, payoff, shade  # noqa: E402
from workloads import Op, Workload  # noqa: E402


def small_ops():
    """A few cheap calls that cross every hooked layer."""
    u = dist.make_uniform()
    models = [dist.make_uniform() for _ in range(3)]
    strategies = [shade.equilibrium_shading(m, 3) for m in models]
    cfg = mech.fit_mechanism("myerson", [s.bid_distribution() for s in strategies])
    z_eq = payoff.competition_distribution([s.bid_distribution() for s in strategies[1:]])
    z = payoff.competition_distribution([dist.make_uniform(), dist.make_uniform()])
    cheap = dist.GPParams(0.3, 0.6, -2.9)
    return [
        Op("mc", lambda: payoff.payoff_monte_carlo(models, strategies, cfg, 5000, 3)),
        Op("quad", lambda: payoff.payoff_quadrature(u, strategies[0], z_eq)),
        Op("curve", lambda: payoff.linear_payoff_curve(u, models[1:], "vcg-eager", [0.5, 1.0])),
        Op("bsp", lambda: payoff.bsp_payoff(u, cheap, z)),
        Op("grad", lambda: payoff.bsp_payoff_gradient(u, cheap, z)),
        Op("fit", lambda: opt.maximize_bsp(u, z, cheap, ((0.2, 0.4), (0.5, 0.7), (-3.0, -2.5)),
                                           restarts=0, max_iter=1)),
    ]


def traced_pass(ops):
    tracer = Tracer()
    run.install_hooks(tracer)
    try:
        results, _, failed = run.run_pass(Workload(), ops, print)
    finally:
        tracer.unhook_all()
    return tracer, results, failed


def test_tracing_leaves_results_bit_identical():
    plain, _, failed = run.run_pass(Workload(), small_ops(), print)
    assert not failed
    tracer, traced, _ = traced_pass(small_ops())
    for a, b in zip(plain, traced):
        assert run.numbers(a).tobytes() == run.numbers(b).tobytes()
    names = {s.name for s in tracer.spans}
    assert {"quad.integrate", "quad.integrand", "dist.grid.psi_inv", "dist.grid.bid",
            "payoff.outcomes", "payoff.bsp_gradient", "opt.maximize_bsp"} <= names
    assert not tracer.absent


def test_hooks_are_removed():
    original = _quad.integrate
    tracer = Tracer()
    run.install_hooks(tracer)
    assert _quad.integrate is not original
    tracer.unhook_all()
    assert _quad.integrate is original


def test_work_counts_repeat_exactly():
    first, _, _ = traced_pass(small_ops())
    second, _, _ = traced_pass(small_ops())
    span_range = (0, len(first.spans))
    assert len(first.spans) == len(second.spans)
    a = run.layer_metrics(first, (0, 0), span_range)
    b = run.layer_metrics(second, (0, 0), (0, len(second.spans)))
    for name in ("quad.integrand_evals", "quad.points", "opt.iterations",
                 "dist.grid.bid.points", "dist.grid.psi.points", "dist.grid.psi_inv.points"):
        assert a[name] == b[name]
        assert a[name][0] > 0


def test_missing_hook_target_is_recorded_as_absent():
    tracer = Tracer()
    tracer.hook("shadecraft.payoff.no_such_function", "gone")
    tracer.hook("shadecraft.no_such_module.f", "gone")
    tracer.hook("shadecraft.dist.NoSuchClass.method", "gone")
    tracer.hook_integrator("shadecraft._quad.no_such_engine")
    assert len(tracer.absent) == 4
    assert not tracer._patches


def test_budget_hit_is_detected():
    tracer = Tracer()
    tracer.hook_integrator("shadecraft._quad.integrate")
    try:
        _quad.integrate(lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, max_panels=40)
        _quad.integrate(lambda x: x ** 2, 0.0, 1.0, breakpoints=(0.5,))
    finally:
        tracer.unhook_all()
    calls = [s.extra for s in tracer.spans if s.name == "quad.integrate"]
    assert [c["budget_hit"] for c in calls] == [True, False]


@pytest.mark.parametrize("n", [100, 101, 170, 1000])
def test_tail_percentile_picks_the_nearest_rank_sample(n):
    samples = list(np.random.default_rng(n).permutation(np.arange(1, n + 1)))
    value = run.percentile(samples, run.TAIL_LEVEL)
    assert value == int(np.ceil(n * run.TAIL_LEVEL / 100))
    assert sum(s > value for s in samples) >= 10


def test_nan_exception_and_wrong_answer_count_as_failures():
    def boom():
        raise RuntimeError("synthetic")

    ops = [Op("nan", lambda: float("nan")),
           Op("nan-inside", lambda: payoff.PayoffEstimate(mean=0.1, per_bidder=(np.nan,))),
           Op("raises", boom),
           Op("wrong", lambda: 1.0, lambda v: v == 2.0),
           Op("right", lambda: 2.0, lambda v: v == 2.0)]
    _, latencies, failed = run.run_pass(Workload(), ops, lambda message: None)
    assert failed == {0, 1, 2, 3}
    assert len(latencies) == len(ops)


def test_host_speed_scales_to_the_nominal_kernel_time():
    # a kernel unit that takes twice its nominal time halves every time
    speed = HostSpeed(Kernel(((lambda: time.sleep(0.004), 1),), nominal_s=0.002))
    assert speed.scale(0.1) == pytest.approx(0.05, rel=0.2)
    # the kernel ran for at least a tenth of the scaled call's 0.1 s
    assert len(speed.units) >= 1 + 3
