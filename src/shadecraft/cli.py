"""Experiment runner: reproduces the desk-scale results as CSV/JSON files.

One JSON config file per invocation. `dist._get`, the one config-field
reader, reads and type-checks each field once, here and in the model and
strategy parsers; `_build` turns a library refusal of a sub-config into a
ConfigError that names its path, so a refusal reads `bidders[0].strategy:
alpha: missing required field`. Each command registers only the flags that
override fields it reads. `main` is the one error boundary: a refused config,
including a library precondition that fails while a command runs, exits 2
with `config error: ...` on stderr and writes no output file; an optimizer
failure exits 3. Randomized outputs embed (seed, version) and are
byte-identical for any worker count.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, dist, mech, opt, payoff, shade
from .dist import _REQUIRED, _check, _get
from .errors import ConfigError, OptimizationError, ShadecraftError

_UNIFORM = {"kind": "gp", "mu": 0.0, "sigma": 1.0, "xi": -1.0}  # the default value law


def _write_text(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(f"{float(v):.12g}" for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _build(make, path, *args):
    """make(*args), with a refusal re-raised as a ConfigError naming the config
    path it came from."""
    try:
        return make(*args)
    except ShadecraftError as exc:
        raise ConfigError(path, str(exc)) from exc


def _out(cfg):
    """The output path; refused, before anything is computed, unless its directory exists."""
    out = _get(cfg, "out", str)
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError("out", f"no such directory: {os.path.dirname(out)}")
    return out


def _model(cfg, field, default=_REQUIRED):
    return _build(dist.model_from_config, field, _get(cfg, field, dict, default))


def cmd_payoff_curve(cfg):
    kind = _get(cfg, "mechanism", str)
    d1 = _model(cfg, "value", _UNIFORM)
    k_values = _get(cfg, "k_values", [int])
    if not k_values or min(k_values) < 2:
        raise ConfigError("k_values", f"need one or more K, each >= 2, got {k_values}")
    alphas = _get(cfg, "alphas", object, {"start": 0.05, "stop": 1.0, "count": 20})
    if isinstance(alphas, list):
        alphas = _check(alphas, [float], "alphas")
    else:
        count = _get(alphas, "alphas.count", int)
        if count < 1:
            raise ConfigError("alphas.count", "must be >= 1")
        alphas = np.linspace(_get(alphas, "alphas.start", float),
                             _get(alphas, "alphas.stop", float), count).tolist()
    out = _out(cfg)
    rows = []
    for k in k_values:
        competitors = [d1] * (k - 1)
        deriv = payoff.payoff_derivative_alpha(d1, competitors, 1.0, kind=kind)
        for alpha, pay in payoff.linear_payoff_curve(d1, competitors, kind, alphas):
            rows.append((k, alpha, pay, deriv))
    _write_csv(out, ["K", "alpha", "payoff", "derivative_at_1"], rows)
    return 0


# perturbation directions rho for the directional derivative, on float arrays
_DD_DIRECTIONS = (lambda x: x, lambda x: (1.0 + x) / 2.0, lambda x: x + x ** 2,
                  np.log1p, np.expm1)


def cmd_equilibrium_demo(cfg):
    k = _get(cfg, "k", int)
    d1 = _model(cfg, "value", _UNIFORM)
    rounds = _get(cfg, "rounds", int, 10 ** 6)
    seed = _get(cfg, "seed", int)
    out = _out(cfg)
    workers = _build(payoff._resolve_workers, "workers", _get(cfg, "workers", int, None))

    # the k bidders are identical: one model, one strategy of each kind
    eq = shade.equilibrium_shading(d1, k)
    truth = shade.truthful(d1)
    beta_i = shade.first_price_bid(d1, k)

    z_truth = payoff.competition_distribution([truth.bid_distribution()] * (k - 1))
    z_eq = payoff.competition_distribution([eq.bid_distribution()] * (k - 1))
    truthful_quad = payoff.payoff_quadrature(d1, truth, z_truth).mean
    eq_quad = payoff.payoff_quadrature(d1, eq, z_eq).mean
    fp_quad = payoff.first_price_payoff(d1, beta_i, k)

    cfg_truth = mech.fit_mechanism("myerson", [truth.bid_distribution()] * k)
    cfg_eq = mech.fit_mechanism("myerson", [eq.bid_distribution()] * k)
    mc_truth = payoff.payoff_monte_carlo([d1] * k, [truth] * k, cfg_truth, rounds, seed,
                                         workers=workers)
    mc_eq = payoff.payoff_monte_carlo([d1] * k, [eq] * k, cfg_eq, rounds, seed,
                                      workers=workers)

    # the ODE residual of the strategy's own bid and exact bid derivative
    xs = np.linspace(d1.support[0], d1.grid_upper(), 400)
    ode_resid = shade.virtualize(d1, eq.bid, eq.bid_derivative, xs) - beta_i(xs)
    gamma = eq.as_grid_function()
    rhos = [dist.GridFunction.from_callable(f, 0.0, d1.grid_upper(), 512)
            for f in _DD_DIRECTIONS]
    dd_max = np.abs(payoff.directional_derivative(d1, gamma, rhos, z_eq)).max()

    report = {
        "metadata": {"seed": seed, "version": __version__},
        "k": k,
        "rounds": rounds,
        "truthful_payoff_quadrature": truthful_quad,
        "equilibrium_payoff_quadrature": eq_quad,
        "first_price_payoff_quadrature": fp_quad,
        "truthful_payoff_mc": mc_truth.per_bidder[0],
        "truthful_payoff_mc_se": mc_truth.per_bidder_se[0],
        "equilibrium_payoff_mc": mc_eq.per_bidder[0],
        "equilibrium_payoff_mc_se": mc_eq.per_bidder_se[0],
        "seller_revenue_truthful": mc_truth.seller_revenue,
        "seller_revenue_truthful_se": mc_truth.seller_revenue_se,
        "seller_revenue_equilibrium": mc_eq.seller_revenue,
        "seller_revenue_equilibrium_se": mc_eq.seller_revenue_se,
        "max_ode_residual": float(np.abs(ode_resid).max()),
        "max_directional_derivative": float(dd_max),
    }
    _write_json(out, report)
    return 0


def cmd_one_strategic_demo(cfg):
    k = _get(cfg, "k", int)
    d1 = _model(cfg, "value", _UNIFORM)
    eps = _get(cfg, "eps", float, shade.DEFAULT_EPS)
    n_rows = _get(cfg, "points", int, 101)
    if n_rows < 1:
        raise ConfigError("points", "must be >= 1")
    alpha_lo, alpha_hi = _get(cfg, "alpha_bounds", [float, float], [0.01, 1.0])
    out = _out(cfg)

    optimal = shade.one_vs_uniform_shading(d1, k, eps)
    competitors = [dist.make_uniform()] * (k - 1)
    best = opt.maximize_scalar(
        lambda a: payoff.linear_payoff_curve(d1, competitors, "myerson", [a])[0][1],
        alpha_lo, alpha_hi, tol=1e-6)
    linear = shade.linear_shading(d1, best.argmax)
    truth = shade.truthful(d1)
    z = payoff.competition_distribution(competitors)

    xs = np.linspace(d1.support[0], d1.grid_upper(), n_rows)
    rows = list(zip(xs, truth.bid(xs), linear.bid(xs), optimal.bid(xs),
                    truth.virtualized_bid(xs), linear.virtualized_bid(xs),
                    optimal.virtualized_bid(xs)))
    _write_csv(out, ["x", "truthful_bid", "linear_bid", "optimal_bid",
                     "truthful_vbid", "linear_vbid", "optimal_vbid"], rows)
    summary = {
        "alpha_linear": float(linear.alpha),
        "payoff_truthful": payoff.payoff_quadrature(d1, truth, z).mean,
        "payoff_linear": payoff.payoff_quadrature(d1, linear, z).mean,
        "payoff_optimal": payoff.payoff_quadrature(d1, optimal, z).mean,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_bsp_opt(cfg):
    d1 = _model(cfg, "value")
    comp = _get(cfg, "competitors", object, {"k": 2})
    if isinstance(comp, list):
        models = [_build(dist.model_from_config, f"competitors[{i}]", c)
                  for i, c in enumerate(_check(comp, [dict], "competitors"))]
    else:
        models = [_model(comp, "competitors.value", _UNIFORM)] * _get(comp, "competitors.k", int)
    init = _get(cfg, "init", [float] * 3, [0.0, 0.5, -0.5])
    bounds = _get(cfg, "bounds", [[float, float]] * 3,
                  [[0.0, 1.0], [0.01, 2.0], [-4.0, -1e-6]])
    seed = _get(cfg, "seed", int, 0)
    point_mass = _get(cfg, "point_mass", bool, True)
    out = _out(cfg)

    z = payoff.competition_distribution(models)
    init_params = _build(dist.GPParams, "init", *init)
    result = opt.maximize_bsp(d1, z, init_params, bounds,
                              restarts=_get(cfg, "restarts", int, 8),
                              max_iter=_get(cfg, "max_iter", int, 200), seed=seed,
                              include_point_mass=point_mass)
    fitted = result.argmax
    grad_full = payoff.bsp_payoff_gradient(d1, fitted, z, include_point_mass=True)
    grad_np = payoff.bsp_payoff_gradient(d1, fitted, z, include_point_mass=False)
    report = {
        "metadata": {"seed": seed, "version": __version__},
        "initial": {"mu": init_params.mu, "sigma": init_params.sigma, "xi": init_params.xi},
        "fitted": {"mu": fitted.mu, "sigma": fitted.sigma, "xi": fitted.xi},
        "payoff_before": payoff.bsp_payoff(d1, init_params, z),
        "payoff_after": result.value,
        "gradient_norm": float(np.linalg.norm(grad_full)),
        "gradient_norm_no_point_mass": float(np.linalg.norm(grad_np)),
        "iterations": result.iterations,
        "converged": result.converged,
        "point_mass": point_mass,
    }
    _write_json(out, report)
    return 0


def _mechanism(mcfg, bid_models):
    """The seller: the reserves/boosts the config gives, else fitted to the
    bids. Second price takes one reserve: a number, "monopoly" (the first
    bidder's monopoly price) or 0. Field names are relative: _build prefixes
    "mechanism"."""
    kind = _get(mcfg, "kind", str)
    if kind == "second-price" and mcfg.get("reserve") == "monopoly":
        return mech.MechanismConfig(kind, reserves=(bid_models[0].monopoly_price(),))
    if kind == "second-price":
        return mech.MechanismConfig(kind, reserves=(_get(mcfg, "reserve", float, 0.0),))
    if kind in ("vcg-lazy", "vcg-eager") and "reserves" in mcfg:
        return mech.MechanismConfig(kind, reserves=_get(mcfg, "reserves", [float]))
    if kind == "boosted-second-price" and "boosts" in mcfg:
        return mech.MechanismConfig(kind, boosts=_get(mcfg, "boosts", [float]), reserves=_get(
            mcfg, "reserves", [float], [0.0] * len(bid_models)))
    return mech.fit_mechanism(kind, bid_models)


def cmd_simulate(cfg):
    rounds = _get(cfg, "rounds", int, 10 ** 5)
    seed = _get(cfg, "seed", int)
    out = _out(cfg)
    workers = _build(payoff._resolve_workers, "workers", _get(cfg, "workers", int, None))
    bidders = _get(cfg, "bidders", [dict])
    if not bidders:
        raise ConfigError("bidders", "need at least one bidder")
    built, pairs = {}, []  # one model and strategy per distinct bidder config
    for i, b in enumerate(bidders):
        key, path = json.dumps(b, sort_keys=True), f"bidders[{i}].strategy"
        if key not in built:
            model = _model(b, f"bidders[{i}].value")
            built[key] = model, _build(shade.strategy_from_config, path,
                                       _get(b, path, dict, {"kind": "truthful"}), model)
        pairs.append(built[key])
    values, strategies = zip(*pairs)
    mcfg = _build(_mechanism, "mechanism", _get(cfg, "mechanism", dict),
                  [s.bid_distribution() for s in strategies])
    est = payoff.payoff_monte_carlo(values, strategies, mcfg, rounds, seed, workers=workers)
    report = {"metadata": {"seed": seed, "version": __version__}, "mechanism": mcfg.kind,
              "estimate": est.to_json(),
              "per_bidder_se": list(est.per_bidder_se),
              "seller_revenue_se": est.seller_revenue_se}
    _write_json(out, report)
    return 0


# each command, with the flags that override the config fields it reads
_COMMANDS = {
    "payoff-curve": (cmd_payoff_curve, ["out"]),
    "equilibrium-demo": (cmd_equilibrium_demo, ["out", "rounds", "seed", "workers"]),
    "one-strategic-demo": (cmd_one_strategic_demo, ["out"]),
    "bsp-opt": (cmd_bsp_opt, ["out", "seed"]),
    "simulate": (cmd_simulate, ["out", "rounds", "seed", "workers"]),
}
_FLAGS = {"out": (str, "the output path"), "rounds": (int, "the round count"),
          "seed": (int, "the seed"),
          "workers": (int, "the worker count (or set SHADECRAFT_WORKERS)")}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shadecraft",
        description="Strategic bidding experiments against revenue-maximizing auctions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON experiment config")
        for flag in flags:
            p.add_argument(f"--{flag}", type=_FLAGS[flag][0], help=f"override {_FLAGS[flag][1]}")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    run, flags = _COMMANDS[args.command]
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = _check(cfg, dict, args.config)
        cfg.update((f, getattr(args, f)) for f in flags if getattr(args, f) is not None)
        return run(cfg)
    except OptimizationError as exc:
        print(f"optimizer failure: {exc}", file=sys.stderr)
        return 3
    except ShadecraftError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
