"""Experiment runner: reproduces the desk-scale results as CSV/JSON files.

One JSON config file per invocation; flags only override rounds, seed,
output path and worker count. Randomized outputs embed (seed, version) and
are byte-identical for any worker count.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, dist, mech, opt, payoff, shade
from .errors import ConfigError, OptimizationError, ShadecraftError

_CURVE_MECHS = ("myerson", "vcg-lazy", "vcg-eager")


def _fmt(x):
    return f"{float(x):.12g}"


def _write_text(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _require(cfg, field, kinds, path=""):
    dotted = f"{path}.{field}" if path else field
    if field not in cfg:
        raise ConfigError(dotted, "missing required field")
    value = cfg[field]
    if kinds is not None and not isinstance(value, kinds):
        raise ConfigError(dotted, f"expected {kinds}, got {type(value).__name__}")
    return value


def _parse_model(cfg, path):
    if not isinstance(cfg, dict):
        raise ConfigError(path, "distribution config must be an object")
    try:
        return dist.model_from_config(cfg)
    except ShadecraftError as exc:
        raise ConfigError(path, str(exc))


def _parse_strategy(cfg, base, path):
    if not isinstance(cfg, dict):
        raise ConfigError(path, "strategy config must be an object")
    try:
        return shade.strategy_from_config(cfg, base)
    except ShadecraftError as exc:
        raise ConfigError(path, str(exc))


def _parse_alphas(cfg):
    raw = cfg.get("alphas", {"start": 0.05, "stop": 1.0, "count": 20})
    if isinstance(raw, list):
        alphas = [float(a) for a in raw]
    elif isinstance(raw, dict):
        alphas = np.linspace(_require(raw, "start", (int, float), "alphas"),
                             _require(raw, "stop", (int, float), "alphas"),
                             int(_require(raw, "count", int, "alphas"))).tolist()
    else:
        raise ConfigError("alphas", "must be a list or {start, stop, count}")
    for a in alphas:
        if not 0 < a <= 1:
            raise ConfigError("alphas", f"alpha {a} outside (0, 1]")
    return alphas


def _need_seed(cfg):
    if "seed" not in cfg:
        raise ConfigError("seed", "Monte Carlo commands require a seed")
    return int(cfg["seed"])


def _metadata(seed):
    return {"seed": seed, "version": __version__}


def cmd_payoff_curve(cfg):
    kind = _require(cfg, "mechanism", str)
    if kind not in _CURVE_MECHS:
        raise ConfigError("mechanism", f"must be one of {_CURVE_MECHS}")
    value_cfg = cfg.get("value", {"kind": "gp", "mu": 0.0, "sigma": 1.0, "xi": -1.0})
    k_values = _require(cfg, "k_values", list)
    alphas = _parse_alphas(cfg)
    out = _require(cfg, "out", str)
    rows = []
    for k in k_values:
        if not isinstance(k, int) or k < 2:
            raise ConfigError("k_values", f"each K must be an integer >= 2, got {k!r}")
        d1 = _parse_model(value_cfg, "value")
        competitors = [_parse_model(value_cfg, "value") for _ in range(k - 1)]
        deriv = payoff.payoff_derivative_alpha(d1, competitors, 1.0, kind=kind)
        for alpha, pay in payoff.linear_payoff_curve(d1, competitors, kind, alphas):
            rows.append((k, alpha, pay, deriv))
    _write_csv(out, ["K", "alpha", "payoff", "derivative_at_1"], rows)
    return 0


_DD_DIRECTIONS = (
    lambda x: np.asarray(x, dtype=float),
    lambda x: (1.0 + np.asarray(x, dtype=float)) / 2.0,
    lambda x: np.asarray(x, dtype=float) + np.asarray(x, dtype=float) ** 2,
    lambda x: np.log1p(np.asarray(x, dtype=float)),
    lambda x: np.expm1(np.asarray(x, dtype=float)),
)


def cmd_equilibrium_demo(cfg):
    k = int(_require(cfg, "k", int))
    if k < 2:
        raise ConfigError("k", "must be >= 2")
    value_cfg = cfg.get("value", {"kind": "gp", "mu": 0.0, "sigma": 1.0, "xi": -1.0})
    rounds = int(cfg.get("rounds", 10 ** 6))
    if rounds < 1:
        raise ConfigError("rounds", "must be >= 1")
    seed = _need_seed(cfg)
    out = _require(cfg, "out", str)
    workers = cfg.get("workers")

    values = [_parse_model(value_cfg, "value") for _ in range(k)]
    d1 = values[0]
    truth = [shade.truthful(m) for m in values]
    eqs = [shade.equilibrium_shading(m, k) for m in values]
    beta_i = shade.first_price_bid(d1, k)

    z_truth = payoff.competition_distribution([s.bid_distribution() for s in truth[1:]])
    z_eq = payoff.competition_distribution([s.bid_distribution() for s in eqs[1:]])
    truthful_quad = payoff.payoff_quadrature(d1, truth[0], z_truth).mean
    eq_quad = payoff.payoff_quadrature(d1, eqs[0], z_eq).mean
    fp_quad = payoff.first_price_payoff(d1, beta_i, k)

    cfg_truth = mech.fit_mechanism("myerson", [s.bid_distribution() for s in truth])
    cfg_eq = mech.fit_mechanism("myerson", [s.bid_distribution() for s in eqs])
    mc_truth = payoff.payoff_monte_carlo(values, truth, cfg_truth, rounds, seed,
                                         workers=workers)
    mc_eq = payoff.payoff_monte_carlo(values, eqs, cfg_eq, rounds, seed, workers=workers)

    xs = np.linspace(d1.support[0], d1.grid_upper(), 400)
    gamma = eqs[0].as_grid_function()
    ode_resid = shade.virtualize(d1, gamma, gamma.derivative, xs) - beta_i(xs)
    dd_max = max(abs(payoff.directional_derivative(
        d1, gamma, dist.GridFunction.from_callable(f, 0.0, d1.grid_upper(), 512), z_eq))
        for f in _DD_DIRECTIONS)

    report = {
        "metadata": _metadata(seed),
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
    k = int(_require(cfg, "k", int))
    if k < 2:
        raise ConfigError("k", "must be >= 2")
    value_cfg = cfg.get("value", {"kind": "gp", "mu": 0.0, "sigma": 1.0, "xi": -1.0})
    eps = float(cfg.get("eps", shade.DEFAULT_EPS))
    n_rows = int(cfg.get("points", 101))
    alpha_lo, alpha_hi = cfg.get("alpha_bounds", [0.01, 1.0])
    out = _require(cfg, "out", str)

    d1 = _parse_model(value_cfg, "value")
    competitors = [dist.make_uniform() for _ in range(k - 1)]
    z = payoff.competition_distribution(competitors)

    optimal = shade.one_vs_uniform_shading(d1, k, eps)
    best = opt.maximize_scalar(
        lambda a: payoff._myerson_linear_payoff(d1, z, a), alpha_lo, alpha_hi, tol=1e-6)
    linear = shade.linear_shading(d1, min(best.argmax, 1.0))
    truth = shade.truthful(d1)

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
    value_cfg = _require(cfg, "value", dict)
    d1 = _parse_model(value_cfg, "value")
    comp = cfg.get("competitors", {"k": 2})
    if isinstance(comp, dict):
        k = int(_require(comp, "k", int, "competitors"))
        comp_cfg = comp.get("value", {"kind": "gp", "mu": 0.0, "sigma": 1.0, "xi": -1.0})
        models = [_parse_model(comp_cfg, "competitors.value") for _ in range(k)]
    elif isinstance(comp, list):
        models = [_parse_model(c, f"competitors[{i}]") for i, c in enumerate(comp)]
    else:
        raise ConfigError("competitors", "must be an object or a list")
    init = cfg.get("init", [0.0, 0.5, -0.5])
    if not (isinstance(init, list) and len(init) == 3):
        raise ConfigError("init", "must be [mu, sigma, xi]")
    bounds = cfg.get("bounds", [[0.0, 1.0], [0.01, 2.0], [-4.0, -1e-6]])
    if not (isinstance(bounds, list) and len(bounds) == 3
            and all(isinstance(b, list) and len(b) == 2 for b in bounds)):
        raise ConfigError("bounds", "must be three [lo, hi] pairs")
    seed = int(cfg.get("seed", 0))
    point_mass = bool(cfg.get("point_mass", True))
    restarts = int(cfg.get("restarts", 8))
    max_iter = int(cfg.get("max_iter", 200))
    out = _require(cfg, "out", str)

    z = payoff.competition_distribution(models)
    try:
        init_params = dist.GPParams(*[float(v) for v in init])
    except ShadecraftError as exc:
        raise ConfigError("init", str(exc))
    result = opt.maximize_bsp(d1, z, init_params, bounds, restarts=restarts,
                              max_iter=max_iter, seed=seed,
                              include_point_mass=point_mass)
    fitted = result.argmax
    grad_full = payoff.bsp_payoff_gradient(d1, fitted, z, include_point_mass=True)
    grad_np = payoff.bsp_payoff_gradient(d1, fitted, z, include_point_mass=False)
    report = {
        "metadata": _metadata(seed),
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


def _parse_mechanism(cfg, bid_models):
    mcfg = _require(cfg, "mechanism", dict)
    kind = _require(mcfg, "kind", str, "mechanism")
    try:
        if kind == "second-price":
            reserve = mcfg.get("reserve", 0.0)
            if reserve == "monopoly":
                reserve = mech.fit_monopoly_reserves(bid_models)[0]
            return mech.MechanismConfig("second-price", reserves=(float(reserve),))
        if kind in ("vcg-lazy", "vcg-eager") and "reserves" in mcfg:
            return mech.MechanismConfig(kind, reserves=tuple(mcfg["reserves"]))
        if kind == "boosted-second-price" and "boosts" in mcfg:
            return mech.MechanismConfig(kind, boosts=tuple(mcfg["boosts"]),
                                        reserves=tuple(mcfg.get("reserves",
                                                                [0.0] * len(bid_models))))
        return mech.fit_mechanism(kind, bid_models)
    except ShadecraftError as exc:
        raise ConfigError("mechanism", str(exc))


def cmd_simulate(cfg):
    bidders = _require(cfg, "bidders", list)
    if not bidders:
        raise ConfigError("bidders", "need at least one bidder")
    values, strategies = [], []
    for i, b in enumerate(bidders):
        if not isinstance(b, dict):
            raise ConfigError(f"bidders[{i}]", "must be an object")
        model = _parse_model(_require(b, "value", dict, f"bidders[{i}]"),
                             f"bidders[{i}].value")
        strategy = _parse_strategy(b.get("strategy", {"kind": "truthful"}), model,
                                   f"bidders[{i}].strategy")
        values.append(model)
        strategies.append(strategy)
    rounds = int(cfg.get("rounds", 10 ** 5))
    if rounds < 1:
        raise ConfigError("rounds", "must be >= 1")
    seed = _need_seed(cfg)
    out = _require(cfg, "out", str)
    mcfg = _parse_mechanism(cfg, [s.bid_distribution() for s in strategies])
    est = payoff.payoff_monte_carlo(values, strategies, mcfg, rounds, seed,
                                    workers=cfg.get("workers"))
    report = {"metadata": _metadata(seed), "mechanism": mcfg.kind,
              "estimate": est.to_json(),
              "per_bidder_se": list(est.per_bidder_se),
              "seller_revenue_se": est.seller_revenue_se}
    _write_json(out, report)
    return 0


_COMMANDS = {
    "payoff-curve": cmd_payoff_curve,
    "equilibrium-demo": cmd_equilibrium_demo,
    "one-strategic-demo": cmd_one_strategic_demo,
    "bsp-opt": cmd_bsp_opt,
    "simulate": cmd_simulate,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shadecraft",
        description="Strategic bidding experiments against revenue-maximizing auctions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--out", help="override the output path")
        p.add_argument("--rounds", type=int, help="override the round count")
        p.add_argument("--seed", type=int, help="override the seed")
        p.add_argument("--workers", type=int,
                       help="worker count (or set SHADECRAFT_WORKERS)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {args.config}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("config error: top-level config must be a JSON object", file=sys.stderr)
        return 2
    for field in ("out", "rounds", "seed", "workers"):
        value = getattr(args, field, None)
        if value is not None:
            cfg[field] = value
    try:
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OptimizationError as exc:
        print(f"optimizer failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
