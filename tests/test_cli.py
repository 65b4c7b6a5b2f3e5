import json

import numpy as np
import pytest

from shadecraft import cli, dist, shade
from shadecraft.errors import OptimizationError


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    return header, rows


class TestPayoffCurve:
    def test_myerson_derivative_column(self, tmp_path):
        out = tmp_path / "curve.csv"
        cfg = write_config(tmp_path, "c.json", {
            "mechanism": "myerson", "k_values": [2, 3, 4, 5, 6],
            "alphas": {"start": 0.02, "stop": 1.0, "count": 8},
            "out": str(out)})
        assert cli.main(["payoff-curve", cfg]) == 0
        header, rows = read_csv(out)
        assert header == ["K", "alpha", "payoff", "derivative_at_1"]
        for row in rows:
            k = int(row["K"])
            expected = -(2 ** k - 1) / (k * 2 ** (k + 1))
            assert row["derivative_at_1"] == pytest.approx(expected, abs=1e-3)

    def test_k2_small_alpha_payoff(self, tmp_path):
        out = tmp_path / "curve.csv"
        cfg = write_config(tmp_path, "c.json", {
            "mechanism": "myerson", "k_values": [2],
            "alphas": [0.02, 0.5, 1.0], "out": str(out)})
        assert cli.main(["payoff-curve", cfg]) == 0
        _, rows = read_csv(out)
        smallest = min(rows, key=lambda r: r["alpha"])
        assert smallest["payoff"] == pytest.approx(0.1875, rel=0.02)

    @pytest.mark.parametrize("kind", ["vcg-lazy", "vcg-eager"])
    def test_vcg_derivatives_negative(self, tmp_path, kind):
        out = tmp_path / "curve.csv"
        cfg = write_config(tmp_path, "c.json", {
            "mechanism": kind, "k_values": [2, 3, 4, 5],
            "alphas": [0.5, 1.0], "out": str(out)})
        assert cli.main(["payoff-curve", cfg]) == 0
        _, rows = read_csv(out)
        assert all(row["derivative_at_1"] < 0 for row in rows)

    def test_invalid_mechanism_exits_2(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        cfg = write_config(tmp_path, "c.json", {
            "mechanism": "dutch", "k_values": [2], "out": str(out)})
        assert cli.main(["payoff-curve", cfg]) == 2
        assert not out.exists()
        assert "mechanism" in capsys.readouterr().err

    def test_bad_alpha_exits_2(self, tmp_path):
        out = tmp_path / "curve.csv"
        cfg = write_config(tmp_path, "c.json", {
            "mechanism": "myerson", "k_values": [2], "alphas": [0.0, 1.0],
            "out": str(out)})
        assert cli.main(["payoff-curve", cfg]) == 2
        assert not out.exists()


class TestEquilibriumDemo:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "eq.json"
        cfg = write_config(tmp_path, "c.json", {
            "k": 3, "rounds": 100000, "seed": 5, "out": str(out)})
        assert cli.main(["equilibrium-demo", cfg]) == 0
        report = json.loads(out.read_text())
        assert report["equilibrium_payoff_quadrature"] == pytest.approx(1 / 12, abs=1e-5)
        assert report["truthful_payoff_quadrature"] == pytest.approx(11 / 192, abs=1e-6)
        assert report["first_price_payoff_quadrature"] == pytest.approx(1 / 12, abs=1e-6)
        assert report["max_ode_residual"] < 1e-4
        assert report["max_directional_derivative"] < 1e-4
        assert abs(report["seller_revenue_equilibrium"] - 0.5) \
            < 3 * report["seller_revenue_equilibrium_se"]
        assert report["metadata"] == {"seed": 5, "version": "0.1.0"}

    def test_ode_residual_uses_the_exact_bid_derivative(self, tmp_path, monkeypatch):
        # at the K=3 equilibrium of GP(0.2, 1, -0.5) the PCHIP slope of the bid
        # table misses the ODE by ~5e-8; the strategy's own bid derivative is exact
        monkeypatch.setattr(cli.payoff, "directional_derivative", lambda *a: 0.0)  # ~1 s each
        out = tmp_path / "eq.json"
        cfg = write_config(tmp_path, "c.json", {
            "k": 3, "rounds": 1000, "seed": 1, "out": str(out),
            "value": {"kind": "gp", "mu": 0.2, "sigma": 1, "xi": -0.5}})
        assert cli.main(["equilibrium-demo", cfg]) == 0
        assert json.loads(out.read_text())["max_ode_residual"] < 1e-12
        d1 = dist.make_gp(0.2, 1.0, -0.5)
        gamma = shade.equilibrium_shading(d1, 3).as_grid_function()
        xs = np.linspace(0.2, d1.grid_upper(), 400)
        table_route = shade.virtualize(d1, gamma, gamma.derivative, xs) \
            - shade.first_price_bid(d1, 3)(xs)
        assert np.abs(table_route).max() >= 1e-9

    def test_one_directional_derivative_call(self, tmp_path, monkeypatch):
        # the five directions are the rows of one integral
        calls = []
        real = cli.payoff.directional_derivative

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli.payoff, "directional_derivative", counting)
        out = tmp_path / "eq.json"
        cfg = write_config(tmp_path, "c.json", {
            "k": 3, "rounds": 1000, "seed": 1, "out": str(out)})
        assert cli.main(["equilibrium-demo", cfg]) == 0
        assert len(calls) == 1 and len(calls[0][2]) == len(cli._DD_DIRECTIONS)
        assert json.loads(out.read_text())["max_directional_derivative"] < 1e-4

    def test_missing_seed_exits_2(self, tmp_path):
        out = tmp_path / "eq.json"
        cfg = write_config(tmp_path, "c.json", {"k": 3, "rounds": 10, "out": str(out)})
        assert cli.main(["equilibrium-demo", cfg]) == 2
        assert not out.exists()

    def test_k2_equilibrium_equals_first_price(self, tmp_path):
        out = tmp_path / "eq.json"
        cfg = write_config(tmp_path, "c.json", {
            "k": 2, "rounds": 50000, "seed": 9, "out": str(out)})
        assert cli.main(["equilibrium-demo", cfg]) == 0
        report = json.loads(out.read_text())
        assert report["equilibrium_payoff_quadrature"] == pytest.approx(
            report["first_price_payoff_quadrature"], abs=1e-5)


class TestOneStrategicDemo:
    def test_profiles_and_ordering(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        cfg = write_config(tmp_path, "c.json", {"k": 4, "points": 21, "out": str(out)})
        assert cli.main(["one-strategic-demo", cfg]) == 0
        header, rows = read_csv(out)
        assert header == ["x", "truthful_bid", "linear_bid", "optimal_bid",
                          "truthful_vbid", "linear_vbid", "optimal_vbid"]
        at = {row["x"]: row for row in rows}
        assert at[1.0]["optimal_bid"] == pytest.approx(0.5, abs=1e-5)
        assert at[0.0]["optimal_bid"] == pytest.approx(1 / 6, abs=1e-5)
        for row in rows:
            if row["x"] >= 1 / 3 + 1e-6:
                assert row["optimal_vbid"] == pytest.approx(
                    0.75 * (row["x"] - 1 / 3), abs=1e-5)
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["payoff_optimal"] >= summary["payoff_linear"] > 0
        assert summary["payoff_linear"] >= summary["payoff_truthful"] > 0
        assert summary["payoff_optimal"] > summary["payoff_truthful"]


class TestBspOpt:
    def test_notes_stationary_point(self, tmp_path):
        out = tmp_path / "bsp.json"
        cfg = write_config(tmp_path, "c.json", {
            "value": {"kind": "gp", "mu": 0, "sigma": 1, "xi": -1},
            "competitors": {"k": 2},
            "init": [0.0, 1 / 3, -1.0],
            "bounds": [[0.0, 0.0], [0.05, 1.5], [-3.0, -1e-6]],
            "restarts": 0, "point_mass": False, "seed": 3, "out": str(out)})
        assert cli.main(["bsp-opt", cfg]) == 0
        report = json.loads(out.read_text())
        assert report["fitted"]["sigma"] == pytest.approx(1 / 3, abs=1e-6)
        assert report["fitted"]["xi"] == pytest.approx(-1.0, abs=1e-6)
        assert report["gradient_norm_no_point_mass"] < 1e-3
        assert report["payoff_after"] >= report["payoff_before"] - 1e-12

    def test_invalid_init_exits_2(self, tmp_path):
        out = tmp_path / "bsp.json"
        cfg = write_config(tmp_path, "c.json", {
            "value": {"kind": "gp", "mu": 0, "sigma": 1, "xi": -1},
            "init": [0.0, -1.0, -1.0], "out": str(out)})
        assert cli.main(["bsp-opt", cfg]) == 2
        assert not out.exists()

    def test_competitor_list_equals_k(self, tmp_path):
        # README bsp.json settings: two listed uniforms are {"k": 2}, byte for byte
        outputs = []
        for name, competitors in (("k", {"k": 2}), ("list", [UNIFORM, UNIFORM])):
            out = tmp_path / f"bsp-{name}.json"
            cfg = write_config(tmp_path, f"{name}.json", {
                "value": UNIFORM, "competitors": competitors,
                "init": [0.0, 0.3333333333, -1.0],
                "bounds": [[0.0, 0.0], [0.05, 1.5], [-3.0, -1e-6]],
                "restarts": 0, "point_mass": False, "seed": 3, "out": str(out)})
            assert cli.main(["bsp-opt", cfg]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_optimization_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise OptimizationError("no start converged")

        monkeypatch.setattr(cli.opt, "maximize_bsp", fail)
        out = tmp_path / "bsp.json"
        cfg = write_config(tmp_path, "c.json", {"value": UNIFORM, "out": str(out)})
        assert cli.main(["bsp-opt", cfg]) == 3
        assert capsys.readouterr().err == "optimizer failure: no start converged\n"
        assert not out.exists()

    @pytest.mark.parametrize("bounds, restarts", [
        ([[0.5, 0.0], [0.01, 2.0], [-4.0, -1e-6]], 0),
        ([[0.5, 0.0], [0.01, 2.0], [-4.0, -1e-6]], 2),
        ([[0.0, 1.0], [0.01, float("inf")], [-4.0, -1e-6]], 2)])
    def test_bad_bounds_exit_2(self, tmp_path, capsys, bounds, restarts):
        out = tmp_path / "bsp.json"
        cfg = write_config(tmp_path, "c.json", {
            "value": UNIFORM, "bounds": bounds, "restarts": restarts, "out": str(out)})
        assert cli.main(["bsp-opt", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [("restarts", -1), ("max_iter", 0)])
    def test_invalid_budget_exits_2(self, tmp_path, capsys, field, value):
        out = tmp_path / "bsp.json"
        cfg = write_config(tmp_path, "c.json", {
            "value": {"kind": "gp", "mu": 0, "sigma": 1, "xi": -1},
            field: value, "out": str(out)})
        assert cli.main(["bsp-opt", cfg]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def _config(self, tmp_path, out, mechanism):
        return write_config(tmp_path, f"sim-{mechanism['kind']}.json", {
            "mechanism": mechanism,
            "bidders": [{"value": {"kind": "gp", "mu": 0, "sigma": 1, "xi": -1}}] * 3,
            "rounds": 200000, "seed": 42, "out": out})

    def test_byte_identical_across_worker_counts(self, tmp_path):
        outputs = []
        for w in (1, 4, 16):
            out = tmp_path / f"sim-{w}.json"
            cfg = self._config(tmp_path, str(out), {"kind": "myerson"})
            assert cli.main(["simulate", cfg, "--workers", str(w)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_bsp_fit_matches_myerson(self, tmp_path):
        # in-family GP fit reproduces Myerson round for round; the fitted
        # (s, r) carry ~1e-13 fit error, so means agree to that level
        res = {}
        for kind in ("myerson", "boosted-second-price"):
            out = tmp_path / f"sim-{kind}.json"
            cfg = self._config(tmp_path, str(out), {"kind": kind})
            assert cli.main(["simulate", cfg]) == 0
            res[kind] = json.loads(out.read_text())["estimate"]
        for a, b in zip(res["myerson"]["per_bidder"],
                        res["boosted-second-price"]["per_bidder"]):
            assert a == pytest.approx(b, abs=1e-12)
        assert res["myerson"]["seller_revenue"] == pytest.approx(
            res["boosted-second-price"]["seller_revenue"], abs=1e-12)

    def _report(self, tmp_path, mechanism):
        out = tmp_path / "sim-report.json"
        assert cli.main(["simulate", self._config(tmp_path, str(out), mechanism)]) == 0
        return json.loads(out.read_text())

    @staticmethod
    def _within_3_se(report, per_bidder, revenue):
        # 3 truthful Unif[0,1] bidders facing one reserve r earn 1/12 - r^3/3 + r^4/4
        # each, and the seller 1/2 + r^3 - 3 r^4 / 2
        est = report["estimate"]
        for mean, se in zip(est["per_bidder"], report["per_bidder_se"]):
            assert abs(mean - per_bidder) < 3 * se
        assert abs(est["seller_revenue"] - revenue) < 3 * report["seller_revenue_se"]

    def test_second_price_monopoly_reserve(self, tmp_path):
        # the monopoly reserve of a uniform bid law is 1/2
        report = self._report(tmp_path, {"kind": "second-price", "reserve": "monopoly"})
        self._within_3_se(report, 11 / 192, 17 / 32)

    def test_second_price_monopoly_reserve_reads_only_the_first_bidder(self, tmp_path):
        # bidder 1's bimodal law is not regular, but the one anonymous reserve
        # is bidder 0's monopoly price 1/2: the same report, byte for byte
        x = np.linspace(0.0, 1.0, 257)
        f = x * (np.exp(-((x - 0.2) / 0.08) ** 2) + np.exp(-((x - 0.8) / 0.08) ** 2) + 0.05)
        cdf = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) / 2 * np.diff(x))])
        bimodal = {"kind": "grid", "knots": x.tolist(), "cdf": (cdf / cdf[-1]).tolist(),
                   "pdf": (f / cdf[-1]).tolist()}
        assert not dist.model_from_config(bimodal).is_regular
        reports = []
        for reserve in ("monopoly", 0.5):
            out = tmp_path / f"sim-{reserve}.json"
            cfg = write_config(tmp_path, "bimodal.json", {
                "mechanism": {"kind": "second-price", "reserve": reserve},
                "bidders": [{"value": UNIFORM}, {"value": bimodal}],
                "rounds": 20000, "seed": 5, "out": str(out)})
            assert cli.main(["simulate", cfg]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_second_price_numeric_reserve(self, tmp_path):
        report = self._report(tmp_path, {"kind": "second-price", "reserve": 0.25})
        self._within_3_se(report, 1 / 12 - 0.25 ** 3 / 3 + 0.25 ** 4 / 4, 261 / 512)

    @pytest.mark.parametrize("kind", ["vcg-lazy", "vcg-eager"])
    def test_explicit_vcg_reserves(self, tmp_path, kind):
        # reserves 1/4 in place of the fitted monopoly reserves 1/2
        report = self._report(tmp_path, {"kind": kind, "reserves": [0.25] * 3})
        self._within_3_se(report, 1 / 12 - 0.25 ** 3 / 3 + 0.25 ** 4 / 4, 261 / 512)

    def test_explicit_bsp_boosts_default_to_zero_reserves(self, tmp_path):
        # equal boosts and reserves 0 are second price without a reserve,
        # round for round, in place of the fitted (Myerson) boosts and reserves
        report = self._report(tmp_path, {"kind": "boosted-second-price", "boosts": [2.0] * 3})
        plain = self._report(tmp_path, {"kind": "second-price", "reserve": 0.0})
        assert report == dict(plain, mechanism="boosted-second-price")
        self._within_3_se(report, 1 / 12, 1 / 2)

    def test_flag_overrides(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        cfg = self._config(tmp_path, str(out1), {"kind": "first-price"})
        assert cli.main(["simulate", cfg, "--out", str(out2), "--rounds", "1000",
                         "--seed", "1"]) == 0
        assert not out1.exists() and out2.exists()
        report = json.loads(out2.read_text())
        assert report["estimate"]["rounds"] == 1000
        assert report["metadata"]["seed"] == 1

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["simulate", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_bidders_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"mechanism": {"kind": "myerson"},
                                                "seed": 1, "out": "x.json"})
        assert cli.main(["simulate", cfg]) == 2

    def test_strategy_configs(self, tmp_path):
        out = tmp_path / "sim.json"
        cfg = write_config(tmp_path, "c.json", {
            "mechanism": {"kind": "myerson"},
            "bidders": [
                {"value": {"kind": "gp", "mu": 0, "sigma": 1, "xi": -1},
                 "strategy": {"kind": "equilibrium", "k": 3}},
                {"value": {"kind": "gp", "mu": 0, "sigma": 1, "xi": -1},
                 "strategy": {"kind": "equilibrium", "k": 3}},
                {"value": {"kind": "gp", "mu": 0, "sigma": 1, "xi": -1},
                 "strategy": {"kind": "equilibrium", "k": 3}}],
            "rounds": 100000, "seed": 11, "out": str(out)})
        assert cli.main(["simulate", cfg]) == 0
        report = json.loads(out.read_text())
        est = report["estimate"]
        for mean in est["per_bidder"]:
            assert mean == pytest.approx(1 / 12, abs=3 * 0.0006)


GP_NO_SIGMA = {"kind": "gp", "mu": 0}
UNIFORM = {"kind": "gp", "mu": 0, "sigma": 1, "xi": -1}
BIDDERS = [{"value": UNIFORM}] * 3

# (command, config without "out"): each is refused with exit 2
REFUSED = {
    "gp-value-missing-sigma": ("payoff-curve", {
        "mechanism": "myerson", "k_values": [2], "value": GP_NO_SIGMA}),
    "gp-value-string-and-bool": ("payoff-curve", {
        "mechanism": "myerson", "k_values": [2],
        "value": {"kind": "gp", "mu": "0", "sigma": True, "xi": -1}}),
    "grid-value-nan-knot": ("payoff-curve", {
        "mechanism": "myerson", "k_values": [2],
        "value": {"kind": "grid", "knots": [0, 0.3, float("nan"), 1], "cdf": [0, 0.2, 0.5, 1]}}),
    "grid-value-tiny-cdf-steps": ("payoff-curve", {
        "mechanism": "myerson", "k_values": [3],
        "alphas": {"start": 0.5, "stop": 1.0, "count": 2},
        "value": {"kind": "grid", "knots": [0, 0.2, 0.4, 0.6, 0.8, 1.0],
                  "cdf": [0, 1e-300, 2e-300, 0.5, 0.9, 1.0]}}),
    # its quantile table overflows: values drawn from it would be NaN or wrong
    "grid-bidder-quantile-table-overflows": ("simulate", {
        "mechanism": {"kind": "first-price"}, "rounds": 1000, "seed": 1,
        "bidders": [{"value": {"kind": "grid", "knots": [0, 0.2, 0.4, 0.6, 0.8, 1.0],
                               "cdf": [0, 1e-160, 2e-160, 0.5, 0.9, 1.0]}}] + BIDDERS[1:]}),
    "gp-bidder-missing-sigma": ("simulate", {
        "mechanism": {"kind": "myerson"}, "bidders": [{"value": GP_NO_SIGMA}] * 2,
        "seed": 1}),
    "linear-without-alpha": ("simulate", {
        "mechanism": {"kind": "myerson"}, "seed": 1,
        "bidders": [{"value": UNIFORM, "strategy": {"kind": "linear"}}] + BIDDERS[1:]}),
    "bsp-bounds-not-numbers": ("bsp-opt", {
        "value": UNIFORM, "bounds": [["a", 1], [0.01, 2.0], [-4.0, -1e-6]]}),
    "bsp-bounds-not-pairs": ("bsp-opt", {
        "value": UNIFORM, "bounds": [[0, 1, 2], [0.01, 2.0], [-4.0, -1e-6]]}),
    "negative-points": ("one-strategic-demo", {"k": 4, "points": -3}),
    "alpha-bounds-reversed": ("one-strategic-demo", {"k": 4, "alpha_bounds": [1.0, 0.5]}),
    "alpha-bounds-above-1": ("one-strategic-demo", {"k": 4, "alpha_bounds": [0.01, 1.3]}),
    "one-strategic-k1": ("one-strategic-demo", {"k": 1}),
    "alphas-not-numbers": ("payoff-curve", {
        "mechanism": "myerson", "k_values": [2], "alphas": [0.5, "x"]}),
    "alphas-negative-count": ("payoff-curve", {
        "mechanism": "myerson", "k_values": [2],
        "alphas": {"start": 0.1, "stop": 1.0, "count": -3}}),
    "k-values-below-2": ("payoff-curve", {"mechanism": "myerson", "k_values": [1, 2]}),
    "k-values-empty": ("payoff-curve", {"mechanism": "dutch", "k_values": []}),
    "vcg-reserves-length": ("simulate", {
        "mechanism": {"kind": "vcg-lazy", "reserves": [0.5]}, "bidders": BIDDERS,
        "seed": 1}),
    # NaN slips through a "< 0" test; each is refused before Monte Carlo runs
    "vcg-reserve-nan": ("simulate", {
        "mechanism": {"kind": "vcg-lazy", "reserves": [float("nan"), 0.0, 0.0]},
        "bidders": BIDDERS, "seed": 1}),
    "second-price-reserve-nan": ("simulate", {
        "mechanism": {"kind": "second-price", "reserve": float("nan")}, "bidders": BIDDERS,
        "seed": 1}),
    "bsp-boost-inf": ("simulate", {
        "mechanism": {"kind": "boosted-second-price", "boosts": [float("inf"), 1.0, 1.0]},
        "bidders": BIDDERS, "seed": 1}),
    "one-strategic-eps-nan": ("one-strategic-demo", {"k": 4, "eps": float("nan")}),
    "vcg-reserves-not-numbers": ("simulate", {
        "mechanism": {"kind": "vcg-eager", "reserves": "high"}, "bidders": BIDDERS,
        "seed": 1}),
    "rounds-not-integer": ("simulate", {
        "mechanism": {"kind": "myerson"}, "bidders": BIDDERS, "rounds": "many",
        "seed": 1}),
    "rounds-zero": ("simulate", {
        "mechanism": {"kind": "myerson"}, "bidders": BIDDERS, "rounds": 0, "seed": 1}),
    "k-not-integer": ("equilibrium-demo", {"k": 3.0, "seed": 1}),
    "k-1-equilibrium": ("equilibrium-demo", {"k": 1, "seed": 1}),
    "equilibrium-non-monotone": ("equilibrium-demo", {
        "k": 3, "seed": 1, "value": {"kind": "gp", "mu": 0, "sigma": 1, "xi": -0.2}}),
    "point-mass-not-bool": ("bsp-opt", {"value": UNIFORM, "point_mass": 1}),
    "workers-negative": ("equilibrium-demo", {"k": 2, "seed": 1, "workers": -3}),
    "workers-zero": ("simulate", {
        "mechanism": {"kind": "myerson"}, "bidders": BIDDERS, "seed": 1, "workers": 0}),
    "bidders-empty": ("simulate", {"mechanism": {"kind": "myerson"}, "bidders": [], "seed": 1}),
}


class TestRefusedConfigs:
    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_exits_2_without_output(self, tmp_path, capsys, case):
        command, payload = REFUSED[case]
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "c.json", {**payload, "out": str(out)})
        assert cli.main([command, cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command,payload", [
        ("payoff-curve", {"mechanism": "myerson", "k_values": [2]}),
        ("simulate", {"mechanism": {"kind": "myerson"}, "bidders": BIDDERS, "seed": 1})])
    def test_out_in_missing_directory(self, tmp_path, capsys, command, payload):
        out = tmp_path / "missing" / "out"
        cfg = write_config(tmp_path, "c.json", {**payload, "out": str(out)})
        assert cli.main([command, cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: out: no such directory")
        assert not out.parent.exists()

    def test_workers_env_not_an_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SHADECRAFT_WORKERS", "two")
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "c.json", {
            "mechanism": {"kind": "myerson"}, "bidders": BIDDERS, "seed": 1, "out": str(out)})
        assert cli.main(["simulate", cfg]) == 2
        assert "SHADECRAFT_WORKERS) must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_field_path_is_named(self, tmp_path, capsys):
        command, payload = REFUSED["linear-without-alpha"]
        cfg = write_config(tmp_path, "c.json", {**payload, "out": str(tmp_path / "o")})
        assert cli.main([command, cfg]) == 2
        assert "bidders[0].strategy: alpha: missing required field" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("payoff-curve", "--seed"), ("one-strategic-demo", "--workers"),
        ("bsp-opt", "--rounds"), ("payoff-curve", "--rounds")])
    def test_flag_the_command_does_not_read_is_refused(self, tmp_path, command, flag):
        cfg = write_config(tmp_path, "c.json", {})
        with pytest.raises(SystemExit) as exc:
            cli.main([command, cfg, flag, "3"])
        assert exc.value.code == 2

    def test_equilibrium_demo_flags_and_workers(self, tmp_path):
        # 70,000 rounds are two Monte Carlo chunks, so two workers share them
        outputs = []
        for w in ("1", "2"):
            out = tmp_path / f"eq-{w}.json"
            cfg = write_config(tmp_path, "c.json", {"k": 2, "seed": 1, "out": "unused"})
            assert cli.main(["equilibrium-demo", cfg, "--out", str(out), "--rounds",
                             "70000", "--seed", "4", "--workers", w]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["rounds"] == 70000 and report["metadata"]["seed"] == 4
