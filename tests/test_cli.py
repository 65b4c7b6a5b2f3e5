import json

import numpy as np
import pytest

from shadecraft import cli


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
