import argparse
import csv
import json
import re
from pathlib import Path

import pytest

from svdwbc import cli


def run(argv):
    return cli.main(argv)


def load(path):
    with open(path) as fh:
        return json.load(fh)


class TestVerifyCommand:
    def test_default_battery_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["verify", "--M", "4", "--gamma", "0.6", "--seed", "42",
                    "--draws", "25", "--out", str(out)])
        assert code == 0
        report = load(out)
        assert report["results"]["all_passed"]
        assert {c["check"] for c in report["results"]["checks"]} >= {
            "rtt_intertwining",
            "slavnov_vs_bruteforce",
            "gaudin_vs_bruteforce",
            "qism_projector",
            "d_action_expansion",
            "efp_determinant_vs_bruteforce",
        }

    def test_unattainable_tolerance_fails_controlled(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["verify", "--M", "4", "--draws", "5", "--tol", "1e-30",
                    "--out", str(out)])
        assert code == 1
        report = load(out)
        assert not report["results"]["all_passed"]
        err = capsys.readouterr().err
        assert "first failing check" in err

    def test_odd_m_rejected(self, capsys):
        assert run(["verify", "--M", "3"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_m_above_battery_cap_rejected(self, capsys):
        assert run(["verify", "--M", "8"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_reproducible_payload(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(["verify", "--M", "4", "--seed", "7", "--out", str(path)]) == 0
        da, db = load(a), load(b)
        da.pop("created"), db.pop("created")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


class TestSolveBae:
    def test_writes_schema(self, tmp_path):
        out = tmp_path / "roots.json"
        code = run(["solve-bae", "--N", "4", "--gamma", "0.6",
                    "--mu", "homogeneous", "--out", str(out)])
        assert code == 0
        doc = load(out)
        res = doc["results"]
        assert set(res) == {"gamma", "M", "mu", "roots", "n", "v", "residuals", "r_sign"}
        assert res["M"] == 8
        assert all(r < 1e-12 for r in res["residuals"])
        assert all(set(r) == {"x", "branch"} for r in res["roots"])

    def test_reproducible_payload(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(["solve-bae", "--N", "2", "--gamma", "0.5",
                        "--out", str(path)]) == 0
        da, db = load(a), load(b)
        da.pop("created"), db.pop("created")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_mu_file_input(self, tmp_path):
        mu_file = tmp_path / "mu.txt"
        mu_file.write_text("0.1, -0.1, 0.2, -0.2\n")
        out = tmp_path / "roots.json"
        code = run(["solve-bae", "--M", "4", "--mu", f"@{mu_file}", "--out", str(out)])
        assert code == 0
        assert load(out)["results"]["mu"] == [0.1, -0.1, 0.2, -0.2]

    def test_gamma_zero_rejected(self, capsys):
        # the log-form equations divide by tan(gamma / 2), which vanishes at gamma = 0
        assert run(["solve-bae", "--M", "4", "--gamma", "0"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_mu_length_mismatch(self, capsys):
        assert run(["solve-bae", "--M", "4", "--mu", "0.1,0.2"]) == 2

    def test_custom_numbers_and_parities(self, tmp_path):
        out = tmp_path / "shifted.json"
        code = run(["solve-bae", "--M", "4", "--numbers=-0.5,0.5",
                    "--parities=-1,-1", "--out", str(out)])
        assert code == 0
        res = load(out)["results"]
        assert res["v"] == [-1, -1]
        assert all(r["branch"] == "shifted" for r in res["roots"])

    def test_inadmissible_numbers_exit_code(self, capsys):
        code = run(["solve-bae", "--M", "8", "--numbers=-1.5,-0.5,0.5,2.5"])
        assert code == 3
        assert "convergence" in capsys.readouterr().err


class TestPartitionCommand:
    def test_brute_force_equals_determinant(self, tmp_path):
        out = tmp_path / "z.json"
        assert run(["partition", "--M", "6", "--out", str(out)]) == 0
        res = load(out)["results"]
        assert res["relative_difference"] < 1e-10
        assert res["r_sign"] in (-1, 1)


class TestEfpFiniteCommand:
    def test_single_column(self, tmp_path):
        out = tmp_path / "efp.json"
        assert run(["efp-finite", "--M", "6", "--n", "1", "--k", "2",
                    "--out", str(out)]) == 0
        res = load(out)["results"]
        assert res["efp"] == pytest.approx(0.5, abs=1e-9)
        assert res["bruteforce"] == pytest.approx(res["efp"], abs=1e-8)
        assert res["window_columns"] == [3]

    def test_out_of_range_window(self, capsys):
        assert run(["efp-finite", "--M", "4", "--n", "3", "--k", "2"]) == 2

    def test_near_coincident_window_matches_bruteforce(self, tmp_path):
        # columns 1e-12 apart take the one divided-difference path, which
        # has no parameter to record
        out = tmp_path / "efp.json"
        assert run(["efp-finite", "--M", "4", "--mu=-0.3,0.0,1e-12,0.3", "--n", "2",
                    "--k", "1", "--out", str(out)]) == 0
        doc = load(out)
        assert "eps_schedule" not in doc["config"]
        assert doc["results"]["efp"] == pytest.approx(doc["results"]["bruteforce"], abs=1e-8)


class TestDensityCommand:
    def test_csv_profile(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run(["density", "--gamma", "1.0471975512", "--points", "256",
                    "--out", "dens.csv"])
        assert code == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["rho_tot_0"] == pytest.approx(0.47746, abs=1e-4)
        assert meta["filling"] == pytest.approx(0.5, abs=1e-7)
        with open(tmp_path / "dens.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["branch", "x", "rho_tot", "rho_p", "theta"]
        branches = {r[0] for r in rows[1:]}
        assert branches == {"real", "shifted"}
        sidecar = load(tmp_path / "dens.csv.meta.json")
        assert sidecar["config"]["points"] == 256


class TestEfpThermoCommand:
    def test_n1_ground_state(self, tmp_path):
        out = tmp_path / "efp.json"
        assert run(["efp-thermo", "--n", "1", "--gamma", "0.6",
                    "--out", str(out)]) == 0
        doc = load(out)
        assert doc["results"]["efp"] == pytest.approx(0.5, abs=1e-6)
        assert doc["config"]["points"] == 256

    def test_degenerate_window_value(self, tmp_path):
        out = tmp_path / "efp2.json"
        assert run(["efp-thermo", "--n", "2", "--gamma", "0.6", "--points", "128",
                    "--out", str(out)]) == 0
        doc = load(out)
        assert "eps_schedule" not in doc["config"]
        assert 0 < doc["results"]["efp"] < 0.5

    def test_invalid_gamma(self, capsys):
        assert run(["efp-thermo", "--n", "1", "--gamma", "2.0"]) == 2

    def test_large_cutoff_matches_default(self, tmp_path):
        # at cutoff 300 the window rows reach e^{+-600}; each stays finite
        values = []
        for extra in ([], ["--cutoff", "300"]):
            out = tmp_path / f"efp{len(extra)}.json"
            assert run(["efp-thermo", "--n", "2", *extra, "--out", str(out)]) == 0
            values.append(load(out)["results"]["efp"])
        assert abs(values[1] - values[0]) < 1e-10

    def test_overflowing_cutoff_is_bad_input(self, capsys):
        # the pair table sinh(z_b - z_a - i gamma) would reach sinh(800)
        assert run(["efp-thermo", "--n", "2", "--cutoff", "400"]) == 2
        assert "cutoff" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 0.9\nN = 2\n# comment\n")
        out1 = tmp_path / "r1.json"
        assert run(["solve-bae", "--config", str(cfg), "--out", str(out1)]) == 0
        assert load(out1)["config"]["gamma"] == 0.9
        out2 = tmp_path / "r2.json"
        assert run(["solve-bae", "--config", str(cfg), "--gamma", "0.5",
                    "--out", str(out2)]) == 0
        assert load(out2)["config"]["gamma"] == 0.5

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert run(["solve-bae", "--N", "1", "--config", str(cfg)]) == 2


class TestReadme:
    def test_flags_line_lists_every_option(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        line = re.search(r"Flags: `([^`]*)`", text).group(1)
        listed = set(re.findall(r"--[A-Za-z][A-Za-z-]*", line))
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {opt for p in sub.choices.values() for a in p._actions
                 for opt in a.option_strings if opt.startswith("--") and opt != "--help"}
        assert listed == flags
