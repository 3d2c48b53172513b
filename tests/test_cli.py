import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from svdwbc import cli, thermo
from svdwbc.algebra import AnisotropyParam


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

    @pytest.mark.parametrize("draws", [0, -1])
    def test_draws_below_one_rejected(self, draws, capsys):
        assert run(["verify", "--M", "2", f"--draws={draws}"]) == 2
        assert "at least one random draw" in capsys.readouterr().err

    def test_reproducible_payload(self, tmp_path):
        for M in ("4", "6"):
            a, b = tmp_path / f"a{M}.json", tmp_path / f"b{M}.json"
            for path in (a, b):
                assert run(["verify", "--M", M, "--seed", "7", "--out", str(path)]) == 0
            da, db = load(a), load(b)
            da.pop("created"), db.pop("created")
            assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    @pytest.mark.parametrize("flags", [["--N", "3"], ["--N=2"], ["--mu", "0.1,0.2,0.3,0.4"]])
    def test_lattice_flags_it_never_reads_are_bad_input(self, flags, capsys):
        assert run(["verify", "--M", "4", "--draws", "2", *flags]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["N = 2", "mu = homogeneous"])
    def test_config_lattice_keys_are_bad_input(self, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run(["verify", "--M", "4", "--draws", "2", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err


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

    def test_unread_seed_flag_is_bad_input(self, capsys):
        # only verify and efp-thermo draw random numbers
        assert run(["solve-bae", "--N", "2", "--seed", "1"]) == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_inadmissible_numbers_exit_code(self, capsys):
        code = run(["solve-bae", "--M", "8", "--numbers=-1.5,-0.5,0.5,2.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "input error" in err and "2.5 is not admissible" in err

    def test_stalled_solve_exit_code(self, capsys):
        # the all-shifted filling has no solution with the last number at 4.5
        code = run(["solve-bae", "--M", "8", "--numbers=-1.5,-0.5,0.5,4.5",
                    "--parities=-1,-1,-1,-1"])
        assert code == cli.EXIT_CONVERGENCE == 3
        assert "convergence failure" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["solve-bae", "partition", "efp-finite"])
    def test_disagreeing_m_and_n_rejected(self, command, capsys):
        assert run([command, "--M", "8", "--N", "3"]) == 2
        assert "--M 8 and --N 3 disagree" in capsys.readouterr().err

    def test_agreeing_m_and_n_accepted(self, tmp_path):
        out = tmp_path / "roots.json"
        assert run(["solve-bae", "--M", "8", "--N", "4", "--out", str(out)]) == 0
        assert load(out)["results"]["M"] == 8


class TestPartitionCommand:
    def test_brute_force_equals_determinant(self, tmp_path):
        out = tmp_path / "z.json"
        assert run(["partition", "--M", "6", "--out", str(out)]) == 0
        res = load(out)["results"]
        assert res["relative_difference"] < 1e-10
        assert res["r_sign"] in (-1, 1)
        norm = complex(*res["norm_determinant"])
        assert res["log_abs_norm"] == pytest.approx(np.log(abs(norm)), rel=1e-12)

    @pytest.mark.parametrize("M", [14, 64, 128])
    def test_beyond_brute_force(self, tmp_path, M):
        # the log modulus at every M; the norm is null once it leaves the
        # double range (M = 50 on at gamma = 0.6), as are the brute-force fields
        out = tmp_path / "z.json"
        assert run(["partition", "--M", str(M), "--out", str(out)]) == 0
        res = load(out)["results"]
        assert res["Z_bruteforce"] is None and res["relative_difference"] is None
        assert res["r_sign"] in (-1, 1) and np.isfinite(res["log_abs_norm"])
        if M == 14:
            norm = complex(*res["norm_determinant"])
            assert np.sign(norm.real) == res["r_sign"]
            assert res["log_abs_norm"] == pytest.approx(np.log(abs(norm)), rel=1e-12)
        else:
            assert res["norm_determinant"] is None


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

    def test_every_offset(self, tmp_path, monkeypatch):
        mu = "-0.4,-0.1,0.05,0.2,0.3,0.5"
        pairs = []
        make_pair = cli.algebra.correlator_pair
        monkeypatch.setattr(cli.algebra, "correlator_pair",
                            lambda *a: pairs.append(a) or make_pair(*a))
        out = tmp_path / "all.json"
        assert run(["efp-finite", "--M", "6", f"--mu={mu}", "--n", "2", "--k", "all",
                    "--out", str(out)]) == 0
        assert len(pairs) == 1
        doc = load(out)
        assert doc["config"]["k"] == "all"
        res = doc["results"]
        assert res["window_columns"] == [[k + 1, k + 2] for k in range(5)]
        for k in range(5):
            one = tmp_path / f"k{k}.json"
            assert run(["efp-finite", "--M", "6", f"--mu={mu}", "--n", "2", "--k", str(k),
                        "--out", str(one)]) == 0
            single = load(one)["results"]
            assert res["efp"][k] == single["efp"]
            assert res["bruteforce"][k] == single["bruteforce"]
            assert single["window_columns"] == res["window_columns"][k]

    def test_every_offset_beyond_brute_force(self, tmp_path):
        out = tmp_path / "all.json"
        assert run(["efp-finite", "--M", "14", "--n", "1", "--k", "all",
                    "--out", str(out)]) == 0
        res = load(out)["results"]
        assert res["bruteforce"] is None
        assert res["efp"] == pytest.approx([0.5] * 14, abs=1e-12)

    @pytest.mark.parametrize("k", ["1.5", "every", "ALL", ""])
    def test_offset_must_be_integer_or_all(self, k, capsys):
        assert run(["efp-finite", "--M", "4", "--n", "1", f"--k={k}"]) == 2
        assert "expected an integer or 'all'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("mu", [None, "0.3,-0.1,0.5"])
    def test_csv_bytes_match_csv_writer(self, tmp_path, mu):
        flags = ["--points", "64"] + (["--mu", mu] if mu else [])
        out = tmp_path / "d.csv"
        assert run(["density", *flags, "--out", str(out)]) == 0
        gamma = AnisotropyParam(0.6)
        grid = thermo.contour_grid(gamma, None, 64)
        prof = thermo.solve_density(thermo.ground_state_theta(grid), grid, gamma,
                                    mu=mu and [float(v) for v in mu.split(",")])
        rows = sorted(
            zip(grid.shifted, grid.x, prof.rho_tot, prof.rho_p, prof.theta),
            key=lambda r: (r[0], r[1] if not r[0] else -r[1]),
        )
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["branch", "x", "rho_tot", "rho_p", "theta"])
        for shifted, *vals in rows:
            writer.writerow(["shifted" if shifted else "real", *(f"{v:.17g}" for v in vals)])
        assert out.read_bytes() == ref.getvalue().encode()

    def test_gamma_zero_rejected(self, tmp_path, capsys):
        # the branch kernels are 0/0 at coincident abscissae when gamma = 0
        assert run(["density", "--gamma", "0", "--out", str(tmp_path / "d.csv")]) == 2
        assert "gamma = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--mu", "nan,0"], "driving centres"),
        (["--cutoff", "nan"], "cutoff"),
    ])
    def test_nonfinite_input_is_bad_input(self, flags, message, tmp_path, capsys):
        assert run(["density", *flags, "--out", str(tmp_path / "d.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()


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

    def test_gamma_zero_rejected(self, capsys):
        assert run(["efp-thermo", "--n", "2", "--gamma", "0"]) == 2
        assert "gamma = 0" in capsys.readouterr().err

    def test_fewer_samples_than_strata_rejected(self, capsys):
        assert run(["efp-thermo", "--n", "4", "--points", "16", "--samples", "0"]) == 2
        assert "samples" in capsys.readouterr().err

    def test_large_cutoff_matches_default(self, tmp_path):
        # at cutoff 300 the window rows reach e^{+-600}; each stays finite
        values = []
        for extra in ([], ["--cutoff", "300"]):
            out = tmp_path / f"efp{len(extra)}.json"
            assert run(["efp-thermo", "--n", "2", *extra, "--out", str(out)]) == 0
            values.append(load(out)["results"]["efp"])
        assert abs(values[1] - values[0]) < 1e-10

    @pytest.mark.parametrize("flags, message", [
        (["--n", "2", "--mu-window", "nan,0"], "window columns"),
        (["--n", "1", "--mu-window", "inf"], "window columns"),
        (["--n", "1", "--cutoff", "nan"], "cutoff"),
    ])
    def test_nonfinite_input_is_bad_input(self, flags, message, capsys):
        assert run(["efp-thermo", *flags]) == 2
        assert message in capsys.readouterr().err

    def test_overflowing_cutoff_is_bad_input(self, capsys):
        # the pair table sinh(z_b - z_a - i gamma) would reach sinh(800)
        assert run(["efp-thermo", "--n", "2", "--cutoff", "400"]) == 2
        assert "cutoff" in capsys.readouterr().err

    def test_negative_window_length_is_bad_input(self, capsys):
        assert run(["efp-thermo", "--n", "-1"]) == 2
        assert capsys.readouterr().err == (
            "input error: window length must be >= 0, got n = -1\n")

    @pytest.mark.parametrize("window", ["0.5", "0.1,0.2", "x"])
    def test_negative_window_length_with_window_is_bad_input(self, window, capsys):
        # the window is not counted against a negative n: efp_thermo rejects n
        assert run(["efp-thermo", "--n", "-1", "--mu-window", window]) == 2
        assert capsys.readouterr().err == (
            "input error: window length must be >= 0, got n = -1\n")


class TestListFlags:
    """--mu, --mu-window, --numbers and --parities share one list parser."""

    @pytest.mark.parametrize("head, flag, text", [
        (["solve-bae", "--M", "4"], "--mu", "0.1,-0.1,0.2,-0.2"),
        (["solve-bae", "--M", "4"], "--numbers", "-0.5,0.5"),
        (["solve-bae", "--M", "4"], "--parities", "-1,-1"),
        (["efp-thermo", "--n", "2", "--points", "64"], "--mu-window", "-0.1,0.2"),
        (["density", "--points", "32"], "--mu", "0.1,-0.2"),
    ])
    def test_file_form_matches_comma_form(self, tmp_path, head, flag, text):
        listing = tmp_path / "values.txt"
        listing.write_text(text.replace(",", "\n") + "\n")
        outputs = []
        for name, value in (("comma", text), ("file", f"@{listing}")):
            out = tmp_path / f"{name}.out"
            assert run([*head, f"{flag}={value}", "--out", str(out)]) == 0
            # config echoes the flag's text; density writes the profile to --out
            outputs.append(out.read_text() if head[0] == "density" else load(out)["results"])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv, message", [
        (["solve-bae", "--M", "4", "--mu", "0.1,0.2,0.3"], "expected 4 inhomogeneities, got 3"),
        (["solve-bae", "--M", "4", "--numbers", "0.5"], "expected 2 quantum numbers, got 1"),
        (["solve-bae", "--M", "4", "--parities=1,1,-1"], "expected 2 parities, got 3"),
        (["efp-thermo", "--n", "2", "--mu-window", "0.1"], "expected 2 window columns, got 1"),
    ])
    def test_wrong_count_is_bad_input(self, argv, message, capsys):
        assert run(argv) == 2
        assert message in capsys.readouterr().err

    def test_wrong_count_in_file_is_bad_input(self, tmp_path, capsys):
        listing = tmp_path / "numbers.txt"
        listing.write_text("-1.5 -0.5 0.5\n")
        assert run(["solve-bae", "--M", "4", "--numbers", f"@{listing}"]) == 2
        assert "expected 2 quantum numbers, got 3" in capsys.readouterr().err


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

    @pytest.mark.parametrize("line, message", [
        ("M = 4.0", "argument --M: invalid int value: '4.0'"),
        ("N = 2.5", "argument --N: invalid int value: '2.5'"),
        ("func = x", "unknown config key: func"),
        ("command = verify", "unknown config key: command"),
        ("M", "line 2: no value for config key 'M'"),
        ("M =", "line 2: no value for config key 'M'"),
    ])
    def test_values_are_parsed_like_flags(self, line, message, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"gamma = 0.6\n{line}\n")
        assert run(["partition", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_values_reach_the_flags_verbatim(self, tmp_path):
        # the `key value` form, a value with spaces, and one that starts
        # with a minus sign
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N 2\nmu = -0.2, 0.1, 0.3, 0.5\n")
        out = tmp_path / "r.json"
        assert run(["solve-bae", "--config", str(cfg), "--out", str(out)]) == 0
        assert load(out)["config"]["M"] == 4
        assert load(out)["config"]["mu"] == "-0.2, 0.1, 0.3, 0.5"


class TestArgumentErrors:
    """argparse's own exits come back as main's return value."""

    def test_help_returns_zero(self, capsys):
        assert run(["--help"]) == 0
        assert run(["verify", "--help"]) == 0
        assert "usage: svdwbc" in capsys.readouterr().out

    def test_help_from_the_shell_exits_zero(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "svdwbc.cli", "--help"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert "usage: svdwbc" in proc.stdout

    def test_unknown_subcommand_is_bad_input(self, capsys):
        assert run(["frobnicate"]) == 2
        assert "invalid choice" in capsys.readouterr().err


COMMANDS = ["verify", "solve-bae", "partition", "efp-finite", "density", "efp-thermo"]


class TestParserPerCommand:
    """main builds only the subparser that argv[0] names; what argparse
    prints must not show it."""

    def test_one_subparser_for_a_named_command(self, tmp_path, monkeypatch):
        built, add_parser = [], argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        cli._parser.cache_clear()  # earlier tests have built and kept parsers
        argv = ["efp-finite", "--M", "4", "--n", "1", "--out", str(tmp_path / "e.json")]
        assert run(argv) == 0
        assert built == ["efp-finite"]
        built.clear()
        assert run(argv) == 0
        assert built == []  # the second run shares the first run's parser
        assert run(["--help"]) == 0
        assert built == COMMANDS
        built.clear()
        assert [run(["frobnicate"]), run(["--bogus"]), run(["--help"])] == [2, 2, 0]
        assert built == []
        full = cli.build_parser()
        assert all(cli.build_parser(word) is full for word in ("frobnicate", "--bogus", "--help"))

    @staticmethod
    def _full_parser_output(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli._parse_args(cli.build_parser(), argv)
        return exc.value.code, capsys.readouterr()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("tail", [["--help"], ["--bogus"], ["--gamma", "x"]])
    def test_messages_match_the_full_parser(self, command, tail, capsys):
        code, full = self._full_parser_output([command, *tail], capsys)
        assert run([command, *tail]) == code
        assert capsys.readouterr() == full


class TestRepeatedCalls:
    """main called twice in one process, on the shared parsers."""

    ARGV = {
        "verify": ["verify", "--M", "2", "--draws", "3", "--seed", "5"],
        "solve-bae": ["solve-bae", "--M", "6", "--mu", "0.1,-0.2,0.3,0,0.05,-0.1"],
        "partition": ["partition", "--M", "4", "--gamma", "0.9"],
        "efp-finite": ["efp-finite", "--M", "8", "--n", "2", "--k", "all"],
        "density": ["density", "--points", "32"],
        "efp-thermo": ["efp-thermo", "--n", "2", "--points", "32"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_second_call_prints_the_same(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        outputs = []
        for _ in range(2):
            assert run(self.ARGV[command]) == 0
            out, err = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
            out, stamps = re.subn(r'"created": "[^"]*"', '"created": ""', out)
            assert stamps == (command != "density")  # density prints no timestamp
            outputs.append((out, err, files))
        assert outputs[0] == outputs[1]

    def test_flags_beat_the_config_on_the_shared_parser(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 0.9\nM = 4\n")
        gammas = []
        for argv in (["--config", str(cfg)], ["--config", str(cfg), "--gamma", "0.5"],
                     ["--config", str(cfg)], ["--M", "4"]):
            assert run(["partition", *argv]) == 0
            gammas.append(json.loads(capsys.readouterr().out)["config"]["gamma"])
        assert gammas == [0.9, 0.5, 0.9, 0.6]


class TestUnknownFlags:
    """A flag the subcommand does not take is reported with that
    subcommand's usage, which lists the flags it does take."""

    @pytest.mark.parametrize("argv, bad", [(["verify", "--N", "3"], "--N 3"),
                                           (["efp-thermo", "--samples-typo", "1"],
                                            "--samples-typo 1")])
    def test_subcommand_usage(self, argv, bad, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: svdwbc {argv[0]} [-h]")
        assert err.endswith(f"svdwbc {argv[0]}: error: unrecognized arguments: {bad}\n")

    def test_flag_before_the_subcommand_keeps_top_level_usage(self, capsys):
        assert run(["--bogus", "verify"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: svdwbc [-h]")
        assert err.endswith("svdwbc: error: unrecognized arguments: --bogus\n")


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
