import argparse
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from handcoded import bell_wigner_values, w_marginal_closed_form
from noonbell import cli, correlators, marginals, optimizer


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAmplitudeParsing:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("0", 0j),
            ("1+0i", 1 + 0j),
            ("-1+0i", -1 + 0j),
            ("0.5i", 0.5j),
            ("-0.25-0.75i", -0.25 - 0.75j),
            ("2", 2 + 0j),
            ("1.5e-2+3i", 0.015 + 3j),
        ],
    )
    def test_accepts(self, token, expected):
        assert cli.parse_amplitude(token) == expected

    @pytest.mark.parametrize("token", ["", "abc", "1+", "1 + 2i", "inf"])
    def test_rejects(self, token):
        with pytest.raises(cli.CliError):
            cli.parse_amplitude(token)


class TestEval:
    def test_q_joint_reference(self, capsys):
        code, out, _ = run_cli(
            ["eval", "q-joint", "--n", "1", "--settings", "1+0i,-1+0i"], capsys
        )
        assert code == 0
        assert float(out) == pytest.approx(2.0 * math.exp(-2.0), abs=1e-14)

    def test_ch_classical_edge(self, capsys):
        code, out, _ = run_cli(["eval", "ch", "--n", "1", "--settings", "0,0,0,0"], capsys)
        assert code == 0
        assert float(out) == -1.0

    def test_unknown_target_exit_2(self, capsys):
        code, _, err = run_cli(["eval", "nosuch", "--n", "1", "--settings", "0"], capsys)
        assert code == 2
        assert "unknown target" in err

    def test_arity_mismatch_exit_2(self, capsys):
        code, _, err = run_cli(["eval", "q-joint", "--n", "1", "--settings", "0"], capsys)
        assert code == 2
        assert "settings" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["eval", "wigner", "--n", "1", "--settings", "0,0", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(-4.0 / math.pi**2)
        assert doc["settings"] == ["0.0+0.0i", "0.0+0.0i"]

    def test_clicks_three_values(self, capsys):
        code, out, _ = run_cli(["eval", "clicks", "--n", "1", "--settings", "0,0"], capsys)
        assert code == 0
        values = [float(tok) for tok in out.split()]
        assert values == [0.5, 0.5, 0.0]

    @pytest.mark.parametrize("n", [1, 2, 25])
    @pytest.mark.parametrize("target,index", [("bw1", 0), ("bw2", 1)])
    def test_bell_wigner_matches_hand_coded(self, capsys, target, index, n):
        code, out, _ = run_cli(
            ["eval", target, "--n", str(n), "--settings", "0.3+0.2i,-0.5+0.1i,0.9-0.4i"], capsys
        )
        assert code == 0
        expected = bell_wigner_values(n, [0.3 + 0.2j, -0.5 + 0.1j, 0.9 - 0.4j])[index]
        assert out == repr(expected) + "\n"

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_q_single_b_is_q_single_a(self, capsys, fmt):
        argv = ["--n", "3", "--settings", "0.7-0.2i", "--format", fmt]
        code_a, out_a, _ = run_cli(["eval", "q-single-a", *argv], capsys)
        code_b, out_b, _ = run_cli(["eval", "q-single-b", *argv], capsys)
        assert code_a == code_b == 0
        assert out_b == out_a
        assert out_b.splitlines()[-1] == repr(float(correlators.q_single_a(3, 0.7 - 0.2j)))

    def test_manifest_duration_includes_evaluation(self, tmp_path, capsys, monkeypatch):
        real_q_joint = correlators.q_joint

        def slow_q_joint(*args):
            time.sleep(0.05)
            return real_q_joint(*args)

        monkeypatch.setattr(correlators, "q_joint", slow_q_joint)
        out = tmp_path / "v.txt"
        code, _, _ = run_cli(
            ["eval", "q-joint", "--n", "1", "--settings", "1,-1", "--out", str(out)], capsys
        )
        assert code == 0
        manifest = json.loads((tmp_path / "v.txt.manifest.json").read_text())
        assert manifest["duration_seconds"] >= 0.05


class TestOptimize:
    def test_j2_reference(self, capsys):
        code, out, _ = run_cli(
            ["optimize", "j2", "--n", "5", "--seed", "1", "--starts", "8"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["best_value"] == pytest.approx(4.0, abs=1e-8)
        assert doc["violation_margin"] == pytest.approx(1.0, abs=1e-8)

    def test_unknown_functional(self, capsys):
        code, _, err = run_cli(["optimize", "nosuch", "--n", "1"], capsys)
        assert code == 2

    def test_no_converged_start_exit_3(self, capsys, monkeypatch):
        from dataclasses import replace

        from noonbell import cli as cli_mod

        real = cli_mod.optimize

        def starved(functional, n, cfg):
            return replace(real(functional, n, cfg), starts_converged=0)

        monkeypatch.setattr(cli_mod, "optimize", starved)
        code, out, _ = run_cli(["optimize", "j1", "--n", "1", "--starts", "4"], capsys)
        assert code == 3
        assert json.loads(out)["starts_converged"] == 0

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code, _, _ = run_cli(
                [
                    "optimize", "ch", "--n", "1", "--seed", "7",
                    "--starts", "8", "--out", str(out),
                ],
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_written_and_replayable(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _, _ = run_cli(
            ["optimize", "j1", "--n", "2", "--seed", "3", "--starts", "8", "--out", str(out)],
            capsys,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["command"] == "optimize"
        assert manifest["outputs"] == [str(out)]
        assert manifest["seed"] == 3
        # replaying the recorded parameters reproduces the payload bytes
        params = manifest["parameters"]
        replay = tmp_path / "replay.json"
        code, _, _ = run_cli(
            [
                "optimize", params["functional"], "--n", str(params["n"]),
                "--seed", str(params["seed"]), "--starts", str(params["starts"]),
                "--radius", str(params["radius"]), "--grid", str(params["grid"]),
                "--out", str(replay),
            ],
            capsys,
        )
        assert code == 0
        assert replay.read_bytes() == out.read_bytes()


class TestSweep:
    def test_csv_and_svg(self, tmp_path, capsys):
        out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        code, _, _ = run_cli(
            [
                "sweep", "j2", "--n", "1:3", "--seed", "2", "--starts", "8",
                "--out", str(out), "--svg", str(svg),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("functional,n,best_value")
        svg_text = svg.read_text()
        assert svg_text.startswith("<svg")
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted([str(out), str(svg)])

    def test_range_forms(self, capsys):
        code, out, _ = run_cli(["sweep", "j2", "--n", "2", "--seed", "1", "--starts", "4"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 3  # header + N=1,2


class TestMarginal:
    def test_csv_grid(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code, _, _ = run_cli(
            ["marginal", "q", "--n", "1", "--range", "3", "--count", "64", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kind,n,range,count,normalization"
        assert len(lines) == 2 + 64
        values = np.array([[float(t) for t in ln.split(",")] for ln in lines[2:]])
        assert values.shape == (64, 64)
        assert values.min() >= 0.0

    def test_heatmap_metadata(self, tmp_path, capsys):
        svg = tmp_path / "m.svg"
        code, _, _ = run_cli(
            ["marginal", "w", "--n", "2", "--count", "24", "--svg", str(svg), "--out", str(tmp_path / "m.csv")],
            capsys,
        )
        assert code == 0
        text = svg.read_text()
        assert "<desc>linear color map; min=" in text

    def test_constant_grid_draws_one_colour(self, tmp_path, capsys):
        # at range 1e-9 every q value is 1/(4 pi): the colour map spans nothing
        svg = tmp_path / "m.svg"
        argv = ["marginal", "q", "--n", "2", "--range", "1e-9", "--count", "16", "--svg", str(svg)]
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        fills = re.findall(r'<rect x="[^"]*" y="[^"]*" [^>]* fill="([^"]*)"/>', svg.read_text())
        assert len(fills) == 256
        assert set(fills) == {"rgb(68,1,84)"}

    def test_forty_photons_match_hermite_closed_form(self, capsys):
        # N = 40 was the first photon number past the old fixed order
        code, out, _ = run_cli(["marginal", "w", "--n", "40", "--count", "64"], capsys)
        assert code == 0
        values = np.array([[float(t) for t in ln.split(",")] for ln in out.splitlines()[2:]])
        assert values.shape == (64, 64) and values.min() >= -1e-12
        axis = np.linspace(-3.0, 3.0, 64)
        expected = w_marginal_closed_form(40, axis[:, np.newaxis], axis[np.newaxis, :])
        # the CSV prints 11 significant digits
        np.testing.assert_allclose(values, expected, rtol=1e-10, atol=1e-13)

    def test_photon_number_above_limit_exit_2(self, capsys, monkeypatch):
        for kind in marginals._AXIS_PARTS:
            monkeypatch.setitem(marginals._AXIS_PARTS, kind, None)
        limit = marginals._MAX_N
        code, out, err = run_cli(["marginal", "w", "--n", str(limit + 1)], capsys)
        assert code == 2
        assert out == "" and f"photon number <= {limit}, got {limit + 1}" in err

    def test_count_too_small_exit_2(self, capsys):
        code, _, err = run_cli(["marginal", "w", "--n", "1", "--count", "8"], capsys)
        assert code == 2
        assert "count" in err

    @pytest.mark.parametrize("key,value", [("count", "lots"), ("range", "wide")])
    def test_bad_config_value_exit_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        code, _, err = run_cli(["marginal", "w", "--n", "1", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("noonbell: error:") and key in err


class TestVerify:
    def test_quick_passes(self, capsys):
        code, out, _ = run_cli(["verify", "quick"], capsys)
        assert code == 0
        assert "all" in out and "passed" in out

    def test_corrupted_recurrence_detected(self, capsys, monkeypatch):
        # mutation test: a corrupted Laguerre recurrence must fail verify
        from noonbell import correlators

        real = correlators.laguerre

        def corrupted(n, x):
            value = real(n, x)
            return value + (1e-3 if n >= 2 else 0.0)

        monkeypatch.setattr(correlators, "laguerre", corrupted)
        code, out, _ = run_cli(["verify", "quick"], capsys)
        assert code == 1
        assert "FAIL" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["verify", "quick", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert all(entry["passed"] for entry in doc)


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "starts": 8}))
        out = tmp_path / "o.json"
        code, _, _ = run_cli(
            ["optimize", "j1", "--n", "1", "--config", str(cfg), "--out", str(out)], capsys
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 5
        assert doc["starts_total"] == 8

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        code, out, _ = run_cli(
            ["optimize", "j1", "--n", "1", "--config", str(cfg), "--seed", "9", "--starts", "4"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["seed"] == 9

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(["optimize", "j1", "--n", "1", "--config", str(cfg)], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv,fmt", [
        (["eval", "q-joint", "--n", "1", "--settings", "1,0"], "xml"),
        (["optimize", "j1", "--n", "1", "--starts", "4"], "xml"),
        (["verify", "quick"], "csv"),
    ], ids=["eval", "optimize", "verify"])
    def test_config_format_outside_choices_exit_2(self, tmp_path, capsys, argv, fmt):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": fmt}))
        code, out, err = run_cli([*argv, "--config", str(cfg)], capsys)
        assert code == 2
        assert out == "" and "format" in err

    def test_config_format_ignored_without_format_option(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json"}))
        argv = ["marginal", "w", "--n", "1", "--count", "16"]
        _, plain, _ = run_cli(argv, capsys)
        code, configured, _ = run_cli([*argv, "--config", str(cfg)], capsys)
        assert code == 0
        assert configured == plain and plain.startswith("kind,n,range")


class TestDeclaredOptions:
    """Each subcommand takes only the options its handler reads; argparse
    rejects the rest, and the required or integer ones, with exit 2."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "ch", "--n", "1", "--format", "json"],
        ["marginal", "w", "--n", "1", "--format", "json"],
        ["verify", "quick", "--out", "v.json"],
        ["verify", "quick", "--n", "1"],
        ["verify", "quick", "--format", "csv"],
        ["catalog", "--threads", "2"],
        ["eval", "q-joint", "--settings", "1,0"],
        ["eval", "q-joint", "--n", "1"],
        ["eval", "q-joint", "--n", "one", "--settings", "1,0"],
        ["optimize", "ch"],
        ["optimize", "ch", "--n", "1.5"],
        ["sweep", "ch"],
        ["marginal", "w"],
    ])
    def test_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("n", ["3:1", "0:2", "1:x"])
    def test_bad_sweep_range_exit_2(self, capsys, n):
        code, out, err = run_cli(["sweep", "ch", "--n", n, "--starts", "1"], capsys)
        assert code == 2
        assert out == "" and err.startswith("noonbell: error:")

    @pytest.mark.parametrize("argv", [
        ["marginal", "w", "--n", "1", "--range", "nan"],
        ["marginal", "w", "--n", "1", "--range", "inf"],
        ["optimize", "ch", "--n", "1", "--radius", "inf"],
        ["optimize", "ch", "--n", "1", "--radius", "nan"],
    ])
    def test_non_finite_value_exit_2(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == "" and "finite" in err

    def test_count_above_limit_exit_2(self, capsys):
        code, out, err = run_cli(["marginal", "w", "--n", "1", "--count", "100000"], capsys)
        assert code == 2
        assert out == "" and "count must be <=" in err and "MB" in err

    @pytest.mark.parametrize("argv,expected", [
        (["optimize", "ch", "--n", "1", "--grid", "40", "--starts", "1"],
         ("40^7 = 1.64e+11 points", "s to scan")),
        (["optimize", "ch", "--n", "1", "--starts", str(optimizer._MAX_STARTS + 1)],
         ("num_starts must be <=", "s of simplex polish")),
    ])
    def test_cost_above_limit_exit_2(self, capsys, monkeypatch, argv, expected):
        def no_scan(*args):
            raise AssertionError("the grid scan started")

        monkeypatch.setattr(optimizer, "evaluate_functional", no_scan)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == "" and all(text in err for text in expected)


class TestUnwritableOutput:
    """A payload, SVG or manifest path that cannot be written is a usage
    error naming the path, not a traceback."""

    def test_eval_out_in_missing_directory(self, tmp_path, capsys):
        missing = tmp_path / "missing" / "x.txt"
        argv = ["eval", "q-joint", "--n", "1", "--settings", "1,0", "--out", str(missing)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == "" and err.startswith(f"noonbell: error: cannot write {missing}")

    def test_marginal_svg_in_missing_directory(self, tmp_path, capsys):
        missing = tmp_path / "missing" / "m.svg"
        argv = ["marginal", "w", "--n", "1", "--count", "16", "--svg", str(missing)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith(f"noonbell: error: cannot write {missing}")

    def test_failed_write_prints_no_payload(self, tmp_path, capsys):
        missing = tmp_path / "missing" / "x.svg"
        argv = ["marginal", "w", "--n", "1", "--count", "16", "--svg", str(missing)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == "" and err.startswith(f"noonbell: error: cannot write {missing}")

    def test_files_are_written_whole(self, tmp_path, capsys):
        out, svg = tmp_path / "m.csv", tmp_path / "m.svg"
        argv = ["marginal", "w", "--n", "1", "--count", "16", "--out", str(out), "--svg", str(svg)]
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 0 and stdout == ""
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["m.csv", "m.csv.manifest.json", "m.svg"]
        assert out.read_text(encoding="utf-8").count("\n") == 18

    def test_manifest_path_taken_by_directory(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        (tmp_path / "x.txt.manifest.json").mkdir()
        argv = ["eval", "q-joint", "--n", "1", "--settings", "1,0", "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith(f"noonbell: error: cannot write {out}.manifest.json")


class TestThreads:
    """The thread count is accepted for compatibility and has no effect, but
    a flag value below 1 is a usage error.  The environment and the config
    file do not set it."""

    EVAL = ["eval", "q-joint", "--n", "1", "--settings", "1,-1"]
    OPTIMIZE = ["optimize", "j1", "--n", "1", "--starts", "4"]

    @pytest.mark.parametrize("argv", [EVAL, OPTIMIZE], ids=["eval", "optimize"])
    def test_zero_flag_exit_2(self, capsys, argv):
        code, out, err = run_cli([*argv, "--threads", "0"], capsys)
        assert code == 2
        assert out == "" and "threads" in err

    def test_non_integer_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([*self.EVAL, "--threads", "two"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("env", ["0", "lots"])
    def test_env_is_ignored(self, capsys, monkeypatch, env):
        _, plain_eval, _ = run_cli(self.EVAL, capsys)
        _, plain_catalog, _ = run_cli(["catalog"], capsys)
        monkeypatch.setenv("NOONBELL_THREADS", env)
        assert run_cli(self.EVAL, capsys)[:2] == (0, plain_eval)
        assert run_cli(["catalog"], capsys)[:2] == (0, plain_catalog)

    @pytest.mark.parametrize("value", [0, "lots", 2.5, True, None, 2])
    def test_bad_config_value_exit_2(self, tmp_path, capsys, value):
        # threads is not a config key, whatever its value
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"threads": value}))
        for argv in (
            self.EVAL,
            self.OPTIMIZE,
            ["sweep", "j1", "--n", "1", "--starts", "4"],
            ["marginal", "q", "--n", "1", "--count", "16"],
            ["verify"],
        ):
            code, _, err = run_cli([*argv, "--config", str(cfg)], capsys)
            assert code == 2
            assert "unknown config keys: ['threads']" in err

    def test_valid_value_changes_nothing(self, capsys):
        _, plain, _ = run_cli(self.EVAL, capsys)
        code, threaded, _ = run_cli([*self.EVAL, "--threads", "3"], capsys)
        assert code == 0
        assert threaded == plain


class TestReadmeFlagTable:
    """The README's CLI table lists, per subcommand, exactly the flags that
    build_parser() declares for it (with their choices)."""

    @staticmethod
    def readme_rows():
        text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        table = text.split("| subcommand | flags |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
        rows = {}
        for line in table.splitlines():
            usage, flags = (cell.strip() for cell in line.strip("|").split("|"))
            rows[usage.strip("`").split()[0]] = (usage, re.findall(r"`([^`]+)`", flags))
        return rows

    @staticmethod
    def subparsers():
        parser = cli.build_parser()
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_one_row_per_subcommand(self):
        assert sorted(self.readme_rows()) == sorted(self.subparsers())

    @pytest.mark.parametrize("name", ["eval", "optimize", "sweep", "marginal", "verify", "catalog"])
    def test_row_matches_parser(self, name):
        usage, flags = self.readme_rows()[name]
        declared = []
        for action in self.subparsers()[name]._actions:
            choices = "{" + ",".join(action.choices) + "}" if action.choices else None
            if not action.option_strings:
                assert choices is None or choices in usage
            elif action.option_strings[-1] != "--help":
                declared.append(" ".join(filter(None, (action.option_strings[-1], choices))))
        assert sorted(flags) == sorted(declared)


class TestReadmeLimits:
    """The limits and unit costs the README states are the ones the code
    enforces and reports."""

    @staticmethod
    def paragraph():
        text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        return next(" ".join(p.split()) for p in text.split("\n\n") if "simplex descents" in p)

    def test_marginal_limits(self):
        text = self.paragraph()
        count = re.search(r"`marginal --count` is limited to (\d+) points per axis", text)
        assert int(count.group(1)) == marginals._MAX_GRID_COUNT
        n = re.search(r"`marginal --n` is limited to (\d+)", text)
        assert int(n.group(1)) == marginals._MAX_N

    def test_search_limits(self):
        text = self.paragraph()
        grid = re.search(r"limited to ([\d.e]+) points at about ([\d.]+) µs each", text)
        assert float(grid.group(1)) == optimizer._MAX_GRID_POINTS
        assert float(grid.group(2)) * 1e-6 == pytest.approx(optimizer._GRID_S_PER_POINT)
        starts = re.search(r"`--starts` is limited to (\d+) simplex descents of about ([\d.]+) s", text)
        assert int(starts.group(1)) == optimizer._MAX_STARTS
        assert float(starts.group(2)) == optimizer._POLISH_S_PER_START
        # k = 4 settings: 2k - 1 = 7 grid coordinates
        largest = re.search(r"`--grid` may be at most (\d+) for the four-setting", text)
        g = int(largest.group(1))
        assert g**7 <= optimizer._MAX_GRID_POINTS < (g + 1) ** 7


class TestCatalogCommand:
    def test_prints_parseable_catalog(self, capsys):
        code, out, _ = run_cli(["catalog"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"ch", "chsh", "bw1", "bw2", "j1", "j2", "j3", "j4"}


class TestInstalledEntryPoint:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "noonbell.cli", "eval", "ch-reduced", "--n", "3", "--settings", "0.4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert float(proc.stdout) == pytest.approx(-1.0024356040767872, abs=1e-12)
