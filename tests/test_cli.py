"""CLI frontend: config resolution, report formats, reproducibility, and
the exit-code contract."""

import json
import logging
import subprocess
import sys

import numpy as np
import pytest

from andreief import cli, identities, quadrature
from andreief.cli import (
    CHEBYSHEV_FUNCTIONS,
    RunConfig,
    UsageError,
    main,
    parse_config,
)
from andreief.discrete import (
    block_reclaims_cauchy_binet,
    cauchy_binet_lhs,
    discretized_andreief,
    minor_summation_lhs,
    minor_summation_rhs,
    ordered_tuple_sum,
)
from andreief.quadrature import BudgetError, Domain


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_main(capsys, argv)
    return code, json.loads(out), err


class TestParseConfig:
    def test_defaults(self):
        config = parse_config(["verify-andreief", "--ensemble", "gue-monomial", "--n", "3"])
        assert config.command == "verify-andreief"
        assert config.ensemble.name == "gue-monomial"
        assert config.ensemble.size == 3
        assert config.n_nodes == 40
        assert config.mc_samples == 0
        assert config.seed == 42
        assert config.tolerance == 1e-9
        assert config.format == "json"
        assert config.output_path is None
        assert config.timestamp is True

    def test_json_text_source(self):
        config = parse_config(
            '{"command": "partition", "ensemble": "legendre-monomial", "size": 4}'
        )
        assert config.command == "partition"
        assert config.ensemble.size == 4

    def test_text_requires_command(self):
        with pytest.raises(UsageError, match="must name a command"):
            parse_config('{"ensemble": "gue-monomial"}')

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps({"ensemble": "muttalib-borodin", "size": 3, "seed": 7})
        )
        config = parse_config(["verify-andreief", "--config", str(path)])
        assert config.ensemble.name == "muttalib-borodin"
        assert config.seed == 7
        override = parse_config(
            ["verify-andreief", "--config", str(path), "--n", "2", "--seed", "9"]
        )
        assert override.ensemble.size == 2
        assert override.seed == 9

    def test_missing_config_file(self):
        with pytest.raises(UsageError, match="cannot read config file"):
            parse_config(["verify-andreief", "--config", "/no/such/file.json"])

    def test_malformed_numeric_names_field(self):
        with pytest.raises(UsageError, match="invalid value for 'seed'"):
            parse_config('{"command": "partition", "seed": "soon"}')

    def test_invalid_json(self):
        with pytest.raises(UsageError, match="not valid JSON"):
            parse_config("{nope")

    def test_non_object_json(self):
        with pytest.raises(UsageError, match="flat JSON object"):
            parse_config("[1, 2]")

    def test_shifts_from_comma_string(self):
        config = parse_config(
            ["verify-andreief", "--ensemble", "shifted-gue", "--n", "2", "--shifts", "0.2,0.5"]
        )
        assert config.ensemble.right.shifts == (0.2, 0.5)
        assert config.ensemble_params["shifts"] == [0.2, 0.5]

    def test_shifts_from_json_list(self):
        config = parse_config(
            '{"command": "partition", "ensemble": "shifted-gue", "size": 2, "shifts": [0.1, 0.3]}'
        )
        assert config.ensemble.right.shifts == (0.1, 0.3)

    def test_bad_shifts(self):
        with pytest.raises(UsageError, match="invalid value for 'shifts'"):
            parse_config(["verify-andreief", "--ensemble", "shifted-gue", "--shifts", "a,b"])

    def test_unknown_command_in_text(self):
        with pytest.raises(UsageError, match="unknown command"):
            parse_config('{"command": "frobnicate"}')

    def test_unknown_ensemble_lists_builtins(self):
        with pytest.raises(ValueError, match="built-ins: uniform-monomial"):
            parse_config(["verify-andreief", "--ensemble", "nope"])

    def test_zero_theta_rejected(self):
        with pytest.raises(ValueError, match="theta must be positive"):
            parse_config(
                ["verify-andreief", "--ensemble", "muttalib-borodin", "--theta", "0"]
            )

    def test_two_factor_kernel_rejected(self):
        with pytest.raises(UsageError, match="unknown config key.*'m'"):
            parse_config('{"command": "partition", "ensemble": "laguerre-product", "m": 2}')

    def test_misspelt_config_key_rejected(self):
        with pytest.raises(UsageError, match="unknown config key.*'ensembel'"):
            parse_config('{"command": "partition", "ensembel": "gue-monomial"}')

    def test_invalid_tolerance(self):
        with pytest.raises(UsageError, match="tolerance must be positive"):
            parse_config(["verify-andreief", "--tolerance", "0"])

    def test_negative_mc_samples(self):
        with pytest.raises(UsageError, match="mc_samples must be non-negative"):
            parse_config(["verify-andreief", "--mc-samples", "-5"])

    def test_one_mc_sample_refused(self, capsys, tmp_path):
        # one draw has no standard error, so its sigma = 0 verdict would
        # judge a single sample; 2 samples are the least that give one
        argv = ["verify-andreief", "--n", "3", "--mc-samples", "1"]
        with pytest.raises(UsageError, match="mc_samples must be 0 .off. or at least 2"):
            parse_config(argv)
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (2, "")
        assert "one sample has no standard error" in err
        path = tmp_path / "config.json"
        path.write_text('{"mc_samples": 1}', encoding="utf-8")
        code, out, err = run_main(capsys, ["verify-andreief", "--config", str(path)])
        assert (code, out) == (2, "")
        assert parse_config(["verify-andreief", "--mc-samples", "2"]).mc_samples == 2

    def test_negative_seed(self, capsys, tmp_path):
        # numpy's generators take no negative seed
        with pytest.raises(UsageError, match="seed must be non-negative"):
            parse_config(["verify-andreief", "--seed", "-1"])
        path = tmp_path / "config.json"
        path.write_text('{"seed": -3}', encoding="utf-8")
        code, out, err = run_main(capsys, ["verify-andreief", "--config", str(path)])
        assert (code, out) == (2, "")
        assert "seed must be non-negative" in err
        assert parse_config(["verify-andreief", "--seed", "0"]).seed == 0

    def test_unknown_chebyshev_function(self):
        with pytest.raises(UsageError, match="unknown function 'tanh'"):
            parse_config(["verify-chebyshev", "--f", "tanh"])

    def test_unknown_format_in_file(self):
        with pytest.raises(UsageError, match="unknown format"):
            parse_config('{"command": "partition", "format": "yaml"}')

    def test_parser_shared_without_leaking_flags(self):
        assert cli.build_parser() is cli.build_parser()
        first = parse_config(["verify-discrete", "--no-timestamp", "--rows", "6"])
        second = parse_config(["verify-discrete"])
        assert first.timestamp is False and first.extras["rows"] == 6
        assert second.timestamp is True and second.extras["rows"] == 4

    def test_no_timestamp_from_file(self):
        config = parse_config('{"command": "partition", "no_timestamp": true}')
        assert config.timestamp is False

    def test_run_config_validates_directly(self):
        with pytest.raises(UsageError, match="n_nodes must be at least 1"):
            RunConfig(
                command="partition",
                ensemble=parse_config(["partition"]).ensemble,
                ensemble_params={},
                n_nodes=0,
            )


# per setting, a value other than its default and a second, different one
SETTING_SAMPLES = {
    "ensemble": ("gue-monomial", "legendre-monomial"),
    "size": (3, 4),
    "theta": (1.5, 3.0),
    "c": (0.5, 1.0),
    "nu": (2, 3),
    "shifts": ("0.1,0.2", "0.3,0.4"),
    "kernel": ("difference", "sign"),
    "rows": (5, 6),
    "cols": (2, 1),
    "instances": (3, 4),
    "f": ("exp", "cos"),
    "g": ("-x", "x^3"),
    "a": (-1.0, 0.5),
    "b": (2.0, 3.0),
    "n_nodes": (12, 20),
    "mc_samples": (100, 200),
    "seed": (7, 8),
    "tolerance": (1e-6, 1e-7),
    "output_path": ("report.txt", "other.txt"),
    "format": ("csv", "json"),
    "no_timestamp": (True, False),
}


class TestSettingsTable:
    def test_every_setting_has_samples(self):
        assert list(SETTING_SAMPLES) == list(cli.SETTINGS)

    @pytest.mark.parametrize("name", list(cli.SETTINGS))
    def test_flag_and_config_file_resolve_alike(self, name, tmp_path):
        setting = cli.SETTINGS[name]
        value, other = SETTING_SAMPLES[name]
        command = next((c for c, keys in cli.EXTRAS.items() if name in keys), "partition")
        path = tmp_path / "config.json"

        def from_file(chosen, *flags):
            path.write_text(json.dumps({name: chosen}), encoding="utf-8")
            return parse_config([command, "--config", str(path), *flags])

        expected = from_file(value)
        assert expected != parse_config([command])
        assert expected != from_file(other)
        for flag in setting.flags:
            tokens = [flag] if setting.type is bool else [flag, str(value)]
            assert parse_config([command, *tokens]) == expected
            assert from_file(other, *tokens) == expected

    @pytest.mark.parametrize(
        "name", [n for n, s in cli.SETTINGS.items() if s.type in (int, float)]
    )
    def test_numeric_setting_rejects_non_numeric_config(self, name):
        with pytest.raises(UsageError, match=f"invalid value for '{name}'"):
            parse_config(json.dumps({"command": "partition", name: "many"}))
        # "tolerance": true once read as 1.0, which passes every check
        with pytest.raises(UsageError, match=f"invalid value for '{name}': True"):
            parse_config(json.dumps({"command": "partition", name: True}))

    @pytest.mark.parametrize(
        "name, value",
        [(n, 2) for n, s in cli.SETTINGS.items() if s.type is str]
        + [(n, "false") for n, s in cli.SETTINGS.items() if s.type is bool]
        + [("shifts", {"a": 0.1}), ("output_path", None), ("no_timestamp", 0)],
    )
    def test_string_and_switch_settings_reject_other_json_types(self, name, value):
        with pytest.raises(UsageError, match=f"invalid value for '{name}': {value!r}"):
            parse_config(json.dumps({"command": "partition", name: value}))

    @pytest.mark.parametrize(
        "text, message",
        [('{"output_path": 2}', "invalid value for 'output_path': 2"),
         ('{"no_timestamp": "false"}', "invalid value for 'no_timestamp': 'false'")],
    )
    def test_mistyped_config_file_exits_two_without_a_report(
        self, capsys, tmp_path, text, message
    ):
        # 2 once named file descriptor 2, and any non-empty string was true
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_main(capsys, ["partition", "--config", str(path)])
        assert (code, out) == (2, "")
        assert message in err

    def test_shifts_list_in_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"ensemble": "shifted-gue", "size": 2, "shifts": [0.1, 0.3]}',
                        encoding="utf-8")
        config = parse_config(["partition", "--config", str(path)])
        assert config.ensemble.right.shifts == (0.1, 0.3)
        assert config.ensemble_params["shifts"] == [0.1, 0.3]

    def test_config_command_must_match_the_positional_one(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"command": "verify-debruijn", "size": 4}', encoding="utf-8")
        with pytest.raises(UsageError, match="'verify-debruijn' differs from the command 'partition'"):
            parse_config(["partition", "--config", str(path)])
        code, out, err = run_main(capsys, ["partition", "--config", str(path)])
        assert (code, out) == (2, "")
        assert "'verify-debruijn'" in err and "'partition'" in err
        assert parse_config(["verify-debruijn", "--config", str(path)]).ensemble.size == 4

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_extras_follow_the_table(self, command):
        extras = parse_config([command]).extras
        assert sorted(extras) == sorted(cli.EXTRAS.get(command, ()))


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, report, _ = run_json(
            capsys, ["verify-andreief", "--n", "2", "--no-timestamp"]
        )
        assert code == 0
        assert report["passed"] is True
        check = report["checks"][0]
        assert abs(check["lhs"] - 1.0 / 6.0) < 1e-12
        assert abs(check["rhs"] - 1.0 / 6.0) < 1e-12

    def test_identity_failure_is_one(self, capsys):
        # exact equality is impossible in floats, so an absurd tolerance
        # must surface as an identity failure, not an error
        code, report, _ = run_json(
            capsys,
            ["verify-andreief", "--n", "3", "--tolerance", "1e-30", "--no-timestamp"],
        )
        assert code == 1
        assert report["passed"] is False

    def test_usage_error_is_two(self, capsys):
        code, _, err = run_main(capsys, ["verify-andreief", "--ensemble", "nope"])
        assert code == 2
        assert "built-ins" in err

    def test_engine_error_is_two(self, capsys):
        code, _, err = run_main(
            capsys, ["verify-discrete", "--rows", "2", "--cols", "3"]
        )
        assert code == 2
        assert "at least as many rows" in err

    def test_odd_debruijn_size_is_two(self, capsys):
        code, _, err = run_main(capsys, ["verify-debruijn", "--n", "3"])
        assert code == 2
        assert "size must be even" in err

    def test_divergent_debruijn_is_two(self, capsys):
        # shifted-gue's left family is plain monomials on the real line
        code, out, err = run_main(
            capsys, ["verify-debruijn", "--ensemble", "shifted-gue", "--n", "2"]
        )
        assert code == 2
        assert out == ""
        assert "monomial on real_line" in err
        assert "diverges" in err

    def test_andreief_size_gate_is_two(self, capsys, monkeypatch):
        # past the gate the max(1, |lhs|, |rhs|) verdict scale would pass
        # shifted-gue at N=8 on values near 3.8e-10 that differ by 5e-4;
        # the gate refuses before the Gram is built
        def refuse(*args):
            raise AssertionError("the Gram was built past the size gate")

        monkeypatch.setattr(identities, "gram_matrix", refuse)
        code, out, err = run_main(
            capsys, ["verify-andreief", "--ensemble", "shifted-gue", "--n", "8"]
        )
        assert code == 2
        assert out == ""
        assert "exceeds the default size gate (6)" in err

    @pytest.mark.parametrize("tolerance", ["inf", "nan"])
    def test_non_finite_tolerance_exits_two(self, capsys, tolerance):
        # an infinite tolerance would pass any gap
        code, out, err = run_main(
            capsys, ["verify-andreief", "--tolerance", tolerance, "--no-timestamp"]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: tolerance must be positive")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--ensemble", "muttalib-borodin", "--theta", "inf"], "theta must be positive"),
            (["--ensemble", "muttalib-borodin", "--c", "nan"], "c = nan"),
            (["--ensemble", "muttalib-borodin", "--c", "inf"], "c = inf"),
            (["--ensemble", "shifted-gue", "--shifts", "inf,1"], "shifts must be finite"),
        ],
        ids=["theta-inf", "c-nan", "c-inf", "shifts-inf"],
    )
    def test_non_finite_ensemble_parameter_exits_two(self, capsys, caplog, flags, message):
        # refused when the ensemble is built, before any warning or node value
        with caplog.at_level(logging.WARNING, logger="andreief"):
            code, out, err = run_main(capsys, ["verify-andreief", *flags, "--no-timestamp"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err
        assert caplog.records == []

    def test_debruijn_six_variables_run_within_the_grid_budget(self, capsys):
        # no size gate: the 8**6 and 24**6 grids sum C(8, 6) = 28 and
        # C(24, 6) = 134,596 node subsets
        for nodes in ("8", "24"):
            code, report, _ = run_json(
                capsys,
                ["verify-debruijn", "--n", "6", "--n-nodes", nodes, "--kernel", "sign",
                 "--no-timestamp"],
            )
            assert code == 0
            assert report["checks"][0]["name"] == "debruijn-sign"

    @pytest.mark.parametrize("two_n, n_nodes, subsets", [(6, 80, 300500200), (8, 60, 2558620845)])
    def test_debruijn_subset_refusal_eliminates_nothing(
        self, capsys, monkeypatch, two_n, n_nodes, subsets
    ):
        # the subset budget refuses before the first block, whose
        # determinant_batch call would raise here
        def no_blocks(stack):
            raise AssertionError("a block was eliminated before the budget check")

        monkeypatch.setattr(identities, "determinant_batch", no_blocks)
        code, out, err = run_main(
            capsys, ["verify-debruijn", "--n", str(two_n), "--n-nodes", str(n_nodes)]
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: budget exceeded: {subsets} {two_n}-subsets of the {n_nodes} nodes, "
            "allowed 100000000\n"
        )

    @pytest.mark.parametrize("command", ["verify-andreief", "verify-debruijn", "partition"])
    def test_out_of_memory_is_two(self, capsys, monkeypatch, command):
        # a dense Jacobi matrix of 100000 nodes would need 74.5 GiB; the
        # engine raises as numpy's allocation would, without allocating
        def exhausted(config):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setitem(cli._ENGINES, command, exhausted)
        code, out, err = run_main(capsys, [command, "--n-nodes", "100000"])
        assert (code, out) == (2, "")
        assert err == "error: out of memory: Unable to allocate 74.5 GiB for an array\n"

    def test_unknown_config_key_is_two(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"ensembel": "gue-monomial"}))
        code, out, err = run_main(capsys, ["partition", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert "'ensembel'" in err

    def test_argparse_rejection_is_two(self, capsys):
        code, _, _ = run_main(capsys, ["verify-andreief", "--bogus"])
        assert code == 2

    def test_help_is_zero(self, capsys):
        code, out, _ = run_main(capsys, ["--help"])
        assert code == 0
        assert "verify-andreief" in out

    def test_unwritable_output_is_two(self, capsys):
        code, _, err = run_main(
            capsys,
            ["partition", "--output", "/no/such/dir/report.json", "--no-timestamp"],
        )
        assert code == 2
        assert "cannot write report" in err


class TestReports:
    def test_repeated_runs_byte_identical_json(self, capsys):
        argv = [
            "verify-andreief",
            "--n",
            "2",
            "--mc-samples",
            "20000",
            "--no-timestamp",
        ]
        _, first, _ = run_main(capsys, argv)
        _, second, _ = run_main(capsys, argv)
        assert first == second

    def test_repeated_runs_byte_identical_csv(self, capsys):
        argv = ["verify-discrete", "--format", "csv", "--no-timestamp"]
        _, first, _ = run_main(capsys, argv)
        _, second, _ = run_main(capsys, argv)
        assert first == second

    def test_timestamp_present_by_default(self, capsys):
        _, report, _ = run_json(capsys, ["partition"])
        assert "timestamp" in report

    def test_timestamp_isolated_by_flag(self, capsys):
        _, report, _ = run_json(capsys, ["partition", "--no-timestamp"])
        assert "timestamp" not in report

    def test_json_keys_canonical(self, capsys):
        _, out, _ = run_main(capsys, ["partition", "--no-timestamp"])
        report = json.loads(out)
        assert list(report) == sorted(report)
        assert list(report["config"]) == sorted(report["config"])
        assert list(report["checks"][0]) == sorted(report["checks"][0])

    def test_report_embeds_resolved_config(self, capsys):
        _, report, _ = run_json(
            capsys,
            [
                "verify-andreief",
                "--ensemble",
                "muttalib-borodin",
                "--n",
                "3",
                "--theta",
                "2.5",
                "--no-timestamp",
            ],
        )
        section = report["config"]
        assert section["ensemble"]["name"] == "muttalib-borodin"
        assert section["ensemble"]["theta"] == 2.5
        assert section["seed"] == 42
        assert section["tolerance"] == 1e-9
        assert section["n_nodes"] == 40

    def test_mc_row_reports_sigma(self, capsys):
        _, report, _ = run_json(
            capsys,
            ["verify-andreief", "--n", "2", "--mc-samples", "20000", "--no-timestamp"],
        )
        names = [c["name"] for c in report["checks"]]
        assert names == ["andreief-quadrature", "andreief-mc"]
        mc = report["checks"][1]
        assert mc["sigma"] > 0
        # pass rule is recomputable from the row alone
        assert mc["passed"] == (
            abs(mc["lhs"] - mc["rhs"]) <= 3.0 * mc["sigma"] + 1e-12
        )

    def test_csv_layout(self, capsys):
        code, out, _ = run_main(
            capsys, ["partition", "--format", "csv", "--no-timestamp"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        comments = [l for l in lines if l.startswith("# ")]
        assert any(l.startswith("# config.seed=") for l in comments)
        assert any(l.startswith("# config.ensemble.name=") for l in comments)
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_at] == "name,lhs,rhs,abs_gap,rel_gap,sigma,passed"
        row = lines[header_at + 1].split(",")
        assert row[0] == "partition-vs-gram-determinant"
        assert float(row[1]) == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert row[6] == "true"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_main(
            capsys, ["partition", "--output", str(target), "--no-timestamp"]
        )
        assert code == 0
        assert out == ""
        report = json.loads(target.read_text())
        assert report["passed"] is True


class TestCommandPayloads:
    def test_chebyshev_co_monotone(self, capsys):
        code, report, _ = run_json(
            capsys, ["verify-chebyshev", "--f", "x", "--g", "x^2", "--no-timestamp"]
        )
        assert code == 0
        assert report["direction_reversed"] is False
        assert report["gap"] > 0

    def test_chebyshev_anti_monotone_still_passes(self, capsys):
        code, report, _ = run_json(
            capsys, ["verify-chebyshev", "--f", "x", "--g=-x", "--no-timestamp"]
        )
        assert code == 0
        assert report["direction_reversed"] is True
        assert report["gap"] == pytest.approx(-1.0 / 12.0, rel=1e-12)

    @pytest.mark.parametrize("f, g", [("exp", "-x"), ("-x^2", "-exp")])
    def test_chebyshev_dash_led_names_as_separate_tokens(self, capsys, f, g):
        code, report, _ = run_json(
            capsys, ["verify-chebyshev", "--f", f, "--g", g, "--no-timestamp"]
        )
        assert code == 0
        assert report["config"]["extras"]["f"] == f
        assert report["config"]["extras"]["g"] == g

    def test_chebyshev_identity_row(self, capsys):
        _, report, _ = run_json(
            capsys,
            ["verify-chebyshev", "--f", "exp", "--g", "cos", "--a", "0", "--b", "2", "--no-timestamp"],
        )
        check = report["checks"][0]
        assert check["name"] == "chebyshev-gap-identity"
        assert check["rel_gap"] <= 1e-12

    def test_function_catalogue_is_consistent(self):
        x = np.linspace(0.1, 0.9, 5)
        for name, fn in CHEBYSHEV_FUNCTIONS.items():
            values = np.asarray(fn(x), dtype=float)
            assert values.shape == x.shape
            assert np.all(np.isfinite(values)), name

    def test_discrete_reports_all_four_identities(self, capsys):
        code, report, _ = run_json(capsys, ["verify-discrete", "--no-timestamp"])
        assert code == 0
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "cauchy-binet",
            "minor-summation",
            "discretization-bridge",
            "block-reclaims",
        ]
        assert report["bridge_tuple_sum_agrees"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_discrete_bridge_catches_a_planted_error(self, capsys, monkeypatch):
        # both sides off by 1e-6 relative: they still agree with each other,
        # but no longer with the ordered-tuple sum over the same points
        real = cli.discretized_andreief

        def planted(weights, f, phi):
            lhs, rhs = real(weights, f, phi)
            return lhs * (1 + 1e-6), rhs * (1 + 1e-6)

        monkeypatch.setattr(cli, "discretized_andreief", planted)
        code, report, _ = run_json(capsys, ["verify-discrete", "--no-timestamp"])
        assert code == 1
        assert report["bridge_tuple_sum_agrees"] is False
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["discretization-bridge"]["rel_gap"] <= 1e-12
        assert by_name["discretization-bridge"]["passed"] is False
        assert by_name["cauchy-binet"]["passed"] is True

    def test_discrete_tuple_count_is_budgeted(self, capsys):
        # 100 points and N = 5: 100!/95! ordered tuples exceed the 10**8 budget
        code, _, err = run_main(
            capsys,
            ["verify-discrete", "--rows", "100", "--cols", "2", "--n", "5", "--no-timestamp"],
        )
        assert code == 2
        assert "budget exceeded: 9034502400 ordered 5-tuples of distinct rows of 100" in err

    def test_discrete_subset_count_is_budgeted(self, capsys):
        # C(40, 20) row subsets exceed the 10**8 budget before any is summed
        code, _, err = run_main(
            capsys,
            ["verify-discrete", "--rows", "40", "--cols", "20", "--instances", "1",
             "--no-timestamp"],
        )
        assert code == 2
        assert "budget exceeded: 137846528820 20-subsets of the 40 rows" in err

    def test_discrete_table_products_are_budgeted(self, capsys):
        # C(30, 28) = 435 row subsets, but the minor table needs
        # 30 * 2**29 - 900 products: refused before any is built
        code, _, err = run_main(
            capsys,
            ["verify-discrete", "--rows", "30", "--cols", "28", "--instances", "1",
             "--no-timestamp"],
        )
        assert code == 2
        assert "budget exceeded: 16106126460 exact products to tabulate the minors" in err

    @pytest.mark.parametrize(
        "rows, cols, size, budget",
        [
            (5, 3, 2, 9),  # the row subsets
            (8, 4, 3, 511),  # the Cauchy-Binet minor table
            (8, 4, 3, 749),  # the minor and Pfaffian tables of minor summation
            (8, 2, 6, 20159),  # the ordered tuples of the bridge
            (6, 6, 2, 10240),  # the order-12 compression of the block check
            (6, 6, 2, 10241),  # none
        ],
    )
    def test_discrete_budgets_are_checked_before_the_first_instance(
        self, capsys, monkeypatch, rows, cols, size, budget
    ):
        # the loop's sums in its order, on inputs of its shapes, give the
        # error it would raise first; the command raises it before any sum
        monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", budget)
        x, skew = np.ones((rows, cols), dtype=int), np.zeros((rows, rows), dtype=int)
        t = np.ones((cols - cols % 2, rows), dtype=int)
        points = max(rows, size)
        tables = (np.ones(points), np.ones((points, size)), np.ones((points, size)))
        loop = (
            lambda: cauchy_binet_lhs(x, x),
            lambda: minor_summation_lhs(skew, t),
            lambda: minor_summation_rhs(skew, t),
            lambda: ordered_tuple_sum(*tables),
            lambda: discretized_andreief(*tables),
            lambda: block_reclaims_cauchy_binet(x, x),
        )
        try:
            for step in loop:
                step()
        except BudgetError as exc:
            expected = f"error: {exc}\n"
        else:
            expected = None
        argv = ["verify-discrete", "--rows", str(rows), "--cols", str(cols), "--n", str(size),
                "--instances", "1", "--no-timestamp"]
        if expected is None:
            assert run_main(capsys, argv)[0] == 0
            return

        def refuse(*args):
            raise AssertionError("an instance ran before the budget checks")

        monkeypatch.setattr(cli, "cauchy_binet_lhs", refuse)
        assert run_main(capsys, argv) == (2, "", expected)

    def test_discrete_refuses_a_later_table_at_once(self, capsys, monkeypatch):
        # the Cauchy-Binet table of 138 x 4 is within the budget, the minor
        # summation tables are not: no instance builds the first one
        def refuse(*args):
            raise AssertionError("an instance ran before the budget checks")

        monkeypatch.setattr(cli, "cauchy_binet_lhs", refuse)
        code, out, err = run_main(
            capsys,
            ["verify-discrete", "--rows", "138", "--cols", "4", "--instances", "1",
             "--no-timestamp"],
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: budget exceeded: 102555735 exact products to tabulate the minors "
            "and Pfaffians of the 138 columns, allowed 100000000\n"
        )

    def test_discrete_block_check_past_the_expansion_oracle(self, capsys):
        # the block check's compression has order 2 * cols = 14, past the
        # order-12 cap of pfaffian_by_expansion
        code, report, _ = run_json(
            capsys,
            ["verify-discrete", "--rows", "10", "--cols", "7", "--instances", "1",
             "--no-timestamp"],
        )
        assert code == 0
        assert all(c["passed"] for c in report["checks"])

    def test_discrete_exact_rows_have_zero_gap(self, capsys):
        _, report, _ = run_json(
            capsys, ["verify-discrete", "--rows", "5", "--cols", "4", "--no-timestamp"]
        )
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["cauchy-binet"]["abs_gap"] == 0
        assert by_name["minor-summation"]["abs_gap"] == 0
        assert by_name["block-reclaims"]["abs_gap"] == 0

    def test_biorthogonalize_payload(self, capsys):
        code, report, _ = run_json(
            capsys,
            ["biorthogonalize", "--ensemble", "legendre-monomial", "--n", "3", "--no-timestamp"],
        )
        assert code == 0
        h = report["coefficients"]["h"]
        assert h == pytest.approx([2.0, 2.0 / 3.0, 8.0 / 45.0], rel=1e-10)
        c = np.array(report["coefficients"]["c"])
        assert np.allclose(np.diag(c), 1.0)
        names = [c["name"] for c in report["checks"]]
        assert "off-diagonal-residual" in names

    def test_partition_payload(self, capsys):
        code, report, _ = run_json(
            capsys, ["partition", "--ensemble", "uniform-monomial", "--n", "2", "--no-timestamp"]
        )
        assert code == 0
        assert report["value"] == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_debruijn_shared_rule_both_kernels(self, capsys):
        for kernel in ("difference", "sign"):
            code, report, _ = run_json(
                capsys,
                ["verify-debruijn", "--n", "4", "--kernel", kernel, "--n-nodes", "12", "--no-timestamp"],
            )
            assert code == 0
            assert report["checks"][0]["rel_gap"] <= 1e-12


# one run per command, with a Monte Carlo check, a failing verdict and the
# off-diagonal residual of a pairing far from 1 among them
RECOMPUTABLE_RUNS = [
    ["verify-andreief", "--ensemble", "gue-monomial", "--n", "3"],
    ["verify-andreief", "--ensemble", "uniform-monomial", "--n", "2",
     "--mc-samples", "20000", "--seed", "7"],
    ["verify-andreief", "--ensemble", "muttalib-borodin", "--n", "3", "--tolerance", "1e-15"],
    ["verify-debruijn", "--n", "4", "--kernel", "sign", "--n-nodes", "12"],
    ["verify-discrete", "--rows", "6", "--cols", "4", "--instances", "10"],
    ["verify-chebyshev", "--f", "exp", "--g", "x"],
    ["biorthogonalize", "--ensemble", "muttalib-borodin", "--n", "8"],
    ["biorthogonalize", "--ensemble", "laguerre-product", "--n", "6"],
    ["partition", "--ensemble", "shifted-gue", "--n", "4"],
]

EXACT_CHECKS = ("cauchy-binet", "minor-summation", "block-reclaims")


class TestReportIsRecomputable:
    """Every verdict in a report follows from the numbers printed beside it."""

    @pytest.mark.parametrize("argv", RECOMPUTABLE_RUNS, ids=" ".join)
    def test_verdicts_follow_from_the_reported_gaps(self, capsys, argv):
        code, report, _ = run_json(capsys, [*argv, "--no-timestamp"])
        tolerance = report["config"]["tolerance"]
        for c in report["checks"]:
            assert c["abs_gap"] == abs(c["lhs"] - c["rhs"]), c["name"]
            if c["name"] in EXACT_CHECKS:
                assert c["rel_gap"] == 0
            if c["sigma"] is None:
                assert c["passed"] == (c["rel_gap"] <= tolerance), c["name"]
            else:
                slack = identities.MC_PASS_SLACK * max(1.0, abs(c["rhs"]))
                assert c["passed"] == (c["abs_gap"] <= 3.0 * c["sigma"] + slack)
        assert report["passed"] == all(c["passed"] for c in report["checks"])
        assert code == (0 if report["passed"] else 1)


class TestConsoleEntry:
    def test_module_invocation_matches_in_process(self, capsys):
        argv = ["partition", "--no-timestamp"]
        _, expected, _ = run_main(capsys, argv)
        proc = subprocess.run(
            [sys.executable, "-m", "andreief.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == expected

    def test_module_invocation_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "andreief.cli", "verify-andreief", "--ensemble", "nope"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "built-ins" in proc.stderr
