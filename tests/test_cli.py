import json
import math
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from countlim.cli import cli
from helpers import src_env

MINIMAL = {"signal": {"nominal": 1.0}, "backgrounds": [], "n_obs": 0}

BG_SYST = {
    "signal": {"nominal": 1.0},
    "backgrounds": [
        {
            "name": "bkg",
            "nominal": 1.5,
            "responses": {"bscale": {"kind": "log_normal", "kappa": 1.2}},
        }
    ],
    "nuisances": [{"name": "bscale", "prior": {"kind": "standard_normal"}}],
    "n_obs": 3,
}

SIG_SYST = {
    "signal": {
        "nominal": 1.0,
        "responses": {"sscale": {"kind": "log_normal", "kappa": 1.2}},
    },
    "backgrounds": [{"name": "bkg", "nominal": 1.5}],
    "nuisances": [{"name": "sscale", "prior": {"kind": "standard_normal"}}],
    "n_obs": 3,
}


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestLimitCommand:
    def test_minimal_closed_form(self, runner, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        result = runner.invoke(cli, ["limit", cfg, "--method", "cls", "--cl", "0.95"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["results"]["cls"]["mu_up"] == pytest.approx(math.log(20.0), rel=1e-9)
        assert payload["alpha"] == pytest.approx(0.05)
        assert payload["integrator"] is None
        assert len(payload["config_sha256"]) == 64

    def test_both_methods_agree(self, runner, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        result = runner.invoke(cli, ["limit", cfg, "--method", "both"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["rel_diff"] <= 1e-7

    def test_systematics_shared_samples(self, runner, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        result = runner.invoke(
            cli,
            ["limit", cfg, "--method", "both", "--integrator", "mc", "--samples", "3000", "--seed", "5"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["rel_diff"] <= 1e-7
        assert payload["integrator"]["kind"] == "monte_carlo"
        assert payload["results"]["cls"]["mu_up_stderr"] > 0.0

    def test_unknown_key_is_config_error(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"signall": {"nominal": 1.0}, "n_obs": 0})
        result = runner.invoke(cli, ["limit", cfg])
        assert result.exit_code == 1
        assert "signall" in result.output

    def test_seventeen_digit_floats(self, runner, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        result = runner.invoke(cli, ["limit", cfg])
        payload = json.loads(result.output)
        mu = payload["results"]["cls"]["mu_up"]
        assert format(mu, ".17g") in result.output
        assert format(0.95, ".17g") in result.output

    def test_out_file(self, runner, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "result.json"
        result = runner.invoke(cli, ["limit", cfg, "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["method"] == "cls"

    def test_repeated_runs_byte_identical(self, runner, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["limit", cfg, "--method", "both", "--samples", "2000", "--seed", "3"]
        assert runner.invoke(cli, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(cli, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_cl_rejected(self, runner, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        result = runner.invoke(cli, ["limit", cfg, "--cl", "1.5"])
        assert result.exit_code == 1

    def test_solver_failure_exits_two(self, runner, tmp_path):
        # microscopic signal: the limit sits beyond the doubling guard
        cfg = write_config(tmp_path, {"signal": {"nominal": 1e-30}, "backgrounds": [], "n_obs": 0})
        result = runner.invoke(cli, ["limit", cfg])
        assert result.exit_code == 2

    @pytest.mark.parametrize("method", ["cls", "bayes"])
    def test_underflowed_denominator_exits_two(self, tmp_path, method):
        # CLb = Q(1, 800) = exp(-800) underflows; a real process, to see its stderr
        doc = {"signal": {"nominal": 1.0}, "backgrounds": [{"name": "b", "nominal": 800.0}], "n_obs": 0}
        cfg = write_config(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "countlim.cli", "limit", cfg, "--method", method],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "n_obs = 0, b = 800.0" in proc.stderr

    @pytest.mark.parametrize("method", ["cls", "bayes"])
    def test_criterion_underflow_before_the_target_exits_two(self, tmp_path, method):
        # CLb = exp(-730) is subnormal, and alpha = 1 - CL = 2**-53 puts the
        # target numerator below the float64 range: the solve must not return
        # the point where the numerator flushes to 0 (mu = 15.13, not ln(2**53))
        doc = {"signal": {"nominal": 1.0}, "backgrounds": [{"name": "b", "nominal": 730.0}], "n_obs": 0}
        cfg = write_config(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "countlim.cli", "limit", cfg, "--method", method, "--cl", repr(1.0 - 2.0**-53)],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "underflows" in proc.stderr

    def test_non_finite_config_number_exits_one(self, runner, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text('{"signal": {"nominal": NaN}, "backgrounds": [], "n_obs": 0}', encoding="utf-8")
        result = runner.invoke(cli, ["limit", str(cfg)])
        assert result.exit_code == 1
        assert "signal.nominal: expected a finite number" in result.output

    def test_integrator_options_ignored_without_nuisances(self, runner, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        plain = runner.invoke(cli, ["limit", cfg, "--method", "both"])
        invalid = runner.invoke(cli, ["limit", cfg, "--method", "both", "--samples", "0", "--nodes", "1"])
        assert invalid.exit_code == 0
        assert invalid.output == plain.output

    def test_negative_yield_exits_two(self, runner, tmp_path):
        doc = json.loads(json.dumps(BG_SYST))
        doc["backgrounds"][0]["responses"]["bscale"] = {"kind": "linear", "delta": 0.4}
        cfg = write_config(tmp_path, doc)
        result = runner.invoke(cli, ["limit", cfg, "--samples", "10000", "--seed", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("nominal", [1.5, 0.0])
    @pytest.mark.parametrize("command", [["limit"], ["scan", "--mu-max", "5", "--quantity", "clsb"]])
    def test_overflowed_response_exits_two(self, tmp_path, nominal, command):
        # kappa = 1e300 overflows the yield to +inf on some samples, a lane
        # the kernels accept; on an empty background it makes 0 * inf = NaN,
        # which they refuse, so the yields refuse it first
        doc = json.loads(json.dumps(BG_SYST))
        doc["backgrounds"].append(
            {"name": "extra", "nominal": nominal, "responses": {"bscale": {"kind": "log_normal", "kappa": 1e300}}}
        )
        cfg = write_config(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "countlim.cli", command[0], cfg, *command[1:], "--samples", "50"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("error: ")


class TestScanCommand:
    def test_cls_starts_at_one(self, runner, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        result = runner.invoke(cli, ["scan", cfg, "--mu-max", "5", "--points", "21"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "mu,value"
        first_mu, first_val = lines[1].split(",")
        assert float(first_mu) == 0.0
        assert float(first_val) == 1.0

    def test_clsb_monotone_nonincreasing(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"signal": {"nominal": 1.0}, "backgrounds": [{"name": "b", "nominal": 1.5}], "n_obs": 3})
        result = runner.invoke(cli, ["scan", cfg, "--mu-max", "10", "--points", "51", "--quantity", "clsb"])
        values = [float(line.split(",")[1]) for line in result.output.strip().splitlines()[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_posterior_integrates_to_one(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"signal": {"nominal": 1.0}, "backgrounds": [{"name": "b", "nominal": 1.5}], "n_obs": 3})
        result = runner.invoke(
            cli, ["scan", cfg, "--mu-max", "60", "--points", "6001", "--quantity", "posterior"]
        )
        rows = [line.split(",") for line in result.output.strip().splitlines()[1:]]
        mus = np.array([float(r[0]) for r in rows])
        dens = np.array([float(r[1]) for r in rows])
        assert np.trapezoid(dens, mus) == pytest.approx(1.0, abs=1e-4)

    def test_stderr_column_for_monte_carlo(self, runner, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        result = runner.invoke(
            cli, ["scan", cfg, "--mu-max", "4", "--points", "5", "--integrator", "mc", "--samples", "500"]
        )
        lines = result.output.strip().splitlines()
        assert lines[0] == "mu,value,stderr"
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_no_stderr_column_for_quadrature(self, runner, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        result = runner.invoke(
            cli, ["scan", cfg, "--mu-max", "4", "--points", "5", "--integrator", "gh", "--nodes", "8"]
        )
        assert result.output.strip().splitlines()[0] == "mu,value"

    def test_invalid_range_exits_one(self, runner, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        assert runner.invoke(cli, ["scan", cfg, "--mu-min", "3", "--mu-max", "2"]).exit_code == 1
        assert runner.invoke(cli, ["scan", cfg, "--mu-max", "2", "--points", "1"]).exit_code == 1

    def test_scan_deterministic(self, runner, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scan", cfg, "--mu-max", "6", "--points", "11", "--samples", "1000", "--seed", "17"]
        assert runner.invoke(cli, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(cli, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestEquivalenceCommand:
    def test_background_systematics_equivalent(self, runner, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        result = runner.invoke(cli, ["equivalence", cfg, "--samples", "2000", "--seed", "4"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["report"]["verdict"] == "equivalent_within_tol"

    def test_signal_systematics_divergent_but_expected(self, runner, tmp_path):
        cfg = write_config(tmp_path, SIG_SYST)
        result = runner.invoke(cli, ["equivalence", cfg, "--integrator", "gh", "--nodes", "16"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["report"]["verdict"] == "divergent_as_expected"
        assert payload["report"]["signal_uncertain"] is True

    def test_forged_mismatch_exits_three(self, runner, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        result = runner.invoke(
            cli,
            ["equivalence", cfg, "--samples", "2000", "--seed", "4", "--debug-seed-offset", "11"],
        )
        assert result.exit_code == 3
        payload = json.loads(result.output)
        assert payload["report"]["verdict"] == "unexpected_divergence"

    def test_debug_offset_requires_monte_carlo(self, runner, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        result = runner.invoke(
            cli, ["equivalence", cfg, "--integrator", "gh", "--debug-seed-offset", "1"]
        )
        assert result.exit_code == 1


class TestRefusals:
    # each option value is refused up front with a one-line ConfigError:
    # non-finite tolerances and strengths once printed a limit, NaN
    # strengths and a CLs above 1; oversized sets ended in a MemoryError
    @pytest.mark.parametrize(
        "doc, args, message",
        [
            (MINIMAL, ["limit", "--tol", "inf"], r"rel_tol must be in (0, 1), got inf"),
            (MINIMAL, ["limit", "--tol", "1"], r"rel_tol must be in (0, 1), got 1.0"),
            (MINIMAL, ["equivalence", "--solver-tol", "inf"], r"rel_tol must be in (0, 1), got inf"),
            (MINIMAL, ["equivalence", "--tol", "inf"], "--tol must be a positive finite number, got inf"),
            (MINIMAL, ["equivalence", "--tol", "0"], "--tol must be a positive finite number, got 0.0"),
            (MINIMAL, ["scan", "--mu-max", "inf", "--points", "3"], "need finite 0 <= mu-min < mu-max, got [0.0, inf]"),
            (MINIMAL, ["scan", "--mu-min", "inf", "--mu-max", "inf"], "need finite 0 <= mu-min < mu-max"),
            (MINIMAL, ["scan", "--mu-max", "nan"], "need finite 0 <= mu-min < mu-max"),
            (BG_SYST, ["limit", "--samples", "100000000000"],
             "samples x nuisances = 100000000000 x 1 = 100000000000 values exceeds the budget of 4194304"),
            (BG_SYST, ["equivalence", "--samples", "100000000000"],
             "samples x nuisances = 100000000000 x 1 = 100000000000 values exceeds the budget of 4194304"),
            (BG_SYST, ["scan", "--mu-max", "5", "--points", "100000000000"],
             "--points must be in [2, 1048576], got 100000000000"),
            # CLs = 1 at every mu without a signal: once printed on a sample set
            ({**BG_SYST, "signal": {"nominal": 0.0}}, ["scan", "--integrator", "gh", "--mu-max", "5"],
             "nominal signal yield is zero; the CLs limit is undefined"),
        ],
    )
    def test_exits_one_with_a_one_line_message(self, runner, tmp_path, doc, args, message):
        cfg = write_config(tmp_path, doc)
        result = runner.invoke(cli, [args[0], cfg, *args[1:]])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        assert message in result.output


def test_help_documents_alpha_convention(runner):
    result = runner.invoke(cli, ["limit", "--help"])
    assert result.exit_code == 0
    assert "alpha = 1 - CL" in result.output
