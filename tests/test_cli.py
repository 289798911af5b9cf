import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import countlim.cli
from countlim import Integrator, LimitRequest, compare_limits, marginal, special
from countlim.config import load_model
from helpers import run_cli, spy_on_draws, src_env
from test_acceptance import PIN4_MU_BAYES, PIN4_MU_CLS

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

PLAIN = {"signal": {"nominal": 1.0}, "backgrounds": [{"name": "bkg", "nominal": 1.5}], "n_obs": 3}


def write_config(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestLimitCommand:
    def test_minimal_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        code, out, _ = run_cli(["limit", cfg, "--method", "cls", "--cl", "0.95"])
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["cls"]["mu_up"] == pytest.approx(math.log(20.0), rel=1e-9)
        assert payload["alpha"] == pytest.approx(0.05)
        assert payload["integrator"] is None
        assert len(payload["config_sha256"]) == 64

    def test_both_methods_agree(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        code, out, _ = run_cli(["limit", cfg, "--method", "both"])
        assert code == 0
        payload = json.loads(out)
        assert payload["rel_diff"] <= 1e-7

    def test_systematics_shared_samples(self, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        code, out, _ = run_cli(["limit", cfg, "--method", "both", "--integrator", "mc", "--samples", "3000", "--seed", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["rel_diff"] <= 1e-7
        assert payload["integrator"]["kind"] == "monte_carlo"
        assert payload["results"]["cls"]["mu_up_stderr"] > 0.0

    def test_both_solves_on_one_set_of_yields(self, tmp_path, monkeypatch):
        # as in compare_limits: the yields are taken once, and the Bayes
        # solve starts at the CLs root, where it ends after mu = 0 and one
        # kernel call; both limits keep their Monte Carlo errors
        calls = []
        yields_on_samples = marginal.yields_on_samples
        monkeypatch.setattr(
            marginal, "yields_on_samples", lambda model, etas: calls.append(etas) or yields_on_samples(model, etas)
        )
        cfg = write_config(tmp_path, BG_SYST)
        args = ["limit", cfg, "--samples", "10000", "--seed", "3"]
        code, out, _ = run_cli(args + ["--method", "both"])
        assert code == 0 and len(calls) == 1
        payload = json.loads(out)
        assert payload["results"]["bayes"]["iterations"] == 2
        assert payload["rel_diff"] == 0.0
        assert all(payload["results"][m]["mu_up_stderr"] > 0.0 for m in ("cls", "bayes"))
        # solved alone, from its own start, the Bayes limit is the same root
        alone = json.loads(run_cli(args + ["--method", "bayes"])[1])["results"]["bayes"]
        assert alone["mu_up"] == pytest.approx(payload["results"]["bayes"]["mu_up"], rel=2e-9)

    def test_uncertain_signal_bayes_solve_starts_at_its_root(self, tmp_path):
        # criterion 4's model and settings: the Bayes solve starts at the CLs
        # root times E_w[s] E_w[1/s], its root, and ends there after mu = 0
        cfg = write_config(tmp_path, SIG_SYST)
        code, out, _ = run_cli(["limit", cfg, "--method", "both", "--integrator", "gh", "--nodes", "32", "--tol", "1e-10"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["bayes"]["iterations"] == 2
        assert results["cls"]["mu_up"] == pytest.approx(PIN4_MU_CLS, rel=5e-9)
        assert results["bayes"]["mu_up"] == pytest.approx(PIN4_MU_BAYES, rel=5e-9)

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"signall": {"nominal": 1.0}, "n_obs": 0})
        code, _, err = run_cli(["limit", cfg])
        assert code == 1
        assert "signall" in err

    def test_seventeen_digit_floats(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        _, out, _ = run_cli(["limit", cfg])
        payload = json.loads(out)
        mu = payload["results"]["cls"]["mu_up"]
        assert format(mu, ".17g") in out
        assert format(0.95, ".17g") in out

    def test_out_file(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "result.json"
        code, _, _ = run_cli(["limit", cfg, "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["method"] == "cls"

    def test_repeated_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["limit", cfg, "--method", "both", "--samples", "2000", "--seed", "3"]
        assert run_cli(args + ["--out", str(out1)])[0] == 0
        assert run_cli(args + ["--out", str(out2)])[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_blas_threads_leave_the_bytes_alone(self, tmp_path):
        # at n_obs = b = 150 every criterion sums its series by a BLAS matrix
        # product over blocks of lanes: the output must not depend on the
        # BLAS thread count nor differ between identical calls
        doc = {
            "signal": {"nominal": 10.0},
            "backgrounds": [
                {"name": "bkg", "nominal": 150.0, "responses": {"bscale": {"kind": "log_normal", "kappa": 1.05}}}
            ],
            "nuisances": [{"name": "bscale", "prior": {"kind": "standard_normal"}}],
            "n_obs": 150,
        }
        cfg = write_config(tmp_path, doc)
        samples = 2 * special._LANE_BLOCK + 123
        outs = []
        for i, threads in enumerate([None, "1", None]):
            env = src_env()
            for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
                env.pop(name, None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"{i}.json"
            args = ["limit", cfg, "--method", "both", "--integrator", "mc", "--samples", str(samples)]
            proc = subprocess.run(
                [sys.executable, "-m", "countlim.cli", *args, "--seed", "11", "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_bad_cl_rejected(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        code, _, _ = run_cli(["limit", cfg, "--cl", "1.5"])
        assert code == 1

    def test_solver_failure_exits_two(self, tmp_path):
        # microscopic signal: the limit sits beyond the doubling guard
        cfg = write_config(tmp_path, {"signal": {"nominal": 1e-30}, "backgrounds": [], "n_obs": 0})
        code, _, _ = run_cli(["limit", cfg])
        assert code == 2

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

    def test_non_finite_config_number_exits_one(self, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text('{"signal": {"nominal": NaN}, "backgrounds": [], "n_obs": 0}', encoding="utf-8")
        code, _, err = run_cli(["limit", str(cfg)])
        assert code == 1
        assert "signal.nominal: CountingModel.s_nom must be finite and nonnegative, got nan" in err

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_exits_one(self, tmp_path, where):
        # the write's OSError once left a traceback in place of one error line
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
        proc = subprocess.run(
            [sys.executable, "-m", "countlim.cli", "limit", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: cannot write --out {out}: ")

    def test_config_not_utf8_exits_one(self, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_bytes(b"\xff\xfe{}")
        proc = subprocess.run(
            [sys.executable, "-m", "countlim.cli", "limit", str(cfg)],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: {cfg} is not UTF-8 text: ")

    # each command on PLAIN, and the SHA-256 of the stdout it prints
    PLAIN_RUNS = {
        "limit": (["--method", "both"], "fe3b7bb582b98deea269b402db318979e5fae1d732debd8350ba83415240c415"),
        "scan": (["--mu-max", "5", "--points", "3"], "bad428ae5944ba68950124604469f9323b67f5399213302305dc66e2b7f620b8"),
        "equivalence": ([], "9f25ff1edcfcc053def231801225e436e1ecb7f51945f5ccceb454b13a107d40"),
    }

    @pytest.mark.parametrize("command", PLAIN_RUNS)
    @pytest.mark.parametrize("options", [["--samples", "0"], ["--seed", "-1"], ["--integrator", "gh", "--nodes", "1"],
                                         ["--nodes", "1", "--samples", "100"], ["--integrator", "gh", "--samples", "0"]])
    def test_integrator_options_refused_without_nuisances(self, tmp_path, command, options):
        # these options once went unchecked, and exited 0, on a model without nuisances; the last
        # two, an option the kind does not take away from its default, also on a model with them
        args = self.PLAIN_RUNS[command][0] + options
        runs = [run_cli([command, write_config(tmp_path, doc, name), *args])
                for doc, name in ((PLAIN, "plain.json"), (BG_SYST, "syst.json"))]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 1 and out == ""
        [line] = err.splitlines()
        assert line.startswith("error: Integrator.")

    @pytest.mark.parametrize("command", PLAIN_RUNS)
    @pytest.mark.parametrize("options", [[], ["--samples", "7", "--seed", "3"], ["--integrator", "gh", "--nodes", "5"]])
    def test_valid_integrator_options_change_nothing_without_nuisances(self, tmp_path, command, options):
        args, sha256 = self.PLAIN_RUNS[command]
        code, out, err = run_cli([command, write_config(tmp_path, PLAIN), *args, *options])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_negative_yield_exits_two(self, tmp_path):
        doc = json.loads(json.dumps(BG_SYST))
        doc["backgrounds"][0]["responses"]["bscale"] = {"kind": "linear", "delta": 0.4}
        cfg = write_config(tmp_path, doc)
        code, _, _ = run_cli(["limit", cfg, "--samples", "10000", "--seed", "0"])
        assert code == 2

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

    @pytest.mark.parametrize("nominal, what", [(1.5, "overflowed to inf"), (0.0, "is 0 x inf")])
    def test_overflowed_yield_is_one_stderr_line(self, tmp_path, nominal, what):
        # numpy's overflow warning, with its source line, once came first
        doc = json.loads(json.dumps(BG_SYST))
        doc["backgrounds"].append(
            {"name": "extra", "nominal": nominal, "responses": {"bscale": {"kind": "log_normal", "kappa": 1e300}}}
        )
        cfg = write_config(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "countlim.cli", "limit", cfg, "--samples", "50"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: background yield {what} at sample ")

    @pytest.mark.parametrize("command", [["limit"], ["scan", "--mu-max", "5"], ["equivalence"]], ids=lambda c: c[0])
    def test_overflowed_nuisance_is_one_stderr_line(self, tmp_path, command):
        # a normal prior of sd 1e308 overflows a drawn eta to +-inf: numpy's
        # overflow warning, with its source line, once came before the error
        doc = json.loads(json.dumps(BG_SYST))
        doc["nuisances"][0]["prior"] = {"kind": "normal", "mean": 0.0, "sd": 1e308}
        cfg = write_config(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "countlim.cli", command[0], cfg, *command[1:], "--samples", "50"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: nuisance 'bscale' overflowed to ") and " at sample " in line

    def test_huge_signal_yield_leaves_stderr_empty(self, tmp_path):
        # s^2 overflows above s ~ 1.3e154: numpy's overflow warning, with its
        # source line, once reached stderr beside a valid result
        doc = json.loads(json.dumps(SIG_SYST))
        doc["signal"]["nominal"] = 1e200
        cfg = write_config(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "countlim.cli", "limit", cfg, "--method", "both", "--integrator", "gh", "--nodes", "8"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["results"]["cls"]["mu_up"] == pytest.approx(6.66271014e-200, rel=1e-8)


class TestScanCommand:
    def test_cls_starts_at_one(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        code, out, _ = run_cli(["scan", cfg, "--mu-max", "5", "--points", "21"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mu,value"
        first_mu, first_val = lines[1].split(",")
        assert float(first_mu) == 0.0
        assert float(first_val) == 1.0

    def test_clsb_monotone_nonincreasing(self, tmp_path):
        cfg = write_config(tmp_path, {"signal": {"nominal": 1.0}, "backgrounds": [{"name": "b", "nominal": 1.5}], "n_obs": 3})
        _, out, _ = run_cli(["scan", cfg, "--mu-max", "10", "--points", "51", "--quantity", "clsb"])
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_posterior_integrates_to_one(self, tmp_path):
        cfg = write_config(tmp_path, {"signal": {"nominal": 1.0}, "backgrounds": [{"name": "b", "nominal": 1.5}], "n_obs": 3})
        _, out, _ = run_cli(["scan", cfg, "--mu-max", "60", "--points", "6001", "--quantity", "posterior"])
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        mus = np.array([float(r[0]) for r in rows])
        dens = np.array([float(r[1]) for r in rows])
        assert np.trapezoid(dens, mus) == pytest.approx(1.0, abs=1e-4)

    def test_stderr_column_for_monte_carlo(self, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        _, out, _ = run_cli(["scan", cfg, "--mu-max", "4", "--points", "5", "--integrator", "mc", "--samples", "500"])
        lines = out.strip().splitlines()
        assert lines[0] == "mu,value,stderr"
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_no_stderr_column_for_quadrature(self, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        _, out, _ = run_cli(["scan", cfg, "--mu-max", "4", "--points", "5", "--integrator", "gh", "--nodes", "8"])
        assert out.strip().splitlines()[0] == "mu,value"

    def test_invalid_range_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        assert run_cli(["scan", cfg, "--mu-min", "3", "--mu-max", "2"])[0] == 1
        assert run_cli(["scan", cfg, "--mu-max", "2", "--points", "1"])[0] == 1

    def test_scan_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scan", cfg, "--mu-max", "6", "--points", "11", "--samples", "1000", "--seed", "17"]
        assert run_cli(args + ["--out", str(out1)])[0] == 0
        assert run_cli(args + ["--out", str(out2)])[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("doc", [PLAIN, BG_SYST], ids=["one point", "one nuisance"])
    @pytest.mark.parametrize("quantity", ["posterior", "cls"])
    def test_overflowed_mean_prints_zero(self, tmp_path, doc, quantity):
        # at s = 1e10, mu*s + b overflows at both mu > 0: both quantities
        # are 0 there. The posterior once printed null, and numpy's warnings
        # went to stderr
        cfg = write_config(tmp_path, {**doc, "signal": {"nominal": 1e10}})
        args = ["scan", cfg, "--mu-max", "1e300", "--points", "3", "--quantity", quantity, "--samples", "50"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(args)
        assert code == 0 and err == ""
        zeros = ["0"] if doc is PLAIN else ["0", "0"]  # the value, and its stderr on a Monte Carlo set
        assert [line.split(",")[1:] for line in out.splitlines()[2:]] == [zeros, zeros]

    def test_overflowed_mean_writes_nothing_to_stderr(self, tmp_path):
        cfg = write_config(tmp_path, {**BG_SYST, "signal": {"nominal": 1e10}})
        proc = subprocess.run(
            [sys.executable, "-m", "countlim.cli", "scan", cfg, "--mu-max", "1e300", "--points", "3", "--quantity", "posterior"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines()[2:] == ["5.0000000000000003e+299,0,0", "1.0000000000000001e+300,0,0"]


class TestOnePathToTheLimits:
    # `limit --method both` and compare_limits run one paired solve; every
    # limit draws its set once, in the library, after the zero-signal check
    @pytest.mark.parametrize(
        ("doc", "args", "integrator"),
        [
            (BG_SYST, ["--samples", "3000", "--seed", "5"], Integrator.monte_carlo(3000, 5)),
            (SIG_SYST, ["--integrator", "gh", "--nodes", "12"], Integrator.gauss_hermite(12)),
            (PLAIN, [], Integrator.monte_carlo(10000, 0)),
        ],
        ids=["monte carlo", "gauss-hermite", "plain"],
    )
    def test_both_prints_the_compare_limits_pair(self, tmp_path, doc, args, integrator):
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["limit", cfg, "--method", "both", *args])
        assert code == 0
        payload = json.loads(out)
        report = compare_limits(load_model(cfg), LimitRequest(alpha=payload["alpha"]), integrator)
        cls, bayes = payload["results"]["cls"], payload["results"]["bayes"]
        # 17 significant digits round-trip a double, so == is bit for bit
        assert (cls["mu_up"], bayes["mu_up"], payload["rel_diff"]) == (
            report.mu_up_cls, report.mu_up_bayes, report.rel_diff
        )
        assert cls["mu_up_stderr"] == report.mc_stderr

    @pytest.mark.parametrize("method", ["cls", "bayes", "both"])
    @pytest.mark.parametrize(("doc", "draws"), [(BG_SYST, 1), (PLAIN, 0)], ids=["monte carlo", "plain"])
    def test_a_limit_draws_its_set_once(self, tmp_path, monkeypatch, method, doc, draws):
        calls = spy_on_draws(monkeypatch)
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["limit", cfg, "--method", method, "--samples", "500"])
        assert code == 0, err
        assert len(calls) == draws

    @pytest.mark.parametrize(
        ("method", "message"),
        [
            ("cls", "nominal signal yield is zero; the CLs limit is undefined"),
            ("bayes", "nominal signal yield is zero; the posterior for mu is improper"),
            ("both", "nominal signal yield is zero; the CLs limit is undefined"),
        ],
        ids=["cls", "bayes", "both"],
    )
    def test_zero_signal_exits_one_before_a_set_is_drawn(self, tmp_path, monkeypatch, method, message):
        calls = spy_on_draws(monkeypatch)
        cfg = write_config(tmp_path, {**BG_SYST, "signal": {"nominal": 0.0}})
        code, _, err = run_cli(["limit", cfg, "--method", method])
        assert code == 1
        assert err == f"error: {message}\n"
        assert calls == []


class TestEquivalenceCommand:
    def test_background_systematics_equivalent(self, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        code, out, _ = run_cli(["equivalence", cfg, "--samples", "2000", "--seed", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["verdict"] == "equivalent_within_tol"

    def test_signal_systematics_divergent_but_expected(self, tmp_path):
        cfg = write_config(tmp_path, SIG_SYST)
        code, out, _ = run_cli(["equivalence", cfg, "--integrator", "gh", "--nodes", "16"])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["verdict"] == "divergent_as_expected"
        assert payload["report"]["signal_uncertain"] is True

    def test_forged_mismatch_exits_three(self, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        code, out, _ = run_cli(["equivalence", cfg, "--samples", "2000", "--seed", "4", "--debug-seed-offset", "11"])
        assert code == 3
        payload = json.loads(out)
        assert payload["report"]["verdict"] == "unexpected_divergence"

    def test_debug_offset_requires_monte_carlo(self, tmp_path):
        cfg = write_config(tmp_path, BG_SYST)
        code, _, _ = run_cli(["equivalence", cfg, "--integrator", "gh", "--debug-seed-offset", "1"])
        assert code == 1

    def test_no_integrator_without_nuisances(self, tmp_path):
        # as for `limit`: a model without nuisances draws no set
        cfg = write_config(tmp_path, PLAIN)
        code, out, _ = run_cli(["equivalence", cfg])
        assert code == 0
        assert json.loads(out)["integrator"] is None

    def test_debug_offset_requires_nuisances(self, tmp_path):
        # a model without nuisances has no set for the offset to shift
        cfg = write_config(tmp_path, PLAIN)
        code, out, err = run_cli(["equivalence", cfg, "--debug-seed-offset", "1"])
        assert code == 1 and out == ""
        assert err == "error: --debug-seed-offset requires the Monte Carlo integrator and a model with nuisances\n"


class TestConfigReadOnce:
    # the config_sha256 of the payload is the hash of the bytes the model was
    # parsed from: the file was once hashed again after the solve, so a file
    # rewritten mid-command gave the hash of bytes that were never parsed
    @pytest.mark.parametrize(
        ("doc", "args", "solve"),
        [
            (PLAIN, ["limit", "--method", "cls"], "hybrid_cls_upper_limit"),
            (BG_SYST, ["limit", "--method", "both", "--samples", "500"], "_paired_limits"),
            (BG_SYST, ["equivalence", "--samples", "500"], "compare_limits"),
        ],
    )
    def test_a_file_rewritten_mid_command_keeps_the_parsed_hash(self, tmp_path, monkeypatch, doc, args, solve):
        cfg = write_config(tmp_path, doc)
        parsed = (tmp_path / "model.json").read_bytes()
        code, before, _ = run_cli([args[0], cfg, *args[1:]])
        assert code == 0
        inner = getattr(countlim.cli, solve)

        def rewriting(*a, **k):
            write_config(tmp_path, {**doc, "n_obs": 7})
            return inner(*a, **k)

        monkeypatch.setattr(countlim.cli, solve, rewriting)
        code, after, _ = run_cli([args[0], cfg, *args[1:]])
        assert code == 0 and (tmp_path / "model.json").read_bytes() != parsed
        assert json.loads(after)["config_sha256"] == hashlib.sha256(parsed).hexdigest()
        assert after == before


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
            # a cl of 2**-54 or less leaves alpha = 1 - cl at 1.0, once refused as LimitRequest.alpha
            *[(MINIMAL, [command, "--cl", cl], f"--cl must be in (2**-54, 1), got {cl}")
              for command in ("limit", "equivalence") for cl in ("1e-17", repr(2.0**-54))],
            (MINIMAL, ["equivalence", "--tol", "inf"], "compare_limits.tol must be a positive finite number, got inf"),
            (MINIMAL, ["equivalence", "--tol", "0"], "compare_limits.tol must be a positive finite number, got 0.0"),
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
            # the posterior once blamed sample 0 on a set, or called itself degenerate on one point
            ({**BG_SYST, "signal": {"nominal": 0.0}}, ["scan", "--mu-max", "5", "--quantity", "posterior"],
             "nominal signal yield is zero; the posterior for mu is improper"),
            ({**PLAIN, "signal": {"nominal": 0.0}}, ["scan", "--mu-max", "5", "--quantity", "posterior"],
             "nominal signal yield is zero; the posterior for mu is improper"),
            # backgrounds summing past the float range once reached the solver, which exited 2
            ({**PLAIN, "backgrounds": [{"name": "a", "nominal": 1e308}, {"name": "b", "nominal": 1e308}]}, ["limit"],
             "backgrounds: CountingModel.backgrounds must sum to a finite nominal yield, got inf"),
            # a count past the float range, written out in full, once raised a bare OverflowError,
            # and so did 2**1023, within it, from lgamma(n + 2)
            *[({**PLAIN, "n_obs": n}, args, "n_obs: CountingModel.n_obs must be a nonnegative integer "
              f"at most 2.5599833278516383e+305, got {str(n)[:4]}")
              for n in (10**400, 2**1023) for args in (["limit"], ["equivalence"], ["scan", "--mu-max", "5"])],
            # a grid size of more than 4,300 digits once left Python's ValueError as a traceback
            ({**PLAIN, "nuisances": [{"name": f"z{j}", "prior": {"kind": "standard_normal"}} for j in range(2400)]},
             ["limit", "--integrator", "gh", "--nodes", "64"],
             f"= 64^2400 = an int of more than {sys.get_int_max_str_digits()} digits points exceeds the budget of 1048576"),
            # a ragged correlation once left numpy's ValueError as a traceback
            ({**PLAIN, "nuisances": [{"name": "a", "prior": {"kind": "standard_normal"}}], "correlation": [[1.0, 0.0]]},
             ["limit"], "correlation: SystematicsModel.correlation must be a 1 x 1 matrix, a row and a column"),
        ],
    )
    def test_exits_one_with_a_one_line_message(self, tmp_path, doc, args, message):
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli([args[0], cfg, *args[1:]])
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def test_help_documents_alpha_convention():
    code, out, _ = run_cli(["limit", "--help"])
    assert code == 0
    assert "alpha = 1 - CL" in out


@pytest.mark.parametrize(
    "args",
    [
        ["limit", "{dir}/missing.json"],
        ["limit", "{dir}"],
        ["limit", "{cfg}", "--method", "foo"],
        ["limit", "{cfg}", "--samples", "abc"],
        ["limit", "{cfg}", "--bogus"],
        ["scan", "{cfg}"],
        [],
    ],
    ids=["missing config", "directory config", "bad choice", "bad integer", "unknown option", "required option",
         "no command"],
)
def test_usage_error_exits_one_with_one_line(tmp_path, args):
    # exit 2 is the solver-error code, and a usage block would bury the one line that matters
    cfg = write_config(tmp_path, MINIMAL)
    code, out, err = run_cli([arg.format(dir=tmp_path, cfg=cfg) for arg in args])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", [[], ["limit"], ["scan"], ["equivalence"]])
def test_help_exits_zero(command):
    code, out, err = run_cli([*command, "--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: countlim")
    assert "--debug-seed-offset" not in out


class TestInProcessEntry:
    # perfbench's traced run calls cli.main(args=..., standalone_mode=False)
    # in process and reads what it printed: it must be a child's stdout, byte
    # for byte, on the four command shapes of its cli_mix workload
    @staticmethod
    def in_process(args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            countlim.cli.cli.main(args=list(args), standalone_mode=False)
        return out.getvalue().encode("utf-8")

    @pytest.mark.parametrize(
        ("doc", "args"),
        [
            (BG_SYST, ["limit", "--method", "both", "--samples", "10000", "--seed", "8"]),
            (PLAIN, ["limit", "--method", "both"]),
            (SIG_SYST, ["equivalence", "--integrator", "gh", "--nodes", "32"]),
            (BG_SYST, ["scan", "--mu-max", "20", "--points", "101", "--samples", "2000", "--seed", "9"]),
        ],
        ids=["limit monte carlo", "limit plain", "equivalence", "scan"],
    )
    def test_prints_the_bytes_of_a_child(self, tmp_path, doc, args):
        argv = [args[0], write_config(tmp_path, doc), *args[1:]]
        child = subprocess.run([sys.executable, "-m", "countlim.cli", *argv], capture_output=True, env=src_env())
        assert child.returncode == 0, child.stderr
        assert self.in_process(argv) == child.stdout

    def test_config_error_raises_system_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**PLAIN, "n_obs": -1})
        with pytest.raises(SystemExit) as exit_info:
            self.in_process(["limit", cfg])
        assert exit_info.value.code == 1
        assert capsys.readouterr().err.startswith("error: ")
