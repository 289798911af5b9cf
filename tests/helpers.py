"""Shared model builders for the test suite, a spy on the sample draws,
an in-process CLI call and the environment of a child interpreter."""

import contextlib
import io
import os
import sys
from pathlib import Path

from countlim import (
    BackgroundProcess,
    CountingModel,
    Nuisance,
    Prior,
    Response,
    SystematicsModel,
)


def plain_model(s=1.0, b=1.5, n_obs=3):
    """Model with fixed yields and no nuisance parameters."""
    backgrounds = (BackgroundProcess("bkg", b),) if b > 0 else ()
    return CountingModel(s_nom=s, backgrounds=backgrounds, n_obs=n_obs)


def bg_systematic_model(s=1.0, b=1.5, n_obs=3, kappa=1.2, prior=None):
    """Background yield with one multiplicative log-normal systematic."""
    prior = prior if prior is not None else Prior.standard_normal()
    return CountingModel(
        s_nom=s,
        backgrounds=(
            BackgroundProcess("bkg", b, {"bscale": Response.log_normal(kappa)}),
        ),
        n_obs=n_obs,
        systematics=SystematicsModel(nuisances=(Nuisance("bscale", prior),)),
    )


def signal_systematic_model(s=1.0, b=1.5, n_obs=3, kappa=1.2):
    """Signal yield with one multiplicative log-normal systematic."""
    return CountingModel(
        s_nom=s,
        backgrounds=(BackgroundProcess("bkg", b),),
        n_obs=n_obs,
        systematics=SystematicsModel(
            nuisances=(Nuisance("sscale", Prior.standard_normal()),),
            signal_responses={"sscale": Response.log_normal(kappa)},
        ),
    )


def identity_systematic_model(s=1.0, b=1.5, n_obs=3, n_nuisances=1):
    """Nuisance parameters present but every response is the identity."""
    nuisances = tuple(
        Nuisance(f"idle{j}", Prior.standard_normal()) for j in range(n_nuisances)
    )
    return CountingModel(
        s_nom=s,
        backgrounds=(BackgroundProcess("bkg", b),),
        n_obs=n_obs,
        systematics=SystematicsModel(nuisances=nuisances),
    )


def spy_on_draws(monkeypatch):
    """The list of ``draw_samples`` calls made from now on, one entry of
    arguments per call. Every countlim module's name for the function is
    replaced, as perfbench's tracer does, so a draw is counted wherever it
    is made from."""
    from countlim import marginal

    draw, calls = marginal.draw_samples, []

    def spy(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "countlim" or name.startswith("countlim."):
            for key, value in list(vars(module).items()):
                if value is draw:
                    monkeypatch.setattr(module, key, spy)
    return calls


def run_cli(argv):
    """Run the ``countlim`` CLI in this process on ``argv`` with its streams
    captured. Returns ``(exit_code, stdout, stderr)``. Any exception other
    than ``SystemExit`` propagates, so a test sees an uncaught error."""
    from countlim.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(argv))
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, out.getvalue(), err.getvalue()


def src_env():
    """This process's environment with the source tree first on PYTHONPATH,
    so a child interpreter imports the countlim under test, installed or not."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
