"""Results hash of the benchmark's first operations, to show a change is bit for bit.

For each workload and each seed, runs the first ``--ops`` operations of
the benchmark's stream (``perfbench/workloads.py``, imported, not edited)
and prints one SHA-256 over every operation's result and every
``LimitResult`` a solve returns on the way: ``mu_up``,
``criterion_at_solution``, ``iterations``, ``bracket`` and both standard
errors, each float by ``repr``. Two builds whose lines match computed the
same limits, brackets, iteration counts and errors to the bit. The
``cli_mix`` workload, named only on request, makes its CLI calls in this
process (``workloads.cli_in_process``) on configs in a temporary
directory, and hashes each call's exit code and stdout bytes. The
``kernels`` workload, also named only on request, draws ``--ops`` calls of
``poisson_cdf``, ``gamma_q``, ``log_poisson_pmf`` or ``pmf`` on seeded
draws (``kernel_hash``), where ``pmf`` calls ``special._poisson_cdf_pmf``
and ``special._gamma_q_pmf``, each value with the pmf its route hands
back. It prints one line per kernel, ``kernels.<kernel>``, over that
kernel's calls, hashing their float outputs by ``repr`` and their arrays
by their bytes; so one kernel's line keeps its hash whatever another's
calls return (a revision without the ``pmf`` entries hashes ``absent``).
The ``configs`` workload, also named only on request, runs ``parse_model``
on a seeded corpus of config documents (``config_hash``) and hashes, per
document, ``"ok "``, the JSON of its ``emit_config``, the model's ``repr``,
whether the model equals ``parse_model`` of that JSON, and whether the
model's pickle round trip equals it, with that copy's ``repr``, or
``"refused"``: the accept-or-refuse decisions, the emitted configs and the
models' ``repr``, equality and copies, not the error texts. A refusal is a
``CountLimError``, or the ``ValueError`` numpy raised on a ragged
correlation before the model refused one; any other exception stops the
tool. The ``pointwise`` workload, also named only on
request, calls the pointwise entries (``hybrid_cls``,
``marginal_posterior_tail``, ``marginal_posterior_density``,
``marginal_likelihood``, ``yields_on_samples`` and ``scan_quantity`` for
each quantity) on ``--ops`` models drawn as the ``configs`` corpus draws
them (``pointwise_hash``), and hashes each float by ``repr``, each array
by its bytes and each refusal by its type; any exception that is no
``CountLimError`` stops the tool.

``--against REV`` hashes git revision REV's ``src/`` too, extracted by
``git archive`` into a temporary directory and run in a child interpreter
with that ``src/`` first on its path and this tree's ``perfbench/``. Each
line then reads workload, seed, REV's hash, this tree's hash and ``same``
or ``differs``, and the tool exits 1 if any line differs. A differing line
of a workload that solves limits also says how far they moved (``moved``):
``max|dmu|/mu=`` the largest |mu_up - mu_up of REV| / mu_up of REV over its
limits, in order, ``iterations=`` REV's summed ``iterations``, ``->``,
this tree's, and ``more/fewer=`` how many solves, paired in order, took
more and how many fewer iterations than REV's. Nothing is written into
the repository or its ``.git``. Run from the repository root:

    python3 tools/result_hash.py [--ops 200] [--seeds 1,7] [--workloads exact_small,toys_small,large_count]
    python3 tools/result_hash.py --workloads cli_mix --ops 40
    python3 tools/result_hash.py --workloads kernels --against HEAD
    python3 tools/result_hash.py --workloads configs --ops 20 --against HEAD
    python3 tools/result_hash.py --workloads pointwise --against HEAD
    python3 tools/result_hash.py --against HEAD

The streams need mpmath (a test dependency) to import, though no
operation's check is run here.
"""

import argparse
import copy
import hashlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from countlim import CountLimError, Integrator, config, marginal, special, yields_on_samples  # noqa: E402

WORKLOADS = ("exact_small", "toys_small", "large_count")
KERNELS = ("poisson_cdf", "gamma_q", "log_poisson_pmf", "pmf")  # the kernels workload's lines, in order
PMF_ENTRIES = ("_poisson_cdf_pmf", "_gamma_q_pmf")  # what ``pmf`` calls, each at its count: n and a = n + 1
KERNEL_LINES = [f"kernels.{kernel}" for kernel in KERNELS]
QUANTITIES = ("cls", "clsb", "clb", "posterior")  # what ``pointwise`` scans
WIDTHS = (None, 16, 21, 2000, 9000)  # a float, or lanes: narrow, just wide, wide, over one special._LANE_BLOCK
# what ``configs`` sets each value of a document to, one at a time, and each correlation it tries
ODD_VALUES = ("x", True, None, 0, -1, math.inf, math.nan, 10**400, [1.0], "log_normal")
ODD_CORRELATIONS = ([], [[]], [1.0], [[1.0]], [[[1.0]]], [[1.0, 0.0]], [[1.0], [0.0, 1.0]], [[1.0, 0.0], [0.0]],
                    [[1.0, 0.0], [0.0, 1.0]], [[1, 0], [0, 1]], [[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.5], [0.4, 1.0]],
                    [[True, 0.0], [0.0, True]], [["1.0", 0.0], [0.0, 1.0]], [[1.0, math.nan], [math.nan, 1.0]],
                    [[1.0, 10**400], [10**400, 1.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "x", {})

# The child of --against: countlim is imported from the extracted src/ before
# this tool runs, so the tool's own path entries find the package loaded, and
# every countlim module it and perfbench import is from REV.
CHILD = """
import runpy, sys
src, tool, *argv = sys.argv[1:]
sys.path.insert(0, src)
import countlim
assert countlim.__file__.startswith(src), countlim.__file__
sys.argv = [tool, *argv]
runpy.run_path(tool, run_name="__main__")
"""


def solve_record(res) -> str:
    fields = (res.mu_up, res.criterion_at_solution, res.iterations, res.bracket, res.mu_up_stderr, res.criterion_stderr)
    return repr(fields)


def kernel_hash(seed: int, ops: int, kernel: str) -> str:
    """The hash of the calls of ``kernel`` among ``ops`` kernel calls drawn
    at ``seed``. Each call draws its kernel, a count n from 0-60 or
    log-uniform up to 1e4 (``gamma_q`` takes a = n + 1, so Temme's route
    from a = 21) and a float or an array of a width in ``WIDTHS``. A quarter
    of the calls take lanes uniform in [n, 2.5 n + 10], poisson_cdf's lower
    tail; the rest take lanes uniform in [0, 2.5 n + 10] with the edges
    0.1 a, 2 a, n, 0 and inf among them, or a float from either. Every
    call's draws are made, whichever kernel is hashed."""
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for _ in range(ops):
        name = KERNELS[rng.integers(len(KERNELS))]
        n = int(rng.integers(61)) if rng.random() < 0.5 else int(np.exp(rng.uniform(0.0, np.log(1e4))))
        a = n + 1.0
        width = WIDTHS[rng.integers(len(WIDTHS))]
        lower_tail = rng.random() < 0.25
        x = rng.uniform(n if lower_tail else 0.0, 2.5 * n + 10.0, width or 1)
        edges = np.array([0.1 * a, 2.0 * a, n, 0.0, np.inf])
        if width is None:
            x = float(x[0] if lower_tail or rng.random() < 0.5 else rng.choice(edges))
        elif not lower_tail:
            x[rng.choice(width, edges.size, replace=False)] = edges
        if name != kernel:
            continue
        if name == "pmf":
            entries = [getattr(special, entry, None) for entry in PMF_ENTRIES]
            outs = [entry(first, x) if entry else "absent" for entry, first in zip(entries, (n, a))]
        else:
            outs = [getattr(special, name)(a if name == "gamma_q" else n, x)]
        for out in outs:
            for value in out if isinstance(out, tuple) else (out,):
                digest.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return digest.hexdigest()


def config_draw(rng) -> dict:
    """A config document as the CLI fuzz test draws one: up to three
    nuisances of every prior kind, responses of every kind on the signal and
    up to two backgrounds, and at times a correlation over the first two
    nuisances, whatever their priors."""
    names = ["p0", "p1", "p2"][: rng.integers(4)]

    def pick(*nodes):
        return nodes[rng.integers(len(nodes))]

    def responses():
        return {name: pick({"kind": "identity"}, {"kind": "log_normal", "kappa": float(rng.uniform(0.5, 2.0))},
                           {"kind": "linear", "delta": float(rng.uniform(-0.3, 0.3))})
                for name in names if rng.random() < 0.5}

    doc = {
        "signal": {"nominal": float(rng.uniform(0.0, 20.0)), "responses": responses()},
        "backgrounds": [{"name": f"b{i}", "nominal": float(rng.uniform(0.0, 300.0)), "responses": responses()}
                        for i in range(rng.integers(3))],
        "nuisances": [{"name": name, "prior": pick(
            {"kind": "standard_normal"},
            {"kind": "normal", "mean": float(rng.uniform(-1.0, 1.0)), "sd": float(rng.uniform(0.1, 2.0))},
            {"kind": "log_normal", "mu": float(rng.uniform(-0.5, 0.5)), "sigma": float(rng.uniform(0.05, 0.5))},
        )} for name in names],
        "n_obs": int(rng.integers(200)),
    }
    if len(names) >= 2 and rng.random() < 0.5:
        rho = float(rng.uniform(-0.9, 0.9))
        doc["correlation"] = [[1.0, rho], [rho, 1.0]]
    return doc


def config_mutations(doc):
    """``doc``, then one document per change to it: each key dropped, an
    unknown key added to each object, each value (lists' entries included)
    set to each of ``ODD_VALUES``, and the correlation set to each of
    ``ODD_CORRELATIONS``."""
    yield doc
    nodes = [((), doc)]
    for path, node in nodes:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        if isinstance(node, dict):
            yield _changed(doc, path, lambda n: n.update(extra=1))
            for key in keys:
                yield _changed(doc, path, lambda n, key=key: n.pop(key))
        for key in keys:
            for value in ODD_VALUES:
                yield _changed(doc, path, lambda n, key=key, value=value: n.__setitem__(key, value))
            if isinstance(node[key], (dict, list)):
                nodes.append(((*path, key), node[key]))
    for corr in ODD_CORRELATIONS:
        yield _changed(doc, (), lambda n, corr=corr: n.__setitem__("correlation", copy.deepcopy(corr)))


def _changed(doc, path, change):
    """A copy of ``doc`` with ``change`` applied to its node at ``path``."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path:
        node = node[key]
    change(node)
    return doc


def config_hash(seed: int, ops: int) -> str:
    """The hash of the decisions on ``ops`` drawn documents at ``seed`` and
    on every mutation of each (``config_mutations``), and of each accepted
    model's ``repr``, its equality with the model its emitted config parses
    to, and its pickle round trip's equality with it and ``repr``."""
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for _ in range(ops):
        for doc in config_mutations(config_draw(rng)):
            try:
                model = config.parse_model(doc)
                emitted = config.emit_config(model)
                twin = pickle.loads(pickle.dumps(model))
                line = (f"ok {json.dumps(emitted)} {model!r} {model == config.parse_model(emitted)} "
                        f"{twin == model} {twin!r}")
            except (CountLimError, ValueError):
                line = "refused"
            digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def pointwise_hash(seed: int, ops: int) -> str:
    """The hash of the pointwise entries on ``ops`` models drawn at
    ``seed`` (``config_draw``). Each model is taken on a Monte Carlo set
    and a Gauss-Hermite grid of drawn sizes, and its nominal yields (no
    nuisances, no responses) on the one-point set; on each, every entry
    runs at mu = 0 and two drawn strengths, ``scan_quantity`` on a grid
    of those three, and ``yields_on_samples`` on the set's etas."""
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()

    def record(call, *args):
        try:
            out = call(*args)
        except CountLimError as err:  # a zero signal, a negative yield, a non-normal prior on a grid, ...
            out = f"refused {type(err).__name__}"
        for value in out if isinstance(out, tuple) else (out,):
            digest.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())

    for _ in range(ops):
        doc = config_draw(rng)
        nominal = {"signal": {"nominal": doc["signal"]["nominal"]}, "n_obs": doc["n_obs"],
                   "backgrounds": [{"name": b["name"], "nominal": b["nominal"]} for b in doc["backgrounds"]]}
        mus = [0.0, *rng.uniform(0.0, 5.0, 2).tolist()]
        integrators = (Integrator.monte_carlo(int(rng.integers(2, 300)), int(rng.integers(2**32))),
                       Integrator.gauss_hermite(int(rng.integers(2, 9))))
        for node, integrator in [*((doc, i) for i in integrators), (nominal, None)]:
            try:
                model = config.parse_model(node)
                samples = marginal.draw_samples(model.systematics, integrator)
            except CountLimError as err:
                digest.update(f"refused {type(err).__name__}".encode())
                continue
            for mu in mus:
                for entry in (marginal.hybrid_cls, marginal.marginal_posterior_tail, marginal.marginal_posterior_density):
                    record(entry, model, mu, samples)
                record(marginal.marginal_likelihood, model, mu, model.n_obs, samples)
            for quantity in QUANTITIES:
                record(marginal.scan_quantity, model, quantity, np.array(mus), samples)
            record(yields_on_samples, model, samples.etas)
    return digest.hexdigest()


def result_hash(workload: str, seed: int, ops: int, limits: list | None = None) -> str:
    """The hash of the first ``ops`` operations of ``workload`` at ``seed``.
    Every countlim module's name for ``marginal._solve``, the one function
    that returns a solve's ``LimitResult``, is wrapped for the run, and
    restored after it; each result's ``(mu_up, iterations)`` is appended to
    ``limits`` where one is given."""
    if workload.startswith("kernels."):
        return kernel_hash(seed, ops, workload.removeprefix("kernels."))
    if workload == "configs":
        return config_hash(seed, ops)
    if workload == "pointwise":
        return pointwise_hash(seed, ops)
    digest = hashlib.sha256()
    solve = marginal._solve

    def spy(*args, **kwargs):
        res = solve(*args, **kwargs)
        digest.update(solve_record(res).encode())
        if limits is not None:
            limits.append((res.mu_up, res.iterations))
        return res

    patched = [m for name, m in sys.modules.items() if name.split(".")[0] == "countlim" and getattr(m, "_solve", None) is solve]
    for module in patched:
        module._solve = spy
    try:
        with tempfile.TemporaryDirectory() as workdir:
            ctx = workloads.Context(workloads.Oracle(), Path(workdir), workloads.cli_in_process)
            stream = workloads.STREAMS[workload](seed, ctx)
            for _ in range(ops):
                digest.update(repr(next(stream).call()).encode())
    finally:
        for module in patched:
            module._solve = solve
    return digest.hexdigest()


def revision_hashes(rev: str, argv: list[str]) -> dict[tuple[str, int], tuple[str, list]]:
    """This tool's hashes and limits for ``argv`` on ``rev``'s ``src/``, by
    (workload, seed): the source is extracted into a temporary directory and
    hashed in a child interpreter (see ``CHILD``) that writes no bytecode,
    and prints one ``--records`` line per hash."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True)
    if archive.returncode:
        raise SystemExit(f"error: git archive {rev}: {archive.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory() as workdir:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(workdir, filter="data")
        src = str(Path(workdir, "src"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        child = subprocess.run([sys.executable, "-c", CHILD, src, __file__, *argv, "--records"],
                               stdout=subprocess.PIPE, text=True, check=True, env=env)
    records = [json.loads(line) for line in child.stdout.splitlines()]
    return {(r["workload"], r["seed"]): (r["hash"], r["limits"]) for r in records}


def moved(theirs: list, ours: list) -> str:
    """How far the limits of a differing workload moved, from ``theirs`` to
    ``ours``, each a list of ``(mu_up, iterations)`` in solve order: the
    largest |d mu_up| / mu_up, over ``theirs``' mu_up, each side's summed
    iterations, and the number of solves, paired in order, that took more
    and fewer iterations in ``ours``. Where the two solved a different
    number of limits, that number stands in for the largest move."""
    if len(theirs) == len(ours):
        shift = f"max|dmu|/mu={max(abs(b - a) / a for (a, _), (b, _) in zip(theirs, ours)):.1e}"
    else:
        shift = f"limits={len(theirs)}->{len(ours)}"
    pairs = [(a, b) for (_, a), (_, b) in zip(theirs, ours)]
    more, fewer = sum(b > a for a, b in pairs), sum(b < a for a, b in pairs)
    return f"{shift} iterations={sum(i for _, i in theirs)}->{sum(i for _, i in ours)} more/fewer={more}/{fewer}"


def main(argv=None) -> int:
    """Print the hashes; with ``--against``, return 1 if any differs from REV's, else 0."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=200)
    parser.add_argument("--seeds", default="1,7")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--against", metavar="REV", help="git revision whose src/ to hash beside this tree's")
    parser.add_argument("--records", action="store_true", help=argparse.SUPPRESS)  # the --against child's output
    args = parser.parse_args(argv)
    shared = ["--ops", str(args.ops), "--seeds", args.seeds, "--workloads", args.workloads]
    theirs = revision_hashes(args.against, shared) if args.against else {}
    differs = False
    # the kernels workload prints one line per kernel
    runs = [w for name in args.workloads.split(",") for w in (KERNEL_LINES if name == "kernels" else [name])]
    for workload in runs:
        for seed in (int(s) for s in args.seeds.split(",")):
            limits = []
            ours = result_hash(workload, seed, args.ops, limits)
            if args.records:
                print(json.dumps({"workload": workload, "seed": seed, "hash": ours, "limits": limits}))
            elif not args.against:
                print(f"{workload:<12} {seed:>4} {ours}")
            else:
                rev, rev_limits = theirs[workload, seed]
                differs |= rev != ours
                line = f"{workload:<12} {seed:>4} {rev} {ours} {'same' if rev == ours else 'differs'}"
                print(f"{line} {moved(rev_limits, limits)}" if rev != ours and (limits or rev_limits) else line)
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
