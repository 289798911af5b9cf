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
directory, and hashes each call's exit code and stdout bytes. Run from
the repository root:

    python3 tools/result_hash.py [--ops 200] [--seeds 1,7] [--workloads exact_small,toys_small,large_count]
    python3 tools/result_hash.py --workloads cli_mix --ops 40

The streams need mpmath (a test dependency) to import, though no
operation's check is run here.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from countlim import marginal  # noqa: E402

WORKLOADS = ("exact_small", "toys_small", "large_count")


def solve_record(res) -> str:
    fields = (res.mu_up, res.criterion_at_solution, res.iterations, res.bracket, res.mu_up_stderr, res.criterion_stderr)
    return repr(fields)


def result_hash(workload: str, seed: int, ops: int) -> str:
    """The hash of the first ``ops`` operations of ``workload`` at ``seed``.
    Every countlim module's name for ``marginal._solve``, the one function
    that returns a solve's ``LimitResult``, is wrapped for the run, and
    restored after it."""
    digest = hashlib.sha256()
    solve = marginal._solve

    def spy(*args, **kwargs):
        res = solve(*args, **kwargs)
        digest.update(solve_record(res).encode())
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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=200)
    parser.add_argument("--seeds", default="1,7")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            print(f"{workload:<12} {seed:>4} {result_hash(workload, seed, args.ops)}")


if __name__ == "__main__":
    main()
