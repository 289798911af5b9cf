"""countlim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload toys_small --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program under test is the
checkout's ``src/countlim``, imported from source. One client drives
countlim in a closed loop: the next operation starts only after the
previous one has finished. With ``--trace 0`` the run measures for
``--seconds`` (and at least ``MIN_OPS`` operations) with tracing off and
reports the end-to-end metrics, timed against a reference probe. With ``--trace 1`` it runs a fixed number
of operations, each once untraced and once traced, and reports the
per-layer metrics. Every operation's output is checked outside the timed
region. A readable report goes to stdout first; the last line is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 3  # fresh-interpreter imports per run; setup_s is their median
IMPORT_REPEATS = 3  # -X importtime runs per traced run; each split is a median
MIN_OPS = 40  # so that op_s.p75 has ten samples beyond it
# Operations in a traced run: a few seconds of work each, fixed so that the
# counts repeat exactly for a seed.
TRACE_OPS = {"cli_mix": 16, "exact_small": 2000, "toys_small": 150, "large_count": 10}
IMPORT_PACKAGES = ("scipy", "numpy", "click", "countlim")


def sources_present() -> bool:
    return (SRC / "countlim" / "__init__.py").is_file()


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_python(code: str) -> float:
    """Wall time of a fresh interpreter that runs ``code`` and exits."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=_child_env(),
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return perf_counter() - t0


def import_split_us(stderr: str) -> dict:
    """Microseconds per package from ``-X importtime`` output: the summed
    cumulative time of each package's outermost imports, and for countlim
    the self time of its own modules only."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        level = len(name) - len(name.lstrip())
        entries.append((level, name.strip().split(".")[0], int(self_us), int(cum_us)))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    ancestors = []  # a module's line follows those of the imports it made
    for level, top, self_us, cum_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        parent_top = ancestors[-1][1] if ancestors else None
        if top == "countlim":
            totals[top] += self_us
        elif top in totals and parent_top != top:
            totals[top] += cum_us
        ancestors.append((level, top))
    return totals


def import_split(repeats: int) -> dict:
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import countlim.cli"],
                              env=_child_env(), check=True, capture_output=True, text=True)
        runs.append(import_split_us(proc.stderr))
    return {pkg: statistics.median(run[pkg] for run in runs) for pkg in IMPORT_PACKAGES}


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "countlim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click", "mpmath")},
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
    }


class Tally:
    """Attempted and failed operations, failures by exception class."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.kinds = Counter()
        self.n_obs_max = 0
        self.limits = 0

    def start(self, op):
        self.attempted += 1
        self.kinds[op.kind] += 1
        self.n_obs_max = max(self.n_obs_max, op.n_obs)

    def check(self, op, result) -> bool:
        try:
            op.check(result)
        except Exception as err:  # any wrong output counts against the op
            self.fail(err)
            return False
        self.limits += op.limits
        return True

    def fail(self, err):
        self.failures[type(err).__name__] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": dict(self.failures), "ops_by_kind": dict(self.kinds),
                "n_obs_max": self.n_obs_max}


_PROBE_WIDE = np.random.default_rng(0).random(2000)
_PROBE_NARROW = _PROBE_WIDE[:16].copy()
# Each probe's duration when this 2-vCPU host runs at full speed.
NUMPY_PROBE_REF_S = 0.001
SPAWN_PROBE_REF_S = 0.04
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.5


def numpy_probe() -> float:
    """Wall time of a fixed numpy loop that does not touch countlim: half
    on 2000 lanes, where the arithmetic costs, and half on 16 lanes, where
    the per-call overhead does, like countlim's own kernels."""
    t0 = perf_counter()
    for x, rounds in ((_PROBE_WIDE, 40), (_PROBE_NARROW, 140)):
        y = x
        for _ in range(rounds):
            y = np.exp(-y) * x + np.log1p(y)
            y = np.where(y > 2.0, 0.5, y)
    return perf_counter() - t0


def spawn_probe() -> float:
    """Wall time of a fresh interpreter that does nothing."""
    return time_python("pass")


class ProbeClock:
    """Converts wall time to reference seconds.

    The 2-vCPU virtual machine this was tuned on alternates between full
    speed and states up to ~1.9x slower that last 5-60 s, so raw wall times
    of whole runs differ by more than any useful bound. A fixed probe that does not
    call countlim, run between operations at least every ``PROBE_EVERY_S``,
    slows down with them. An operation's reference time is its wall time
    times ``ref_s`` over the median probe within ``PROBE_WINDOW_S`` of it:
    its duration at the speed at which the probe takes ``ref_s``. A change
    to countlim moves only the numerator. In-process operations use the
    numpy probe; child processes use an empty interpreter start, because
    import time follows the numpy probe only weakly.
    """

    def __init__(self, probe, ref_s: float):
        self._probe = probe
        self.ref_s = ref_s
        self.at = []
        self.probes = []

    def probe(self):
        self.probes.append(self._probe())
        self.at.append(perf_counter())

    def maybe_probe(self):
        if not self.at or perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.probe()

    def time(self, fn, *args):
        """Run ``fn`` between probes; return its (start, end)."""
        self.maybe_probe()
        start = perf_counter()
        fn(*args)
        end = perf_counter()
        self.probe()
        return start, end

    def to_ref(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + PROBE_WINDOW_S)
        return (end - start) * self.ref_s / statistics.median(self.probes[lo:hi])

    def slowdown(self) -> float:
        return statistics.median(self.probes) / self.ref_s


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float,
            setup_repeats: int = SETUP_REPEATS, min_ops: int = MIN_OPS):
    """Untraced run: returns (end-to-end metrics, tally, report extras).

    Operations are taken from the stream until ``seconds`` have passed
    and at least ``min_ops`` ran. Timings are in reference seconds (see
    :class:`ProbeClock`); the raw wall-clock figures go to the report.
    """
    import workloads as wl

    spawn = ProbeClock(spawn_probe, SPAWN_PROBE_REF_S)
    setup_module = "countlim.cli" if workload == "cli_mix" else "countlim"
    setup = [spawn.time(time_python, f"import {setup_module}") for _ in range(setup_repeats)]
    clock = spawn if workload == "cli_mix" else ProbeClock(numpy_probe, NUMPY_PROBE_REF_S)
    tally = Tally()
    starts, ends = array("d"), array("d")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        ctx = wl.Context(wl.Oracle(), Path(tmp), wl.cli_subprocess(SRC))
        stream = wl.STREAMS[workload](seed, ctx)
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or tally.attempted < min_ops:
            op = next(stream)
            tally.start(op)
            clock.maybe_probe()
            starts.append(perf_counter())
            try:
                result = op.call()
            except Exception as err:  # a raising op is a failed op, never retried
                ends.append(perf_counter())
                tally.fail(err)
                continue
            ends.append(perf_counter())
            tally.check(op, result)
    clock.probe()
    ref = np.array([clock.to_ref(start, end) for start, end in zip(starts, ends)])
    raw = np.asarray(ends) - np.asarray(starts)
    who = resource.RUSAGE_CHILDREN if workload == "cli_mix" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": _metric(statistics.median(spawn.to_ref(*span) for span in setup), "s"),
        "op_s.p50": _metric(float(np.percentile(ref, 50)), "s"),
        "op_s.p75": _metric(float(np.percentile(ref, 75)), "s"),
        "limits_per_s": _metric(tally.limits / float(ref.sum()), "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "ok_frac": _metric((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    extras = {
        "op_samples": len(raw),
        "setup_module": setup_module,
        "probe_slowdown_p50": {"spawn": spawn.slowdown(), "ops": clock.slowdown()},
        "wall_clock": {
            "setup_s": statistics.median(end - start for start, end in setup),
            "op_s.p50": float(np.percentile(raw, 50)),
            "op_s.p75": float(np.percentile(raw, 75)),
            "limits_per_s": tally.limits / float(raw.sum()),
        },
    }
    return metrics, tally, extras


def measure_traced(workload: str, seed: int, n_ops: int | None = None,
                   import_repeats: int = IMPORT_REPEATS):
    """Traced run: returns (per-layer metrics, tally, report extras)."""
    import workloads as wl
    from tracer import Tracer

    imports_us = import_split(import_repeats)
    tracer = Tracer()
    tally = Tally()
    plain_s = traced_s = 0.0
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        ctx = wl.Context(wl.Oracle(), Path(tmp), wl.cli_in_process)
        stream = wl.STREAMS[workload](seed, ctx)
        for op_id in range(n_ops or TRACE_OPS[workload]):
            op = next(stream)
            tally.start(op)
            root = "cli" if op.kind.startswith("cli_") else "op"
            try:
                t0 = perf_counter()
                op.call()
                t1 = perf_counter()
                with tracer.installed(op_id):
                    t2 = perf_counter()
                    result = tracer.call(root, op.call)
                    t3 = perf_counter()
            except Exception as err:  # a raising op is a failed op, never retried
                tally.fail(err)
                continue
            plain_s += t1 - t0
            traced_s += t3 - t2
            tally.check(op, result)
    spans_path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    tracer.write(spans_path)
    metrics = tracer.layer_metrics()
    for pkg in IMPORT_PACKAGES:
        metrics[f"import.{pkg}_s"] = _metric(imports_us[pkg] / 1e6, "s")
    metrics["trace.overhead_frac"] = _metric(traced_s / plain_s - 1.0 if plain_s else 0.0, "ratio")
    extras = {"import_cumulative_us": imports_us, "absent_layers": sorted(tracer.absent),
              "spans_file": str(spans_path.relative_to(ROOT)), "untraced_s": plain_s,
              "traced_s": traced_s}
    return metrics, tally, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_mix", "exact_small", "toys_small", "large_count"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not sources_present():
        print(f"error: no countlim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace:
        metrics, tally, extras = measure_traced(args.workload, args.seed)
    else:
        metrics, tally, extras = measure(args.workload, args.seed, args.seconds)
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), **tally.report(), **extras,
              "metrics": metrics}
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
