"""Array route against scalar twins: the cost ratio behind ``special._NARROW_LANES``.

For each kernel, count n and width w, times one call on w Gauss-Hermite-like
lanes, x_i = c 1.2^eta_i with eta_i the nodes of the w-point rule and c =
n + 1 + 2 sqrt(n + 1), near where a limit's solve evaluates, as the
criteria call it (the value with the pmf its route hands back), once through
the array route and once lane by lane through the scalar twin, and prints
the ratio of the two times (best of ``--rounds`` rounds of ``--calls``
calls each): below 1 the array route is cheaper. Then the median of each
width's column, and the width whose median is nearest 1: the crossover on
these synthetic lanes. It does not set ``special._NARROW_LANES`` alone:
the benchmark's own ``toys_small`` calls, timed with every array wide,
are what keep it at 20 (README). Run from the repository root:

    python3 tools/kernel_crossover.py [--counts 0,5,30] [--widths 8,24,48] [--calls 100] [--rounds 7]
"""

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from countlim import special  # noqa: E402

KERNELS = {"poisson_cdf": special._poisson_cdf_pmf, "gamma_q": lambda n, x: special._gamma_q_pmf(n + 1.0, x)}


def lanes(n: int, width: int) -> np.ndarray:
    eta = np.polynomial.hermite_e.hermegauss(width)[0]
    return (n + 1.0 + 2.0 * np.sqrt(n + 1.0)) * 1.2**eta


def cost_ratio(kernel, n: int, x: np.ndarray, calls: int, rounds: int) -> float:
    """Best time per call through the array route over best time lane by
    lane through the scalar twin, in alternating rounds."""
    best = {}
    for _ in range(rounds):
        for narrow in (0, x.size):  # the array route, then the scalar twin
            special._NARROW_LANES = narrow
            kernel(n, x)  # tables and caches built outside the timing
            start = time.perf_counter()
            for _ in range(calls):
                kernel(n, x)
            best[narrow] = min(best.get(narrow, math.inf), time.perf_counter() - start)
    return best[0] / best[x.size]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counts", default="0,1,2,3,5,8,10,15,20,25,30")
    parser.add_argument("--widths", default="8,12,16,20,24,28,32,40,48")
    parser.add_argument("--calls", type=int, default=100)
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)
    counts = [int(c) for c in args.counts.split(",")]
    widths = [int(w) for w in args.widths.split(",")]
    default = special._NARROW_LANES
    print("kernel       count " + "".join(f"{w:>7}" for w in widths))
    columns = [[] for _ in widths]
    try:  # cost_ratio sets special._NARROW_LANES: restored however the table ends
        for name, kernel in KERNELS.items():
            for n in counts:
                ratios = [cost_ratio(kernel, n, lanes(n, w), args.calls, args.rounds) for w in widths]
                for column, ratio in zip(columns, ratios):
                    column.append(ratio)
                print(f"{name:<12} {n:>5} " + "".join(f"{r:>7.2f}" for r in ratios))
    finally:
        special._NARROW_LANES = default
    medians = [statistics.median(c) for c in columns]
    print("median" + " " * 13 + "".join(f"{m:>7.2f}" for m in medians))
    width, median = min(zip(widths, medians), key=lambda wm: abs(math.log(wm[1])))
    print(f"the median ratio nearest 1, where the two cost the same: {median:.2f} at {width} lanes")


if __name__ == "__main__":
    main()
