#!/usr/bin/env python3
"""Where a pooled grid starts to pay: the crossover behind POOL_THRESHOLD.

Times ``run_grid`` over the reference grid shape (the six Table 1
schemes x 3 W x P in {256, 512}) with every W scaled by one factor, so
the predicted cost (sum of W/P) sweeps from a few hundred to the full
grid's 22 128.  Each point runs the cells in one in-process arena
(``n_jobs=1``) and as cost-cut shards on a fork pool of one
worker per usable CPU, alternating which goes first, and prints the
median wall time of each::

    PYTHONPATH=src python3 benchmarks/pool_crossover.py [--reps 7]

``repro.experiments.runner.POOL_THRESHOLD`` is set near the smallest
cost from which the pool wins at this and every larger point.
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro import PAPER_SCHEMES, SMALL_SCALE, run_grid
from repro.experiments.runner import _predicted_cost, _usable_cpus, plan_grid

SCHEMES = list(PAPER_SCHEMES)
PES = [256, 512]
SCALES = (1 / 64, 1 / 32, 1 / 16, 1 / 8, 3 / 16, 1 / 4, 5 / 16, 3 / 8, 1 / 2, 1)


def _time(works: list[int], seed: int, **kwargs) -> tuple[float, list]:
    t0 = time.perf_counter()
    records = run_grid(SCHEMES, works, PES, base_seed=seed, **kwargs)
    return time.perf_counter() - t0, records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args()
    workers = _usable_cpus()
    if workers < 2:
        print("one usable CPU: a pool cannot pay here")
        return 1
    print(f"{workers} workers; median of {args.reps} alternating pairs")
    print(f"{'scale':>6} {'sum W/P':>8} {'in-proc ms':>10} {'pooled ms':>10} {'ratio':>6}")
    for scale in SCALES:
        works = [max(1, round(w * scale)) for w in SMALL_SCALE.works[:3]]
        cost = _predicted_cost(plan_grid(SCHEMES, works, PES))
        inproc, pooled = [], []
        for rep in range(args.reps + 1):  # rep 0 is an untimed warm-up
            runs = [("inproc", {"n_jobs": 1}), ("pooled", {"n_jobs": workers})]
            if rep % 2:
                runs.reverse()
            out = {}
            for name, kwargs in runs:
                dt, out[name] = _time(works, rep, **kwargs)
                if rep:
                    (inproc if name == "inproc" else pooled).append(dt)
            assert out["inproc"] == out["pooled"], "pooled records differ"
        a, b = statistics.median(inproc), statistics.median(pooled)
        print(f"{scale:6.3f} {cost:8.0f} {a * 1e3:10.1f} {b * 1e3:10.1f} {a / b:6.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
