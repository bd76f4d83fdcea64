#!/usr/bin/env python3
"""Compare full benchmark reports (``run.py --out``): ``A`` is the base,
``B`` the candidate.

    compare.py A.json B.json
    compare.py A1.json A2.json ... --vs B1.json B2.json ...

One row per workload and end-to-end metric, with both medians, their
quartiles, the ratio B/A and a verdict against the metric's bound in
``BENCHMARK.json``:

- ``worse``        B's median is worse than A's by more than the bound;
- ``unresolved``   a side's own spread is wider than the bound, so the
                   bound cannot be tested — not the same as unchanged;
- ``better``       B is better than A by more than A's own spread;
- ``within-bound`` otherwise.

With four or more reports a side, the median, quartiles and spread are
taken over the runs — the run-to-run spread a claim has to beat.  With
fewer, they come from inside the one run, and the spread is the
inter-quartile distance over the median and over the root of the sample
count: how far that run's own median could be off, which says nothing of
how another process on the same host would differ.

Simulated statistics and ``sim_digest`` must be *equal* for one seed: a
change that only makes the simulator faster leaves them bit-identical.

Exit code 1 on any ``worse``, any simulated difference, or any rise in
``ops_failed / ops_attempted``; 2 on unreadable or mismatched reports.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import spec

#: Bound of the serve workloads' tail latency (reported beside the
#: end-to-end metrics when enough requests completed to support it).
TAIL_BOUND = 0.25


#: From this many reports a side, statistics are taken over the runs.
MIN_RUNS = 4


def across_runs(runs: list[dict]) -> dict:
    """One metric of several runs as one ``{value, q1, q3, n, spread}``."""
    if len(runs) >= MIN_RUNS:
        values = [m["value"] for m in runs]
        q1, value, q3 = statistics.quantiles(values, n=4)
        return {"value": value, "q1": q1, "q3": q3, "n": len(values),
                "spread": (q3 - q1) / value}
    m = runs[0]
    return {**m, "spread": (m["q3"] - m["q1"]) / m["value"] / m.get("n", 1) ** 0.5}


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """The verdict for one metric and B's worsening as a share of A."""
    worsening = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        worsening = -worsening
    spread_a, spread_b = a["spread"], b["spread"]
    if max(spread_a, spread_b) > bound:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < 0 and -worsening > spread_a:
        return "better", worsening
    return "within-bound", worsening


def _cell(m: dict) -> str:
    if m.get("n", 1) > 1:
        return f"{m['value']:.5g} [{m['q1']:.5g}..{m['q3']:.5g}]"
    return f"{m['value']:.5g}"


def compare(a: list[dict], b: list[dict], contract: dict) -> tuple[list[str], bool]:
    """The table's lines, and whether anything calls for exit code 1.
    ``a`` and ``b`` are each side's reports, one per run."""
    lines, bad = [], False
    header = f"{'workload':<12} {'metric':<16} {'A':>30} {'B':>30} {'B/A':>8}  verdict"
    lines += [header, "-" * len(header)]
    for name in spec.workload_names(contract):
        wa = [r["workloads"][name] for r in a if name in r["workloads"]]
        wb = [r["workloads"][name] for r in b if name in r["workloads"]]
        if not wa or not wb:
            lines.append(f"{name:<12} missing from {'A' if not wa else 'B'}")
            continue
        rows = [
            (m["name"], [w["e2e"][m["name"]] for w in wa],
             [w["e2e"][m["name"]] for w in wb], m["better"], m["bound"])
            for m in contract["end_to_end"]
        ]
        tails = {w["tail"]["percentile"] if w.get("tail") else None for w in wa + wb}
        if len(tails) == 1 and None not in tails:
            rows.append((f"solve_p{tails.pop()}_ms", [w["tail"] for w in wa],
                         [w["tail"] for w in wb], "lower", TAIL_BOUND))
        for metric, runs_a, runs_b, better, bound in rows:
            ma, mb = across_runs(runs_a), across_runs(runs_b)
            what, _ = verdict(ma, mb, better, bound)
            bad |= what == "worse"
            lines.append(
                f"{name:<12} {metric:<16} {_cell(ma):>30} {_cell(mb):>30} "
                f"{mb['value'] / ma['value']:>8.3f}  {what} (bound {bound:g}, "
                f"{better} is better)"
            )
        sims = {json.dumps([w["sim"], w["sim_digest"]], sort_keys=True) for w in wa + wb}
        bad |= len(sims) > 1
        lines.append(
            f"{name:<12} {'sim_* + digest':<16} {wa[0]['sim_digest'][:12]:>30} "
            f"{wb[0]['sim_digest'][:12]:>30} {'':>8}  "
            f"{'identical' if len(sims) == 1 else 'DIFFERS'}"
        )
        failed_a, tried_a = (sum(w[k] for w in wa) for k in ("ops_failed", "ops_attempted"))
        failed_b, tried_b = (sum(w[k] for w in wb) for k in ("ops_failed", "ops_attempted"))
        rose = failed_b / tried_b > failed_a / tried_a
        bad |= rose
        lines.append(
            f"{name:<12} {'ops_failed':<16} "
            f"{failed_a:>19} of {tried_a:<7} {failed_b:>19} of {tried_b:<7} {'':>8}  "
            f"{'ROSE' if rose else 'ok'}"
        )
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--vs" in argv:
        split = argv.index("--vs")
        paths_a, paths_b = argv[:split], argv[split + 1:]
    else:
        paths_a, paths_b = argv[:1], argv[1:]
    if not paths_a or not paths_b or ("--vs" not in argv and len(argv) != 2):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        a = [json.loads(Path(path).read_text()) for path in paths_a]
        b = [json.loads(Path(path).read_text()) for path in paths_b]
        if len({(r["schema"], r["seed"], r["seconds"]) for r in a + b}) != 1:
            raise ValueError(
                "reports differ in schema, seed or run length; compare "
                "like with like"
            )
        lines, bad = compare(a, b, spec.load_contract())
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"A = {' '.join(paths_a)}   B = {' '.join(paths_b)}   "
          f"seed {a[0]['seed']}, {a[0]['seconds']:g}s per run")
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
