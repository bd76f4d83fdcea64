"""Per-layer self times from a span list, by interval nesting.

A span's *self* time is its duration minus the part of that interval
its direct children cover.  Subtracting per-name totals instead would
count a nested ``scan.sum_scan`` against both ``lb.match`` and the pass
that contains them; nesting charges it once, to the span it ran in.
"""

from __future__ import annotations

#: Slack when deciding that one span ended before the next began: both
#: ends are differences of ``perf_counter`` reads, so siblings can
#: overlap by a rounding error.
_EPS = 1e-9

#: The harness's own root span around one whole pass; its self time is
#: what no layer's span covers.
ROOT_SPAN = "harness.pass"


def self_times(spans) -> dict[str, list[float]]:
    """``name -> [calls, self_seconds]`` over ``(name, cat, start, dur)``
    spans of one thread.

    A span whose recording was dropped simply leaves its time in its
    parent's self time, so the self times always add up to the covered
    wall time.
    """
    out: dict[str, list[float]] = {}
    stack: list[list] = []  # [end, name, dur, covered-by-children]

    def close(frame: list) -> None:
        agg = out.setdefault(frame[1], [0, 0.0])
        agg[0] += 1
        agg[1] += max(0.0, frame[2] - frame[3])

    for name, _cat, start, dur in sorted(spans, key=lambda s: (s[2], -s[3])):
        while stack and stack[-1][0] <= start + _EPS:
            close(stack.pop())
        end = start + dur
        if stack:
            stack[-1][3] += max(0.0, min(end, stack[-1][0]) - start)
        stack.append([end, name, dur, 0.0])
    while stack:
        close(stack.pop())
    return out


def attribute(spans, wall_s: float, tolerance: float = 0.02) -> tuple[dict, float]:
    """Self seconds per span name plus the unattributed share of
    ``wall_s`` (the root span's self time and whatever lies outside it).

    Raises ``ValueError`` when the self times and the unattributed time
    do not add up to ``wall_s`` within ``tolerance`` — overlapping spans
    from another thread, or a clock that jumped.
    """
    selfs = self_times(spans)
    root = selfs.pop(ROOT_SPAN, [0, 0.0])
    attributed = sum(s for _, s in selfs.values())
    total = attributed + root[1]
    if abs(total - wall_s) > tolerance * wall_s:
        raise ValueError(
            f"layer self times ({attributed:.4f}s) + unattributed "
            f"({root[1]:.4f}s) differ from the traced wall ({wall_s:.4f}s) "
            f"by more than {tolerance:.0%}"
        )
    return selfs, (wall_s - attributed) / wall_s
