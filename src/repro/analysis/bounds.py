"""Transfer-count bounds (Appendices A and B) and the D_K guarantee.

Appendix A: with alpha-splitting, after ``V(P)`` transfers every
processor's largest piece shrinks by at least ``(1 - alpha)``; hence the
total number of transfers is at most ``V(P) * log_{1/(1-alpha)} W``.

Appendix B / Section 4.1: the phase bound ``V(P)`` — how many LB phases
until every busy processor has shared work at least once — is
``ceil(1/(1-x))`` for GP and ``(log W)^{(2x-1)/(1-x)}`` for nGP when
``x > 0.5`` (both are 1 when ``x <= 0.5``).

Section 6.2: the D_K trigger's idling-plus-balancing overhead is within a
factor 2 of the optimal static trigger's.
"""

from __future__ import annotations

import math

from repro.core.metrics import RunMetrics
from repro.util.validation import check_probability, check_positive

__all__ = [
    "work_log",
    "transfers_upper_bound",
    "v_bound_gp",
    "v_bound_ngp",
    "dk_overhead_within_bound",
]


def work_log(total_work: float, alpha: float) -> float:
    """``log_{1/(1-alpha)} W`` — the depth of the alpha-splitting cascade.

    The number of successive splits needed to reduce a piece of work of
    size ``W`` below one node when each split removes at least an
    ``alpha`` fraction.
    """
    check_positive(total_work, "total_work")
    check_probability(alpha, "alpha", inclusive=False)
    return math.log(total_work) / math.log(1.0 / (1.0 - alpha))


def v_bound_gp(x: float) -> int:
    """GP phase bound: ``V(P) = ceil(1/(1-x))`` (Section 4.1).

    The global pointer rotates donors, so after that many phases every
    block of ``(1-x) P`` busy processors has donated.
    """
    check_probability(x, "x")
    if x >= 1.0:
        raise ValueError("x must be < 1 for the GP bound to be finite")
    # Round away float noise (1/(1-0.9) = 10.000000000000002) before the
    # ceiling, so exact reciprocals stay exact.
    return math.ceil(round(1.0 / (1.0 - x), 9))


def v_bound_ngp(x: float, total_work: float, *, alpha: float = 0.5) -> float:
    """nGP phase bound: ``(log W)^{(2x-1)/(1-x)}`` for ``x > 0.5``.

    For ``x <= 0.5`` every busy processor donates in every phase, so the
    bound is 1 (Section 4.2).  The logarithm base is the alpha-splitting
    base of Appendix A.
    """
    check_probability(x, "x")
    if x <= 0.5:
        return 1.0
    if x >= 1.0:
        raise ValueError("x must be < 1 for the nGP bound to be finite")
    exponent = (2.0 * x - 1.0) / (1.0 - x)
    return max(1.0, work_log(total_work, alpha)) ** exponent


def transfers_upper_bound(
    v_of_p: float, total_work: float, *, alpha: float
) -> float:
    """Appendix A: total transfers ``<= V(P) * log_{1/(1-alpha)} W``."""
    check_positive(v_of_p, "v_of_p")
    return v_of_p * work_log(total_work, alpha)


def dk_overhead_within_bound(
    dk: RunMetrics, optimal_static: RunMetrics, *, factor: float = 2.0, slack: float = 0.0
) -> bool:
    """Section 6.2: ``T_idle + T_lb`` under D_K is within ``factor`` of
    the optimal static trigger's.

    ``slack`` (processor-seconds) covers the discreteness of real runs —
    the proof's interpolated triggering functions ignore the one-cycle
    granularity of actual triggering.
    """
    dk_overhead = dk.ledger.t_idle + dk.ledger.t_lb
    opt_overhead = optimal_static.ledger.t_idle + optimal_static.ledger.t_lb
    return dk_overhead <= factor * opt_overhead + slack
