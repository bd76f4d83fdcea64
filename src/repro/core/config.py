"""Scheme registry and spec parser (Table 1).

A *scheme* is a (matching, triggering, transfer-multiplicity) combination.
The paper studies six:

    nGP-S^x, nGP-D_P, nGP-D_K, GP-S^x, GP-D_P, GP-D_K

with D_P always using multiple work transfers per LB phase.  Specs are
strings like ``"GP-S0.90"``, ``"nGP-DP"``, ``"GP-DK"``; static schemes
embed their threshold.  :data:`PAPER_SCHEMES` lists Table 1 verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.matching import GPMatcher, Matcher, NGPMatcher
from repro.core.triggering import DKTrigger, DPTrigger, StaticTrigger, Trigger

__all__ = [
    "Scheme",
    "parse_scheme_spec",
    "threshold_text",
    "make_scheme",
    "PAPER_SCHEMES",
]


@dataclass(frozen=True)
class Scheme:
    """A named load-balancing scheme: factories keep runs independent."""

    name: str
    matcher_factory: Callable[[], Matcher]
    trigger_factory: Callable[[float], Trigger]
    multiple_transfers: bool

    def build(self, initial_lb_cost: float) -> tuple[Matcher, Trigger]:
        """Instantiate fresh matcher/trigger state for one run.

        ``initial_lb_cost`` seeds the ``L`` estimate of dynamic triggers;
        static triggers ignore it.
        """
        return self.matcher_factory(), self.trigger_factory(initial_lb_cost)


def parse_scheme_spec(spec: str) -> tuple[str, str, float | None]:
    """Split ``"GP-S0.90"`` into (matcher, trigger-kind, static threshold).

    Returns ``(matching, trigger, x)`` with ``trigger`` one of ``"S"``,
    ``"DP"``, ``"DK"`` and ``x`` set only for static schemes.
    """
    parts = spec.split("-", 1)
    if len(parts) != 2:
        raise ValueError(f"scheme spec must look like 'GP-S0.9' or 'nGP-DK': {spec!r}")
    matching, trig = parts
    if matching not in ("GP", "nGP"):
        raise ValueError(f"unknown matching scheme {matching!r} (want 'GP' or 'nGP')")
    if trig in ("DP", "DK"):
        return matching, trig, None
    if trig.startswith("S"):
        try:
            x = float(trig[1:])
        except ValueError:
            raise ValueError(f"bad static threshold in scheme spec {spec!r}") from None
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"static threshold must be in [0, 1], got {x}")
        return matching, "S", x
    raise ValueError(f"unknown trigger {trig!r} in scheme spec {spec!r}")


def threshold_text(x: float) -> str:
    """A static threshold as it appears in a scheme name: two decimals
    when they read back as ``x`` exactly, else the shortest ``repr``.

    A scheme's name is its identity — pool workers rebuild the scheme
    from it and cell keys hash it — so it must parse back to the very
    threshold it was built with (``0.745`` is not ``0.74``).
    """
    text = f"{x:.2f}"
    return text if float(text) == x else repr(x)


def make_scheme(spec: str) -> Scheme:
    """Build a :class:`Scheme` from a spec string like ``"nGP-DP"``."""
    matching, trig, x = parse_scheme_spec(spec)
    matcher_factory = GPMatcher if matching == "GP" else NGPMatcher
    if trig == "S":
        threshold = x

        def trigger_factory(initial_lb_cost: float, _x: float = threshold) -> Trigger:
            return StaticTrigger(x=_x)

        name = f"{matching}-S{threshold_text(threshold)}"
        multiple = False
    elif trig == "DP":

        def trigger_factory(initial_lb_cost: float) -> Trigger:
            return DPTrigger(initial_lb_cost=initial_lb_cost)

        name = f"{matching}-DP"
        multiple = True
    else:

        def trigger_factory(initial_lb_cost: float) -> Trigger:
            return DKTrigger(initial_lb_cost=initial_lb_cost)

        name = f"{matching}-DK"
        multiple = False

    return Scheme(
        name=name,
        matcher_factory=matcher_factory,
        trigger_factory=trigger_factory,
        multiple_transfers=multiple,
    )


#: Table 1 of the paper: the six studied schemes (static ones shown at the
#: paper's reference threshold x = 0.75; any x is accepted by make_scheme).
PAPER_SCHEMES: tuple[str, ...] = (
    "nGP-S0.75",
    "nGP-DP",
    "nGP-DK",
    "GP-S0.75",
    "GP-DP",
    "GP-DK",
)
