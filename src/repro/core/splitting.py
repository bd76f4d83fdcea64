"""Alpha-splitting work-donation policies (Section 3).

The paper's single assumption about work splitting: when work ``w`` is cut
into ``alpha*w`` and ``(1-alpha)*w``, there is a constant ``alpha_0 > 0``
with ``alpha_0 < alpha < 1 - alpha_0``.  Splitters here produce the
*donated* amount for a vector of donor work counts; all guarantee that for
``w >= 2`` both pieces are non-empty and the alpha bound holds (up to
integer rounding, which can only pull a piece *toward* the interior).

The real search engine does not use these — it donates the node at the
bottom of the DFS stack (Section 5); these splitters parameterize the
abstract workloads and the Equation 18 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_probability

__all__ = [
    "WorkSplitter",
    "AlphaSplitter",
    "HalfSplitter",
    "FixedFractionSplitter",
    "UnitSplitter",
]


def _donors(w: np.ndarray) -> np.ndarray:
    """``w`` as an array, once every donor is known to hold >= 2 nodes."""
    w = np.asarray(w)
    if len(w) and w.min() < 2:
        raise ValueError("all donors must hold at least 2 nodes to split")
    return w


@dataclass(frozen=True)
class WorkSplitter:
    """Base splitting policy.

    Attributes
    ----------
    alpha_min:
        The paper's ``alpha_0``: guaranteed lower bound on the smaller
        fraction of any split.  Drives the Appendix A transfer bound
        ``V(P) * log_{1/(1-alpha_0)} W``.
    """

    alpha_min: float = 0.1

    def __post_init__(self) -> None:
        check_probability(self.alpha_min, "alpha_min", inclusive=False)
        if self.alpha_min > 0.5:
            raise ValueError(f"alpha_min must be <= 0.5, got {self.alpha_min}")

    def fractions(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Donated fractions for ``n`` simultaneous splits."""
        raise NotImplementedError

    def donation(self, w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Integer donated amounts for donor work counts ``w``.

        Every donor must hold ``w >= 2``; the donation ``d`` satisfies
        ``1 <= d <= w - 1``, so both pieces are non-empty.
        """
        w = _donors(w)
        frac = self.fractions(len(w), rng)
        d = np.rint(frac * w).astype(w.dtype)
        # np.clip(d, 1, w - 1), without its dispatch overhead.
        return np.minimum(np.maximum(d, 1), w - 1)


@dataclass(frozen=True)
class AlphaSplitter(WorkSplitter):
    """Donated fraction drawn uniformly from ``[alpha_min, alpha_max]``.

    The default ``[alpha_min, 0.5]`` models donating the smaller half of an
    unevenly split stack; widening ``alpha_max`` toward ``1 - alpha_min``
    models donating large bottom-of-stack subtrees.
    """

    alpha_max: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        check_probability(self.alpha_max, "alpha_max", inclusive=False)
        if not self.alpha_min <= self.alpha_max <= 1.0 - self.alpha_min:
            raise ValueError(
                f"alpha_max must lie in [alpha_min, 1 - alpha_min] = "
                f"[{self.alpha_min}, {1.0 - self.alpha_min}], got {self.alpha_max}"
            )

    def fractions(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.alpha_min, self.alpha_max, size=n)


@dataclass(frozen=True)
class HalfSplitter(WorkSplitter):
    """Ideal splitter: always donate exactly half (``alpha = 0.5``)."""

    def fractions(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, 0.5)


@dataclass(frozen=True)
class UnitSplitter(WorkSplitter):
    """Donate exactly one node per transfer — a *non*-alpha splitter.

    This deliberately violates the paper's alpha-splitting assumption: it
    models the first Frye-Myczkowski scheme, whose "poor splitting
    mechanism" (Section 8) gives each idle processor a single piece of
    work.  Every Appendix A bound fails under it, which the baseline
    benchmarks demonstrate.
    """

    def fractions(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise TypeError("UnitSplitter donates fixed amounts, not fractions")

    def donation(self, w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        w = _donors(w)
        return np.ones(len(w), dtype=w.dtype)


@dataclass(frozen=True)
class FixedFractionSplitter(WorkSplitter):
    """Always donate the fixed fraction ``fraction``.

    Used by ablations to study splitter quality: ``fraction`` near
    ``alpha_min`` gives the worst splits the paper's assumption allows.
    """

    fraction: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.alpha_min <= self.fraction <= 1.0 - self.alpha_min:
            raise ValueError(
                f"fraction must lie in [alpha_min, 1 - alpha_min], got {self.fraction}"
            )

    def fractions(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, self.fraction)
