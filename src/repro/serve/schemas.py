"""Request shapes, payload validation, and the job-lifecycle event.

The service accepts plain JSON dicts (the HTTP adapters pass request
bodies through verbatim), and this module is the single place they are
validated: :func:`parse_solve_request` / :func:`parse_grid_request`
either return a typed request dataclass or raise
:class:`~repro.errors.BadRequestError` — the HTTP layers map that to a
400 with the exception text, so every malformed payload gets the same
typed answer on every backend.

Validation reuses the library's own authorities instead of duplicating
them: scheme specs are checked by actually building the scheme
(:func:`~repro.core.config.make_scheme`, once per spelling), so
anything ``run_grid`` would accept is accepted here and nothing else —
and a request carries the built scheme's canonical name, not the
client's spelling, so ``GP-S0.5`` and ``GP-S0.50`` key the same cells.

:class:`JobEvent` is the serve layer's lifecycle record (queued /
started / finished / cache events), a registered
:class:`~repro.obs.events.TraceEvent` so job event streams interleave
cleanly with the scheduler's per-cycle events in one JSONL file and
round-trip through :func:`~repro.obs.events.read_jsonl_events`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import BadRequestError, ConfigError
from repro.obs.events import TraceEvent, register_event_type

__all__ = [
    "JobEvent",
    "SolveRequest",
    "GridRequest",
    "parse_solve_request",
    "parse_grid_request",
]

#: Upper bounds on one submission — a public service must refuse a
#: request that would pin a worker for hours before it starts running.
MAX_CELLS_PER_GRID = 4096
MAX_WORK_PER_CELL = 100_000_000
MAX_PES_PER_CELL = 1_000_000


@register_event_type
@dataclass(frozen=True)
class JobEvent(TraceEvent):
    """One job-lifecycle transition in a job's JSONL event stream.

    ``status`` is ``"queued"``, ``"started"``, ``"cache-hit"``,
    ``"finished"`` or ``"failed"``; ``cycle`` (inherited) carries the
    monotone per-job sequence number of the transition.
    """

    status: str = ""
    detail: str = ""

    kind = "job"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BadRequestError(message)


def _as_int(value: object, what: str) -> int:
    # bool subclasses int; a JSON true/false here is a client bug.
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{what} must be an integer, got {value!r}",
    )
    return value


@functools.lru_cache(maxsize=256)
def _build_scheme(spec: str) -> str:
    """Build ``spec``'s scheme and return its canonical name.
    ``make_scheme`` is pure, so a spelling that built once always
    builds: successes are memoised, and a spec that raises is tried
    (and refused) afresh every time."""
    from repro.core.config import make_scheme

    return make_scheme(spec).name


def _check_scheme(spec: object) -> str:
    _require(isinstance(spec, str), f"scheme must be a string, got {spec!r}")
    try:
        return _build_scheme(spec)
    except (ConfigError, ValueError) as exc:
        raise BadRequestError(f"unknown scheme spec {spec!r}: {exc}") from exc


def _check_cell(total_work: int, n_pes: int) -> None:
    _require(
        1 <= total_work <= MAX_WORK_PER_CELL,
        f"total_work must be in [1, {MAX_WORK_PER_CELL}], got {total_work}",
    )
    _require(
        1 <= n_pes <= MAX_PES_PER_CELL,
        f"n_pes must be in [1, {MAX_PES_PER_CELL}], got {n_pes}",
    )


@dataclass(frozen=True)
class SolveRequest:
    """``POST /solve``: one run of ``scheme`` over ``(total_work, n_pes)``.

    ``seed`` is the run's RNG seed verbatim (a solve is a single cell,
    so no grid-index seed derivation applies).
    """

    scheme: str
    total_work: int
    n_pes: int
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "total_work": self.total_work,
            "n_pes": self.n_pes,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class GridRequest:
    """``POST /grid``: the cross product ``schemes x works x pes``.

    Cells get their deterministic :func:`~repro.experiments.runner.
    cell_seed` from ``base_seed`` in scheme-major order — exactly what a
    direct ``run_grid`` call computes, which is what makes the cache key
    of every cell identical between the service and offline runs.
    """

    schemes: tuple[str, ...]
    works: tuple[int, ...]
    pes: tuple[int, ...]
    base_seed: int = 0

    def to_dict(self) -> dict:
        return {
            "schemes": list(self.schemes),
            "works": list(self.works),
            "pes": list(self.pes),
            "base_seed": self.base_seed,
        }


_SOLVE_KEYS = {"scheme", "total_work", "n_pes", "seed"}
_GRID_KEYS = {"schemes", "works", "pes", "base_seed"}


def _check_payload(payload: object, allowed: set[str], what: str) -> dict:
    _require(isinstance(payload, dict), f"{what} payload must be a JSON object")
    unknown = sorted(set(payload) - allowed)
    _require(not unknown, f"unknown {what} field(s): {', '.join(unknown)}")
    return payload


def parse_solve_request(payload: object) -> SolveRequest:
    """Validate a ``POST /solve`` body; raise ``BadRequestError`` on any
    defect (missing/unknown fields, wrong types, out-of-range sizes,
    unknown scheme spec)."""
    data = _check_payload(payload, _SOLVE_KEYS, "solve")
    _require("scheme" in data, "solve payload needs a 'scheme'")
    _require("total_work" in data, "solve payload needs a 'total_work'")
    _require("n_pes" in data, "solve payload needs an 'n_pes'")
    scheme = _check_scheme(data["scheme"])
    total_work = _as_int(data["total_work"], "total_work")
    n_pes = _as_int(data["n_pes"], "n_pes")
    seed = _as_int(data.get("seed", 0), "seed")
    _check_cell(total_work, n_pes)
    _require(seed >= 0, f"seed must be >= 0, got {seed}")
    return SolveRequest(scheme=scheme, total_work=total_work, n_pes=n_pes, seed=seed)


def _as_list(value: object, what: str) -> list:
    _require(
        isinstance(value, (list, tuple)) and len(value) > 0,
        f"{what} must be a non-empty list, got {value!r}",
    )
    return list(value)


def parse_grid_request(payload: object) -> GridRequest:
    """Validate a ``POST /grid`` body; raise ``BadRequestError`` on any
    defect, including a cross product larger than
    :data:`MAX_CELLS_PER_GRID` cells."""
    data = _check_payload(payload, _GRID_KEYS, "grid")
    for field in ("schemes", "works", "pes"):
        _require(field in data, f"grid payload needs '{field}'")
    schemes = tuple(_check_scheme(s) for s in _as_list(data["schemes"], "schemes"))
    works = tuple(_as_int(w, "works entry") for w in _as_list(data["works"], "works"))
    pes = tuple(_as_int(p, "pes entry") for p in _as_list(data["pes"], "pes"))
    base_seed = _as_int(data.get("base_seed", 0), "base_seed")
    _require(base_seed >= 0, f"base_seed must be >= 0, got {base_seed}")
    for w in works:
        for p in pes:
            _check_cell(w, p)
    n_cells = len(schemes) * len(works) * len(pes)
    _require(
        n_cells <= MAX_CELLS_PER_GRID,
        f"grid has {n_cells} cells; the limit is {MAX_CELLS_PER_GRID}",
    )
    return GridRequest(schemes=schemes, works=works, pes=pes, base_seed=base_seed)
