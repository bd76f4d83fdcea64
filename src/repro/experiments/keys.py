"""Content-addressed identity of a grid cell's record.

Each cell of the paper's sweeps (Tables 2-6; Table 5 again at 12x and
16x LB cost) is a pure function of its
:class:`~repro.experiments.batched.CellPlan` under a given build of the
code, so :func:`plan_key` — a hash of every record-determining plan
field — is all ``run_grid(store=...)`` and the service's cache need to
publish a record once and take it back bit-identically
(:func:`repro.experiments.store.record_to_dict` round-trips floats).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from typing import TYPE_CHECKING

from repro.core.config import Scheme, make_scheme
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.batched import CellPlan

__all__ = ["code_version", "plan_key", "scheme_name"]


@functools.cache
def code_version() -> str:
    """The code identity folded into every :func:`plan_key`: the package
    and record schema versions, so a code change that could alter
    records makes stale cells recompute instead of resume."""
    from repro import __version__
    from repro.experiments.store import SCHEMA_VERSION

    return f"repro-{__version__}+records-v{SCHEMA_VERSION}"


def plan_key(plan: "CellPlan") -> str:
    """A SHA-256 hex digest of a canonical text of every field of
    ``plan`` but ``index`` (where the cell sits in its grid), plus
    :func:`code_version`.  Executor, shard layout, retries and
    observability are record-invariant, so that is the whole cell.

    Raises :class:`~repro.errors.ConfigError` for a scheme that
    ``make_scheme`` cannot rebuild: its name does not say what it runs.
    """
    text = _fields_text(plan, skip="index")
    return hashlib.sha256(f"{text}|{code_version()}".encode()).hexdigest()


def _fields_text(value: object, skip: str = "") -> str:
    return ",".join(
        f"{field.name}={_text(getattr(value, field.name))}"
        for field in dataclasses.fields(value)  # type: ignore[arg-type]
        if field.name != skip
    )


def _text(value: object) -> str:
    """Equal values, one text; unequal values, different texts."""
    if isinstance(value, float):
        if math.isfinite(value) and value.is_integer():
            return str(int(value))  # 12.0 computes what 12 does
        return value.hex()
    if value is None or isinstance(value, (int, str)):
        return repr(value)
    if isinstance(value, Scheme):
        return scheme_name(value.name)
    return _frozen_text(value)


@functools.lru_cache(maxsize=64)
def _frozen_text(value: object) -> str:
    """A frozen dataclass (cost model, topology): type name and fields."""
    return f"{type(value).__qualname__}({_fields_text(value)})"


@functools.lru_cache(maxsize=256)
def scheme_name(name: str) -> str:
    """The name of the scheme ``make_scheme(name)`` builds (``GP-S0.5`` is
    ``GP-S0.50``); :class:`~repro.errors.ConfigError` if it builds none."""
    try:
        return make_scheme(name).name
    except ValueError:
        raise ConfigError(
            f"scheme {name!r} cannot be rebuilt from its name: run it "
            "serially and without a store"
        ) from None
