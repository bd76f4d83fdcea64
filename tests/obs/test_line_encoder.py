"""Each event class's line template writes what ``json.dumps`` writes.

``TraceEvent.to_jsonl`` formats a line from a per-class template and
falls back to ``json.dumps`` for any value the template cannot write.
The property: for every registered event kind and any field values —
escapes, non-ASCII text, signed zeros, non-finite floats, ints past
64 bits, bools and numpy scalars — the line is byte for byte the
``json.dumps`` line, or both refuse the value alike.
"""

import json
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.schemas  # noqa: F401 - registers JobEvent
from repro.core.config import PAPER_SCHEMES
from repro.experiments.runner import run_divisible
from repro.obs import JsonlSink, Observability, RingBufferSink
from repro.obs.events import _EVENT_TYPES


def _json_line(event):
    return json.dumps(event.to_dict(), separators=(",", ":")) + "\n"


def _outcome(render, event):
    try:
        return render(event)
    except TypeError as exc:  # a numpy int: json refuses it, so must the template
        return ("TypeError", str(exc))


TEXT = st.text(
    st.characters(codec="utf-8", exclude_categories=("Cs",))
    | st.sampled_from('"\\/\x00\x1f\x7f é€😀')
)
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 1e-320, 1e308]
)
INTS = st.integers() | st.integers(2**63 - 2, 2**70) | st.integers(-(2**70), -(2**63))
# Values only the json fallback writes (or refuses), in any field.
ODD = st.sampled_from(
    [True, False, np.int64(7), np.float64(0.5), np.float32(1.25), np.bool_(True)]
)
BY_TYPE = {int: INTS, float: FLOATS, str: TEXT}


def _event_strategy(cls):
    hints = typing.get_type_hints(cls)
    names = list(cls.__dataclass_fields__)
    fields = {
        name: (
            st.one_of(BY_TYPE[hints[name]], ODD) if hints[name] is not str else TEXT
        )
        for name in names
    }
    return st.builds(cls, **fields)


KINDS = sorted(_EVENT_TYPES)


def test_every_kind_is_covered():
    assert {"cycle", "lb", "iteration", "job"} <= set(KINDS)
    for kind in KINDS:
        hints = typing.get_type_hints(_EVENT_TYPES[kind])
        assert all(hints[n] in BY_TYPE for n in _EVENT_TYPES[kind].__dataclass_fields__)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_template_line_equals_json_line(kind, data):
    event = data.draw(_event_strategy(_EVENT_TYPES[kind]))
    assert _outcome(lambda e: e.to_jsonl(), event) == _outcome(_json_line, event)


@pytest.mark.parametrize(
    "value",
    [True, np.int64(3), np.float64(0.5), float("nan"), float("-inf"), -0.0, 2**64 + 1],
    ids=["bool", "np-int", "np-float", "nan", "-inf", "neg-zero", "big-int"],
)
@pytest.mark.parametrize("field", ["busy", "r1"])
def test_edge_values_in_int_and_float_fields(field, value):
    cls = _EVENT_TYPES["cycle"]
    values = {"cycle": 1, "busy": 2, "expanding": 3, "r1": 0.5, "r2": 0.25}
    event = cls(**{**values, field: value})
    assert _outcome(lambda e: e.to_jsonl(), event) == _outcome(_json_line, event)


def test_job_detail_escapes():
    cls = _EVENT_TYPES["job"]
    event = cls(cycle=0, status="failed", detail='say "hi"\n\t\x01 naïve ✓ 😀')
    assert event.to_jsonl() == _json_line(event)
    assert event.to_jsonl().isascii()


@pytest.mark.parametrize("scheme", PAPER_SCHEMES)
def test_streamed_file_equals_json_of_ring_events(tmp_path, scheme):
    """Six Table 1 runs, sanitized: the JsonlSink file is the ring
    buffer's events through ``json.dumps``, byte for byte."""
    path = tmp_path / "events.jsonl"
    sink = JsonlSink(path)
    run_divisible(
        scheme, 6000, 64, seed=3, sanitize=True, obs=Observability(events=sink)
    )
    sink.close()
    ring = RingBufferSink(maxlen=None)
    run_divisible(
        scheme, 6000, 64, seed=3, sanitize=True, obs=Observability(events=ring)
    )
    assert len(ring) > 0
    assert path.read_bytes() == "".join(map(_json_line, ring)).encode("ascii")
