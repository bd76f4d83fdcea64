import pytest

import tracing


def span(name, start, dur):
    return (name, "test", start, dur)


def test_nested_child_time_is_charged_once_to_its_direct_parent():
    # pass [0,10] > match [1,5] > scan [2,3]; subtracting per-name totals
    # would take the scan out of both the match and the pass.
    selfs = tracing.self_times([
        span("scan", 2.0, 1.0), span("match", 1.0, 4.0), span("pass", 0.0, 10.0),
    ])
    assert selfs == {"scan": [1, 1.0], "match": [1, 3.0], "pass": [1, 6.0]}


def test_siblings_are_not_nested_even_when_they_touch():
    selfs = tracing.self_times([
        span("pass", 0.0, 10.0), span("a", 0.0, 4.0), span("a", 4.0, 4.0),
        span("b", 8.0, 2.0),
    ])
    assert selfs["a"] == [2, 8.0]
    assert selfs["b"] == [1, 2.0]
    assert selfs["pass"][1] == pytest.approx(0.0)


def test_a_dropped_span_leaves_its_time_with_its_parent():
    full = [span("pass", 0.0, 10.0), span("match", 1.0, 4.0), span("scan", 2.0, 1.0)]
    dropped = [s for s in full if s[0] != "match"]
    selfs = tracing.self_times(dropped)
    assert selfs == {"scan": [1, 1.0], "pass": [1, 9.0]}
    assert sum(s for _, s in selfs.values()) == 10.0


def test_attribute_splits_the_root_span_off_as_unattributed():
    spans = [span(tracing.ROOT_SPAN, 0.0, 10.0), span("layer", 1.0, 8.0)]
    selfs, unattributed = tracing.attribute(spans, wall_s=10.0)
    assert selfs == {"layer": [1, 8.0]}
    assert unattributed == pytest.approx(0.2)


def test_attribute_refuses_spans_that_do_not_add_up_to_the_wall():
    spans = [span(tracing.ROOT_SPAN, 0.0, 10.0), span("layer", 1.0, 8.0)]
    with pytest.raises(ValueError, match="differ from the traced wall"):
        tracing.attribute(spans, wall_s=12.0)
