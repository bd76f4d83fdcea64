"""Hypothesis fuzz: ``WindowArena`` against a list-of-lists model.

Both workloads' row shapes — the stack model's one int64 per entry and
the search's two (a packed board word plus its info word) — run random
interleavings of every arena operation, including empty push segments.
Arenas start at capacity 1-2, so compaction after donations and
doubling both fire.
After every step each PE's window must equal the model's list, entry for
entry on every plane.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simd.arena import WindowArena

STACK_ROWS = (((), np.int64),)
SEARCH_ROWS = (((), np.int64), ((), np.int64))

OPS = ("push", "pop", "donate", "take", "inject", "reset", "reserve")


def _encode(rows, ids):
    """One array per plane for the entries ``ids``; every element of an
    entry derives from its id, so a misplaced row shows on every plane."""
    ids = np.asarray(ids, dtype=np.int64)
    planes = []
    for shape, dtype in rows:
        cols = np.arange(int(np.prod(shape)), dtype=np.int64)
        values = (ids[:, None] * 16 + cols) % np.iinfo(dtype).max
        planes.append(values.reshape(len(ids), *shape).astype(dtype))
    return tuple(planes)


def _same(got, want):
    return len(got) == len(want) and all(
        g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want)
    )


def _check(arena, rows, model, capacity0):
    assert arena.counts().tolist() == [len(ids) for ids in model]
    assert (arena.bottom >= 0).all() and (arena.top <= arena.capacity).all()
    growth = arena.capacity // capacity0
    assert arena.capacity == capacity0 * growth and growth & (growth - 1) == 0
    for pe, ids in enumerate(model):
        assert _same(arena.window(pe), _encode(rows, ids)), pe


def _pes(values):
    return np.array(values, dtype=np.int64)


def _draw_lens(data, n, most):
    """``n`` segment lengths in ``0..most`` (zeros are empty segments)."""
    return _pes(data.draw(st.lists(st.integers(0, most), min_size=n, max_size=n)))


@pytest.mark.parametrize("rows", [STACK_ROWS, SEARCH_ROWS], ids=["stack", "search"])
def test_donation_writes_only_its_receivers(rows):
    """Receivers above a non-empty PE whose window starts at slot 0: a
    donation that wrote PEs ``0..k-1`` (data or pointers) instead of its
    receivers would overwrite or truncate PE 0's window.  The random
    interleaving above need not set that up; this case always does."""
    model = [[0, 1], [2, 3, 4], [], [5, 6], []]
    arena = WindowArena(len(model), rows, capacity=4)
    for pe, ids in enumerate(model):
        if ids:
            arena.push_segments(_pes([pe]), _pes([len(ids)]), *_encode(rows, ids))
    arena.donate_bottoms(_pes([1, 3]), _pes([4, 2]))
    model = [[0, 1], [3, 4], [5], [6], [2]]
    _check(arena, rows, model, 4)
    assert arena.bottom.tolist() == [0, 1, 0, 1, 0]


@pytest.mark.parametrize("rows", [STACK_ROWS, SEARCH_ROWS], ids=["stack", "search"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_arena_matches_list_model(rows, data):
    n_pes = data.draw(st.integers(1, 5), label="n_pes")
    capacity0 = data.draw(st.integers(1, 2), label="capacity")
    arena = WindowArena(n_pes, rows, capacity=capacity0)
    model: list[list[int]] = [[] for _ in range(n_pes)]
    fresh = itertools.count()
    any_pe = st.integers(0, n_pes - 1)
    for op in data.draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=40)):
        nonempty = [pe for pe in range(n_pes) if model[pe]]
        empty = [pe for pe in range(n_pes) if not model[pe]]
        if op == "push":
            pes = data.draw(st.lists(any_pe, min_size=1, unique=True))
            lens = _draw_lens(data, len(pes), 4)
            ids = [next(fresh) for _ in range(lens.sum())]
            arena.push_segments(_pes(pes), lens, *_encode(rows, ids))
            segments = iter(ids)
            for pe, k in zip(pes, lens):
                model[pe].extend(itertools.islice(segments, k))
        elif op == "pop" and nonempty:
            pes = data.draw(st.lists(st.sampled_from(nonempty), min_size=1, unique=True))
            popped = [model[pe].pop() for pe in pes]
            assert _same(arena.pop_tops(_pes(pes)), _encode(rows, popped))
        elif op == "donate" and nonempty and empty:
            k = data.draw(st.integers(1, min(len(nonempty), len(empty))))
            donors = data.draw(st.permutations(nonempty))[:k]
            receivers = data.draw(st.permutations(empty))[:k]
            for d, r in zip(donors, receivers):
                model[r] = [model[d].pop(0)]
            arena.donate_bottoms(_pes(donors), _pes(receivers))
        elif op == "take" and nonempty:
            pe = data.draw(st.sampled_from(nonempty))
            k = data.draw(st.integers(0, len(model[pe])))
            taken, model[pe] = model[pe][:k], model[pe][k:]
            assert _same(arena.take_bottoms(pe, k), _encode(rows, taken))
        elif op == "inject":
            dst = data.draw(any_pe)
            ids = [next(fresh) for _ in range(data.draw(st.integers(0, 4)))]
            assert arena.inject_window(dst, *_encode(rows, ids)) == len(ids)
            model[dst].extend(ids)
        elif op == "reset":
            arena.reset_empty_windows()
            idle = arena.counts() == 0
            assert not arena.bottom[idle].any() and not arena.top[idle].any()
        elif op == "reserve":
            pes = data.draw(st.lists(any_pe, min_size=1, unique=True))
            lens = _draw_lens(data, len(pes), 6)
            arena.reserve(_pes(pes), lens)
            assert (arena.top[pes] + lens <= arena.capacity).all()
        _check(arena, rows, model, capacity0)
