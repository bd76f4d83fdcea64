"""The write-ahead cell journal: framing, recovery, and corruption.

A clean crash can only ever leave a *torn tail* (a prefix of the final
frame), which the journal silently truncates on reopen; anything worse —
bad magic, CRC mismatch on an interior frame, unsupported schema — must
raise the typed :class:`~repro.errors.JournalCorruptError`, never a raw
``struct``/``json`` exception.
"""

import json

import pytest

from repro.errors import CheckpointCorruptError, JournalCorruptError
from repro.experiments.journal import (
    MAGIC,
    SCHEMA_VERSION,
    CellJournal,
    cell_key,
    code_version,
    replay_journal,
)
from repro.experiments.runner import plan_grid, run_divisible
from repro.faults.checkpoint import FRAME_HEADER, frame_payload


@pytest.fixture(scope="module")
def plans():
    return plan_grid(["GP-S0.90", "nGP-DK"], [300], [8], base_seed=3)


@pytest.fixture(scope="module")
def finished(plans):
    return [
        run_divisible(
            p.scheme,
            p.total_work,
            p.n_pes,
            seed=p.seed,
            init_threshold=p.init_threshold,
        )
        for p in plans
    ]


def _fill(path, plans, finished):
    journal = CellJournal(path)
    for plan, metrics in zip(plans, finished):
        journal.record_cell(plan, metrics)
    return journal


class TestCellKey:
    def test_pure_and_distinct(self):
        k = cell_key("GP-DK", 1000, 64, 7)
        assert k == cell_key("GP-DK", 1000, 64, 7)
        assert k != cell_key("GP-DK", 1000, 64, 8)
        assert k != cell_key("GP-DP", 1000, 64, 7)
        assert k != cell_key("GP-DK", 1001, 64, 7)
        assert k != cell_key("GP-DK", 1000, 32, 7)

    def test_code_version_invalidates(self):
        assert cell_key("GP-DK", 1000, 64, 7) != cell_key(
            "GP-DK", 1000, 64, 7, version="other-build"
        )

    def test_code_version_folds_schemas(self):
        v = code_version()
        assert f"journal-v{SCHEMA_VERSION}" in v
        assert "records-v" in v


class TestRoundTrip:
    def test_records_survive_reopen_bit_identically(self, tmp_path, plans, finished):
        path = tmp_path / "grid.journal"
        _fill(path, plans, finished)
        reopened = CellJournal(path)
        assert len(reopened) == len(plans)
        assert not reopened.recovered_torn_tail
        for plan, metrics in zip(plans, finished):
            record = reopened.lookup(plan)
            assert record is not None
            # Dataclass equality covers every ledger float exactly.
            assert record.metrics == metrics

    def test_append_is_idempotent(self, tmp_path, plans, finished):
        path = tmp_path / "grid.journal"
        journal = _fill(path, plans, finished)
        size = path.stat().st_size
        journal.record_cell(plans[0], finished[0])
        assert path.stat().st_size == size

    def test_contains_and_get(self, tmp_path, plans, finished):
        path = tmp_path / "grid.journal"
        journal = _fill(path, plans, finished)
        key = journal.key_for(plans[0])
        assert key in journal
        assert journal.get(key).metrics == finished[0]
        assert journal.get("no-such-key") is None

    def test_different_code_version_misses(self, tmp_path, plans, finished):
        path = tmp_path / "grid.journal"
        _fill(path, plans, finished)
        stale = CellJournal(path, version="a-newer-build")
        # Entries are still replayed, but lookups key off the new
        # version and miss — stale cells recompute instead of resuming.
        assert len(stale) == len(plans)
        assert stale.lookup(plans[0]) is None


class TestTornTail:
    def test_torn_tail_is_recovered_and_truncated(self, tmp_path, plans, finished):
        path = tmp_path / "grid.journal"
        _fill(path, plans, finished)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])  # a crash mid-append
        reopened = CellJournal(path)
        assert reopened.recovered_torn_tail
        assert len(reopened) == len(plans) - 1
        assert reopened.lookup(plans[0]).metrics == finished[0]
        assert reopened.lookup(plans[-1]) is None
        # The tail was truncated: the next append lands on a clean
        # boundary and a further reopen replays everything intact.
        reopened.record_cell(plans[-1], finished[-1])
        final = CellJournal(path)
        assert not final.recovered_torn_tail
        assert len(final) == len(plans)
        assert final.lookup(plans[-1]).metrics == finished[-1]

    def test_strict_replay_refuses_torn_tail(self, tmp_path, plans, finished):
        path = tmp_path / "grid.journal"
        _fill(path, plans, finished)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(JournalCorruptError, match="truncated"):
            replay_journal(path, recover=False)

    def test_header_only_torn_cell_is_empty_journal(self, tmp_path, plans, finished):
        path = tmp_path / "grid.journal"
        _fill(path, plans[:1], finished[:1])
        raw = path.read_bytes()
        _, header_len = FRAME_HEADER.unpack_from(raw, len(MAGIC))
        header_end = len(MAGIC) + FRAME_HEADER.size + header_len
        # Keep the magic + intact header, tear the single cell frame.
        path.write_bytes(raw[: header_end + 3])
        reopened = CellJournal(path)
        assert reopened.recovered_torn_tail
        assert len(reopened) == 0


class TestCorruption:
    def test_bad_magic_is_typed(self, tmp_path):
        path = tmp_path / "grid.journal"
        path.write_bytes(b"NOTAJOURNAL" + b"x" * 30)
        with pytest.raises(JournalCorruptError, match="magic"):
            CellJournal(path)

    def test_interior_crc_bit_flip_is_typed(self, tmp_path, plans, finished):
        path = tmp_path / "grid.journal"
        _fill(path, plans, finished)
        raw = bytearray(path.read_bytes())
        # Flip one payload bit inside the *first* cell frame (interior:
        # a later intact frame follows, so this is bit rot, not a crash).
        flip_at = raw.find(b'"key":') + 10
        raw[flip_at] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(JournalCorruptError, match="CRC"):
            CellJournal(path)

    def test_schema_version_mismatch_is_typed(self, tmp_path):
        path = tmp_path / "grid.journal"
        header = json.dumps({"schema": 99, "code_version": "x"}).encode()
        path.write_bytes(MAGIC + frame_payload(header))
        with pytest.raises(JournalCorruptError, match="schema"):
            CellJournal(path)

    def test_missing_header_is_typed(self, tmp_path):
        path = tmp_path / "grid.journal"
        path.write_bytes(MAGIC)
        with pytest.raises(JournalCorruptError, match="header"):
            CellJournal(path)

    def test_malformed_cell_frame_is_typed(self, tmp_path):
        path = tmp_path / "grid.journal"
        header = json.dumps(
            {"schema": SCHEMA_VERSION, "code_version": "x"}
        ).encode()
        fields = {"scheme": "GP-S0.90", "n_pes": 8, "total_work": 300}
        counts = {"n_expand": 1, "n_lb": 0, "n_transfers": 0, "n_init_lb": 0}
        bad_records = [
            {"nope": 1},  # missing fields: KeyError
            # CRC-valid, but dict("xy") raises ValueError, not KeyError.
            {**fields, **counts, "ledger": "xy"},
        ]
        for record in bad_records:
            bogus = json.dumps({"key": "k", "record": record}).encode()
            path.write_bytes(MAGIC + frame_payload(header) + frame_payload(bogus))
            with pytest.raises(JournalCorruptError, match="malformed"):
                CellJournal(path)

    def test_journal_error_is_checkpoint_family(self):
        # Callers guarding resume paths with CheckpointCorruptError
        # catch journal corruption too — one except clause for both.
        assert issubclass(JournalCorruptError, CheckpointCorruptError)
