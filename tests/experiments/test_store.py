import json

import pytest

from repro.analysis.isoefficiency import isoefficiency_points
from repro.errors import RecordStoreError, ReproError
from repro.experiments.runner import run_grid
from repro.experiments.store import load_records, save_records, to_triples


@pytest.fixture(scope="module")
def records():
    return run_grid(["GP-S0.75", "GP-DK"], [2_000, 8_000], [16, 32], base_seed=1)


class TestRoundTrip:
    def test_save_and_load(self, records, tmp_path):
        path = save_records(records, tmp_path / "grid.json")
        loaded = load_records(path)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert a.scheme == b.scheme
            assert a.n_pes == b.n_pes
            assert a.total_work == b.total_work
            assert a.efficiency == pytest.approx(b.efficiency)
            assert a.metrics.n_lb == b.metrics.n_lb

    def test_creates_parent_dirs(self, records, tmp_path):
        path = save_records(records[:1], tmp_path / "a" / "b" / "grid.json")
        assert path.exists()

    def test_version_check(self, records, tmp_path):
        path = save_records(records[:1], tmp_path / "grid.json")
        data = json.loads(path.read_text())
        data["schema_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema version"):
            load_records(path)

    def test_recovery_fields_are_constants(self, records, tmp_path):
        """v2 writes ``t_recovery`` / ``n_recovery`` as 0.0 / 0, and a v1
        record without them loads to the same ledger."""
        path = save_records(records[:1], tmp_path / "grid.json")
        data = json.loads(path.read_text())
        record = data["records"][0]
        assert (record["ledger"]["t_recovery"], record["n_recovery"]) == (0.0, 0)
        del record["ledger"]["t_recovery"], record["n_recovery"]
        data["schema_version"] = 1
        path.write_text(json.dumps(data))
        assert load_records(path)[0].metrics.ledger == records[0].metrics.ledger

    def test_traces_dropped(self, records, tmp_path):
        # A file written when traces could be persisted still loads; its
        # "trace" key is ignored.
        path = save_records(records, tmp_path / "grid.json")
        data = json.loads(path.read_text())
        data["records"][0]["trace"] = {"maxlen": 0}
        path.write_text(json.dumps(data))
        assert load_records(path) == records


class TestToTriples:
    def test_feeds_isoefficiency(self, records):
        triples = to_triples(records)
        assert len(triples) == len(records)
        # Must be consumable by the isoefficiency extractor.
        isoefficiency_points(triples, 0.5)

    def test_triple_contents(self, records):
        p, w, e = to_triples(records)[0]
        assert p == records[0].n_pes
        assert w == float(records[0].total_work)
        assert e == records[0].efficiency


class TestAtomicSave:
    def test_crash_before_replace_preserves_previous_file(
        self, records, tmp_path, monkeypatch
    ):
        """Simulated mid-write crash: the staged temp file never makes it
        into place, so the previous good store survives untouched."""
        path = save_records(records[:1], tmp_path / "grid.json")
        before = path.read_text()

        def crash(src, dst):
            raise OSError("simulated crash during replace")

        monkeypatch.setattr("os.replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            save_records(records, path)
        monkeypatch.undo()
        assert path.read_text() == before
        assert len(load_records(path)) == 1

    def test_no_temp_file_left_after_success(self, records, tmp_path):
        path = save_records(records, tmp_path / "grid.json")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestTypedLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(RecordStoreError, match="cannot read"):
            load_records(tmp_path / "absent.json")

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text("{truncated")
        with pytest.raises(RecordStoreError, match="not valid JSON"):
            load_records(path)

    def test_not_a_record_payload(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(RecordStoreError, match="not a record payload"):
            load_records(path)

    def test_malformed_record(self, records, tmp_path):
        path = save_records(records[:1], tmp_path / "grid.json")
        saved = path.read_text()
        # A missing ledger, and a recovery charge the ledger has no line
        # for: dropping it would misstate the record's efficiency.
        for mutate in (
            lambda r: r.pop("ledger"),
            lambda r: r["ledger"].update(t_recovery=0.5),
            lambda r: r.update(n_recovery=2),
        ):
            data = json.loads(saved)
            mutate(data["records"][0])
            path.write_text(json.dumps(data))
            with pytest.raises(RecordStoreError, match="malformed"):
                load_records(path)

    def test_error_is_both_repro_and_value_error(self, tmp_path):
        """Back-compat: pre-existing except ValueError handlers keep
        working after the typed-error change."""
        assert issubclass(RecordStoreError, ValueError)
        assert issubclass(RecordStoreError, ReproError)


class TestCorruptValueGoldens:
    """Structurally valid payloads holding malformed *values*.

    These escape a ``(KeyError, TypeError)``-only catch: the defects
    below raise ``ValueError`` from inside ``record_from_dict`` (ledger
    coercion), which used to propagate untyped to every
    ``load_records`` caller.  Each must surface as the typed
    ``RecordStoreError`` instead.
    """

    @staticmethod
    def _corrupted(records, tmp_path, mutate):
        path = save_records(records[:1], tmp_path / "grid.json")
        data = json.loads(path.read_text())
        mutate(data["records"][0])
        path.write_text(json.dumps(data))
        return path

    def test_ledger_as_string(self, records, tmp_path):
        # dict("abc") -> ValueError, not TypeError.
        path = self._corrupted(
            records, tmp_path, lambda r: r.update(ledger="abc")
        )
        with pytest.raises(RecordStoreError, match="malformed"):
            load_records(path)

    def test_ledger_as_list_of_strings(self, records, tmp_path):
        # dict(["abc"]) -> "element #0 has length 3" ValueError.
        path = self._corrupted(
            records, tmp_path, lambda r: r.update(ledger=["abc"])
        )
        with pytest.raises(RecordStoreError, match="malformed"):
            load_records(path)

    def test_original_cause_is_chained(self, records, tmp_path):
        path = self._corrupted(
            records, tmp_path, lambda r: r.update(ledger="abc")
        )
        with pytest.raises(RecordStoreError) as excinfo:
            load_records(path)
        assert isinstance(excinfo.value.__cause__, ValueError)
