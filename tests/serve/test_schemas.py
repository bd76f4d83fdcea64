"""Request validation: every malformed payload gets a typed 400."""

import dataclasses

import pytest

from repro.errors import BadRequestError, ReproError
from repro.serve.schemas import (
    MAX_CELLS_PER_GRID,
    MAX_PES_PER_CELL,
    MAX_WORK_PER_CELL,
    GridRequest,
    SolveRequest,
    parse_grid_request,
    parse_solve_request,
)


class TestSolveParsing:
    def test_minimal(self):
        req = parse_solve_request(
            {"scheme": "GP-DK", "total_work": 100, "n_pes": 4}
        )
        assert req == SolveRequest("GP-DK", 100, 4, 0)

    def test_seed_passthrough(self):
        req = parse_solve_request(
            {"scheme": "nGP-DP", "total_work": 1, "n_pes": 1, "seed": 9}
        )
        assert req.seed == 9

    @pytest.mark.parametrize("missing", ["scheme", "total_work", "n_pes"])
    def test_missing_field(self, missing):
        payload = {"scheme": "GP-DK", "total_work": 100, "n_pes": 4}
        del payload[missing]
        with pytest.raises(BadRequestError, match=missing):
            parse_solve_request(payload)

    def test_unknown_field(self):
        with pytest.raises(BadRequestError, match="unknown solve field"):
            parse_solve_request(
                {"scheme": "GP-DK", "total_work": 100, "n_pes": 4, "wat": 1}
            )

    def test_unknown_scheme(self):
        with pytest.raises(BadRequestError, match="unknown scheme spec"):
            parse_solve_request(
                {"scheme": "LRU", "total_work": 100, "n_pes": 4}
            )

    @pytest.mark.parametrize("bad", ["7", 7.0, True, None])
    def test_non_integer_work(self, bad):
        with pytest.raises(BadRequestError, match="must be an integer"):
            parse_solve_request(
                {"scheme": "GP-DK", "total_work": bad, "n_pes": 4}
            )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("total_work", 0),
            ("total_work", MAX_WORK_PER_CELL + 1),
            ("n_pes", 0),
            ("n_pes", MAX_PES_PER_CELL + 1),
        ],
    )
    def test_out_of_range(self, field, value):
        payload = {"scheme": "GP-DK", "total_work": 100, "n_pes": 4}
        payload[field] = value
        with pytest.raises(BadRequestError, match="must be in"):
            parse_solve_request(payload)

    def test_negative_seed(self):
        with pytest.raises(BadRequestError, match="seed"):
            parse_solve_request(
                {"scheme": "GP-DK", "total_work": 1, "n_pes": 1, "seed": -1}
            )

    def test_non_dict_payload(self):
        with pytest.raises(BadRequestError, match="JSON object"):
            parse_solve_request(["GP-DK", 100, 4])

    def test_error_is_typed(self):
        assert issubclass(BadRequestError, ReproError)
        assert issubclass(BadRequestError, ValueError)
        assert BadRequestError("x").status == 400


class TestGridParsing:
    def test_minimal(self):
        req = parse_grid_request(
            {"schemes": ["GP-DK"], "works": [100], "pes": [2, 4]}
        )
        assert req == GridRequest(("GP-DK",), (100,), (2, 4), 0)

    def test_tuplified(self):
        req = parse_grid_request(
            {"schemes": ["GP-DK", "nGP-DP"], "works": [10, 20], "pes": [2]}
        )
        assert isinstance(req.schemes, tuple)
        assert isinstance(req.works, tuple)

    @pytest.mark.parametrize("field", ["schemes", "works", "pes"])
    def test_empty_axis(self, field):
        payload = {"schemes": ["GP-DK"], "works": [100], "pes": [4]}
        payload[field] = []
        with pytest.raises(BadRequestError, match="non-empty list"):
            parse_grid_request(payload)

    def test_cell_limit(self):
        with pytest.raises(BadRequestError, match="limit is"):
            parse_grid_request(
                {
                    "schemes": ["GP-DK"],
                    "works": list(range(1, MAX_CELLS_PER_GRID + 2)),
                    "pes": [4],
                }
            )

    def test_bad_scheme_inside_list(self):
        with pytest.raises(BadRequestError, match="unknown scheme spec"):
            parse_grid_request(
                {"schemes": ["GP-DK", "ZZZ"], "works": [100], "pes": [4]}
            )

    @pytest.mark.parametrize("spec", ["ZZZ", "GP-S1.5", "GP-Sx"])
    def test_bad_scheme_is_refused_every_time(self, spec):
        """Valid spellings are memoised; a refusal never is."""
        payload = {"schemes": ["GP-DK", spec], "works": [100], "pes": [4]}
        for _ in range(2):
            with pytest.raises(BadRequestError, match="unknown scheme spec"):
                parse_grid_request(payload)
            with pytest.raises(BadRequestError, match="unknown scheme spec"):
                parse_solve_request({"scheme": spec, "total_work": 1, "n_pes": 1})

    def test_round_trips_to_dict(self):
        payload = {
            "schemes": ["GP-DK"],
            "works": [100],
            "pes": [4],
            "base_seed": 3,
        }
        assert parse_grid_request(payload).to_dict() == payload

    def test_solve_round_trips_to_dict(self):
        payload = {"scheme": "GP-DK", "total_work": 100, "n_pes": 4, "seed": 3}
        request = parse_solve_request(payload)
        assert request.to_dict() == payload == dataclasses.asdict(request)
        assert list(request.to_dict()) == [f.name for f in dataclasses.fields(request)]
