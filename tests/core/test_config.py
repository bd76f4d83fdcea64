import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.frye import frye_give_one_scheme
from repro.core.config import (
    PAPER_SCHEMES,
    Scheme,
    make_scheme,
    parse_scheme_spec,
    threshold_text,
)
from repro.core.matching import GPMatcher, NGPMatcher
from repro.core.triggering import DKTrigger, DPTrigger, StaticTrigger


class TestParseSchemeSpec:
    def test_static(self):
        assert parse_scheme_spec("GP-S0.9") == ("GP", "S", 0.9)
        assert parse_scheme_spec("nGP-S0.75") == ("nGP", "S", 0.75)

    def test_dynamic(self):
        assert parse_scheme_spec("GP-DP") == ("GP", "DP", None)
        assert parse_scheme_spec("nGP-DK") == ("nGP", "DK", None)

    @pytest.mark.parametrize(
        "bad",
        ["GP", "XX-S0.5", "GP-S1.5", "GP-Sfoo", "GP-DX", "gp-S0.5", ""],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_scheme_spec(bad)


class TestMakeScheme:
    def test_static_scheme(self):
        s = make_scheme("GP-S0.9")
        assert s.name == "GP-S0.90"
        assert s.multiple_transfers is False
        matcher, trigger = s.build(0.013)
        assert isinstance(matcher, GPMatcher)
        assert isinstance(trigger, StaticTrigger)
        assert trigger.x == 0.9

    def test_dp_scheme_multiple_transfers(self):
        s = make_scheme("nGP-DP")
        assert s.multiple_transfers is True
        matcher, trigger = s.build(0.5)
        assert isinstance(matcher, NGPMatcher)
        assert isinstance(trigger, DPTrigger)
        assert trigger.initial_lb_cost == 0.5

    def test_dk_scheme(self):
        s = make_scheme("GP-DK")
        assert s.multiple_transfers is False
        _, trigger = s.build(0.2)
        assert isinstance(trigger, DKTrigger)
        assert trigger.initial_lb_cost == 0.2

    @given(x=st.floats(min_value=0.0, max_value=1.0))
    def test_static_name_round_trips_its_threshold(self, x):
        """A pool worker rebuilds a scheme from its name and cell keys
        hash it, so the name must carry the exact threshold."""
        scheme = make_scheme(f"nGP-S{x!r}")
        assert parse_scheme_spec(scheme.name) == ("nGP", "S", x)
        assert make_scheme(scheme.name).name == scheme.name

    def test_two_decimals_when_they_are_exact(self):
        assert make_scheme("GP-S0.5").name == "GP-S0.50"
        assert make_scheme("GP-S0.745").name == "GP-S0.745"
        assert threshold_text(1.0) == "1.00"
        assert frye_give_one_scheme(x=0.745).name == "Frye1-S0.745"

    def test_build_returns_fresh_instances(self):
        s = make_scheme("GP-S0.8")
        m1, t1 = s.build(0.013)
        m2, t2 = s.build(0.013)
        assert m1 is not m2 and t1 is not t2


class TestPaperSchemes:
    def test_table1_has_six_schemes(self):
        assert len(PAPER_SCHEMES) == 6

    def test_all_parse(self):
        for spec in PAPER_SCHEMES:
            assert isinstance(make_scheme(spec), Scheme)

    def test_only_dp_uses_multiple_transfers(self):
        for spec in PAPER_SCHEMES:
            scheme = make_scheme(spec)
            assert scheme.multiple_transfers == spec.endswith("DP")
