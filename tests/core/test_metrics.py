import pytest

from repro.core.metrics import RunMetrics
from repro.simd.machine import TimeLedger


def make_metrics(**overrides):
    defaults = dict(
        scheme="GP-S0.90",
        n_pes=64,
        total_work=1000,
        n_expand=20,
        n_lb=5,
        n_transfers=40,
        n_init_lb=0,
        ledger=TimeLedger(t_calc=30.0, t_idle=6.0, t_lb=4.0, elapsed=0.625),
    )
    defaults.update(overrides)
    return RunMetrics(**defaults)


class TestRunMetrics:
    def test_efficiency_delegates_to_ledger(self):
        m = make_metrics()
        assert m.efficiency == pytest.approx(30.0 / 40.0)

    def test_speedup(self):
        m = make_metrics()
        assert m.speedup == pytest.approx(48.0)

    def test_avg_busy_fraction(self):
        # 1000 nodes over 20 cycles of 64 PEs: each expanding PE pops
        # one node per cycle.
        m = make_metrics()
        assert m.avg_busy_fraction == 1000 / (20 * 64)
