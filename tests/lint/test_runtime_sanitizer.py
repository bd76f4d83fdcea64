"""Runtime sanitizer: fuzzed invariant checks and deliberate fault injection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PAPER_SCHEMES
from repro.core.scheduler import Scheduler
from repro.lint.runtime import SanitizerError, SchedulerSanitizer, require
from repro.simd.machine import SimdMachine
from repro.workmodel.divisible import DivisibleWorkload
from repro.workmodel.stackmodel import StackWorkload


class TestFuzzSchedulerInvariants:
    """Random workloads under every scheme never trip the sanitizer."""

    @settings(max_examples=30, deadline=None)
    @given(
        work=st.integers(min_value=10, max_value=4000),
        n_pes=st.integers(min_value=2, max_value=96),
        scheme=st.sampled_from(PAPER_SCHEMES),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        init=st.sampled_from([None, 0.5, 0.85]),
    )
    def test_divisible_workload_clean(self, work, n_pes, scheme, seed, init):
        workload = DivisibleWorkload(work, n_pes, rng=seed)
        scheduler = Scheduler(
            workload,
            SimdMachine(n_pes, sanitize=True),
            scheme,
            init_threshold=init,
            sanitize=True,
        )
        metrics = scheduler.run()
        assert metrics.total_work == work

    @settings(max_examples=10, deadline=None)
    @given(
        work=st.integers(min_value=20, max_value=600),
        n_pes=st.integers(min_value=2, max_value=32),
        scheme=st.sampled_from(PAPER_SCHEMES),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_stack_workload_clean(self, work, n_pes, scheme, seed):
        workload = StackWorkload(work, n_pes, rng=seed)
        scheduler = Scheduler(
            workload, SimdMachine(n_pes, sanitize=True), scheme, sanitize=True
        )
        metrics = scheduler.run()
        assert metrics.total_work == work


class _PointerCorruptingWorkload:
    """Proxy workload that corrupts the scheduler's GP pointer mid-run."""

    def __init__(self, inner, after_cycles):
        self.inner = inner
        self.after_cycles = after_cycles
        self.scheduler = None
        self._cycles = 0

    def expand_cycle(self):
        n = self.inner.expand_cycle()
        self._cycles += 1
        if self._cycles == self.after_cycles:
            self.scheduler.matcher.pointer = self.inner.n_pes + 7
        return n

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _OverlapAfterTransferWorkload:
    """Seeded mutant: after each transfer round, and until the next
    expansion cycle, the workload reports its first idle PE as busy too.

    The lie never reaches the per-cycle mask check and leaves the idle
    count honest, so only the LB round's pair check can see it — the
    check ``Matcher.match`` made before the ``Scheduler`` paired through
    ``Matcher.pair``."""

    def __init__(self, inner):
        self.inner = inner
        self.lies = 0
        self._lying = False

    def expand_cycle(self):
        self._lying = False
        return self.inner.expand_cycle()

    def transfer(self, donors, receivers):
        performed = self.inner.transfer(donors, receivers)
        self._lying = True
        return performed

    def busy_mask(self):
        busy = self.inner.busy_mask().copy()
        idle = self.inner.idle_mask()
        if self._lying and idle.any():
            busy[idle.argmax()] = True
            self.lies += 1
        return busy

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestFaultInjection:
    def test_pe_both_busy_and_idle_is_caught_at_the_lb_round(self):
        workload = _OverlapAfterTransferWorkload(DivisibleWorkload(5000, 16, rng=0))
        scheduler = Scheduler(
            workload, SimdMachine(16), "GP-DP", init_threshold=0.85, sanitize=True
        )
        with pytest.raises(SanitizerError) as excinfo:
            scheduler.run()
        assert excinfo.value.invariant == "lb-pairing"
        assert workload.lies >= 1

    def test_the_overlap_mutant_runs_unchecked_without_sanitize(self):
        workload = _OverlapAfterTransferWorkload(DivisibleWorkload(5000, 16, rng=0))
        scheduler = Scheduler(workload, SimdMachine(16), "GP-DP", init_threshold=0.85)
        assert scheduler.run().total_work == 5000
        assert workload.lies >= 1

    def test_corrupted_gp_pointer_is_caught(self):
        inner = DivisibleWorkload(5000, 16, rng=0)
        workload = _PointerCorruptingWorkload(inner, after_cycles=40)
        scheduler = Scheduler(
            workload, SimdMachine(16), "GP-S0.90", sanitize=True
        )
        workload.scheduler = scheduler
        with pytest.raises(SanitizerError, match="gp-pointer-range"):
            scheduler.run()

    def test_same_run_clean_without_corruption(self):
        scheduler = Scheduler(
            DivisibleWorkload(5000, 16, rng=0),
            SimdMachine(16),
            "GP-S0.90",
            sanitize=True,
        )
        assert scheduler.run().total_work == 5000
        assert scheduler.matcher is not None
        assert scheduler.trigger is not None

    def test_sanitize_does_not_change_the_run(self):
        def run(sanitize):
            return Scheduler(
                DivisibleWorkload(20_000, 64, rng=3),
                SimdMachine(64),
                "GP-DK",
                init_threshold=0.85,
                sanitize=sanitize,
            ).run()

        plain, checked = run(False), run(True)
        assert plain.n_expand == checked.n_expand
        assert plain.n_lb == checked.n_lb
        assert plain.n_transfers == checked.n_transfers
        assert plain.ledger.elapsed == checked.ledger.elapsed


class TestSchedulerSanitizerUnits:
    def test_disjoint_masks_violation(self):
        sanitizer = SchedulerSanitizer(4)
        overlap = np.array([True, False, False, False])
        with pytest.raises(SanitizerError, match="masks-disjoint"):
            sanitizer.check_masks(overlap, overlap, np.ones(4, dtype=bool))

    def test_exhaustive_masks_violation(self):
        sanitizer = SchedulerSanitizer(4)
        none = np.zeros(4, dtype=bool)
        with pytest.raises(SanitizerError, match="masks-exhaustive"):
            sanitizer.check_masks(none, none, none)

    def test_pairs_violations(self):
        sanitizer = SchedulerSanitizer(4)
        busy = np.array([True, True, False, False])
        idle = np.array([False, False, True, True])
        sanitizer.check_pairs(busy, idle, np.array([0, 1]), np.array([2, 3]))
        cases = [
            (busy, busy | idle, [0], [2]),  # a PE both busy and idle
            (busy, idle, [2], [3]),  # donor not busy
            (busy, idle, [0], [1]),  # receiver not idle
            (busy, idle, [0, 0], [2, 3]),  # a donor twice
            (busy, idle, [0, 1], [2]),  # unpaired
        ]
        for b, i, donors, receivers in cases:
            with pytest.raises(SanitizerError, match="lb-pairing"):
                sanitizer.check_pairs(b, i, np.array(donors), np.array(receivers))

    def test_round_progress_violation(self):
        with pytest.raises(SanitizerError, match="lb-round-progress"):
            SchedulerSanitizer(8).check_round_progress(3, 3, 2)

    def test_round_progress_exact_accounting(self):
        with pytest.raises(SanitizerError, match="lb-round-progress"):
            SchedulerSanitizer(8).check_round_progress(5, 2, 1)
        SchedulerSanitizer(8).check_round_progress(5, 3, 2)

    def test_pointer_bounds(self):
        sanitizer = SchedulerSanitizer(8)

        class FakeMatcher:
            pointer = None

        sanitizer.check_pointer(FakeMatcher())  # None is fine
        FakeMatcher.pointer = 7
        sanitizer.check_pointer(FakeMatcher())
        FakeMatcher.pointer = -1
        with pytest.raises(SanitizerError, match="gp-pointer-range"):
            sanitizer.check_pointer(FakeMatcher())

    def test_require_passthrough(self):
        require(True, "anything", "never raised")
        with pytest.raises(SanitizerError) as excinfo:
            require(False, "my-invariant", "boom")
        assert excinfo.value.invariant == "my-invariant"
        assert isinstance(excinfo.value, AssertionError)


class TestMachineSanitize:
    def test_clean_charges_pass(self):
        machine = SimdMachine(8, sanitize=True)
        machine.charge_expansion_cycle(5)
        machine.charge_lb_phase(transfer_rounds=1, n_transfers=3)
        assert machine.check_time_identity()

    def test_corrupted_ledger_caught_on_next_charge(self):
        machine = SimdMachine(8, sanitize=True)
        machine.charge_expansion_cycle(5)
        machine.ledger.t_calc += 1.0  # break the identity behind its back
        with pytest.raises(SanitizerError, match="time-identity"):
            machine.charge_expansion_cycle(5)
