"""Hypothesis lock-step fuzz: fused scratch reuse vs fresh allocation.

The fused tier reuses *dirty* scratch buffers cycle after cycle; the one
way that can go wrong is a kernel reading an element it did not write
this cycle — stale state from a previous, differently-shaped cycle
leaking into the run.  Random workload shapes, leaf probabilities and
interleaved random transfers drive exactly that situation (the frontier
width keeps changing, so every scratch view keeps being re-sliced), and
the numpy tier — which allocates everything fresh per cycle and can
therefore never leak — is the oracle the fused run must match cycle by
cycle, stacks, counts and RNG stream included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.workspace import KernelWorkspace
from repro.util.rng import as_generator
from repro.workmodel.stackmodel import StackWorkload


def _pair(work, n_pes, max_branching, leaf_probability, seed):
    def make(kernel_backend):
        return StackWorkload(
            work,
            n_pes,
            max_branching=max_branching,
            leaf_probability=leaf_probability,
            rng=seed,
            kernel_backend=kernel_backend,
        )

    return make("numpy"), make("fused")


class TestLockStepFuzz:
    @given(
        work=st.integers(50, 40_000),
        n_pes=st.integers(2, 96),
        max_branching=st.integers(2, 6),
        leaf_probability=st.floats(0.0, 0.6).map(lambda x: round(x, 2)),
        seed=st.integers(0, 10_000),
        transfer_period=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_fused_tracks_fresh_allocation_oracle(
        self, work, n_pes, max_branching, leaf_probability, seed, transfer_period
    ):
        oracle, fused = _pair(work, n_pes, max_branching, leaf_probability, seed)
        pair_rng = as_generator(seed + 1)  # transfer-pair stream
        cycle = 0
        while not oracle.done() and cycle < 400:
            oracle.expand_cycle()
            fused.expand_cycle()
            cycle += 1
            if cycle % transfer_period == 0:
                # Same random donor/receiver pairing on both sides; the
                # workloads themselves filter invalid pairs identically.
                donors = pair_rng.integers(0, n_pes, size=max(1, n_pes // 4))
                receivers = pair_rng.integers(0, n_pes, size=len(donors))
                ok = donors != receivers
                assert oracle.transfer(donors[ok], receivers[ok]) == fused.transfer(
                    donors[ok], receivers[ok]
                )
            assert (oracle._counts() == fused._counts()).all()
        assert oracle.done() == fused.done()
        assert oracle.stacks == fused.stacks
        assert oracle.total_expanded() == fused.total_expanded()
        assert (
            oracle.rng.bit_generator.state == fused.rng.bit_generator.state
        )

    @given(
        sizes=st.lists(st.integers(1, 600), min_size=1, max_size=40),
        dtype_mix=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_scratch_views_never_alias_across_names(self, sizes, dtype_mix):
        """Distinct names stay distinct storage through arbitrary resize
        sequences — writes through one view never show through another."""
        ws = KernelWorkspace()
        for i, n in enumerate(sizes):
            a = ws.scratch("a", n)
            b = ws.scratch(
                "b", n, dtype=np.float64 if dtype_mix and i % 2 else np.int64
            )
            a[:] = 1
            b[:] = 2
            assert (a == 1).all() and (b == 2).all()
            iota = ws.iota(n)
            assert iota[0] == 0 and iota[-1] == n - 1
