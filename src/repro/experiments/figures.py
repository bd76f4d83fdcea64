"""Generators for the paper's figures (1, 3, 4, 5, 6, 7, 8).

Each returns a :class:`~repro.experiments.report.SeriesResult` holding the
same data series the figure plots; benchmarks render and persist them.
Figure 2 (the GP/nGP matching walkthrough) is deterministic and lives in
``examples/matching_walkthrough.py`` and the matching tests.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.bounds import dk_overhead_within_bound
from repro.analysis.isoefficiency import growth_exponent, isoefficiency_points
from repro.analysis.optimal_trigger import optimal_static_trigger
from repro.core.metrics import RunMetrics
from repro.core.splitting import AlphaSplitter
from repro.core.triggering import DKTrigger, DPTrigger
from repro.experiments.report import SeriesResult
from repro.experiments.runner import Scale, run_divisible, run_grid
from repro.experiments.tables import TABLE2_THRESHOLDS, _scale
from repro.obs import Observability, RingBufferSink
from repro.simd.cost import CostModel
from repro.workmodel.profiles import cliff_profile, gradual_profile, trigger_fire_cycle

__all__ = ["fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"]


def _traced_run(spec: str, *args, **kwargs) -> tuple[RunMetrics, list, list]:
    """One :func:`run_divisible` traced through a ring-buffer event
    sink: its metrics, cycle events and LB-phase events."""
    sink = RingBufferSink()
    m = run_divisible(spec, *args, obs=Observability(events=sink), **kwargs)
    return m, sink.events("cycle"), sink.events("lb")


def fig1(*, scale: str | Scale = "tiny", seed: int = 0) -> SeriesResult:
    """Figure 1: the R1/R2 areas the dynamic triggers compare.

    Traced from real runs: for D_P, R1 = w - A*t against R2 = A*L
    (Equation 3); for D_K, R1 = w_idle against R2 = L*P (Equation 4).  A
    load balance happens exactly when R1 first reaches R2, which the
    recorded series exhibit.
    """
    sc = _scale(scale)
    series: dict[str, list[tuple[float, float]]] = {}
    for spec in ("GP-DP", "GP-DK"):
        _, cycles, _ = _traced_run(
            spec, sc.works[0], sc.n_pes, seed=seed, init_threshold=0.85
        )
        series[f"{spec} R1"] = [(float(e.cycle), e.r1) for e in cycles]
        series[f"{spec} R2"] = [(float(e.cycle), e.r2) for e in cycles]
    return SeriesResult(
        exp_id="fig1",
        title="Dynamic triggering conditions: R1 vs R2 per cycle",
        x_label="cycle",
        y_label="area",
        series=series,
        notes=["a load-balancing phase fires at each cycle where R1 >= R2"],
    )


def fig3(*, scale: str | Scale = "small", seed: int = 0) -> SeriesResult:
    """Figure 3: N_lb(nGP) - N_lb(GP) versus the static threshold x.

    The gap grows with x and with W — nGP's repeated donors force extra
    phases; GP's rotation does not.
    """
    sc = _scale(scale)
    series: dict[str, list[tuple[float, float]]] = {}
    for work in sc.works:
        points = []
        for x in TABLE2_THRESHOLDS + (0.95,):
            ngp = run_divisible(f"nGP-S{x}", work, sc.n_pes, seed=seed)
            gp = run_divisible(f"GP-S{x}", work, sc.n_pes, seed=seed)
            points.append((x, float(ngp.n_lb - gp.n_lb)))
        series[f"W={work}"] = points
    return SeriesResult(
        exp_id="fig3",
        title="Difference in load-balancing phases (nGP - GP) vs x",
        x_label="x",
        y_label="delta N_lb",
        series=series,
        notes=["paper shape: gap ~0 at x=0.5, grows with x, larger for larger W"],
    )


def _isoefficiency_figure(
    exp_id: str,
    title: str,
    schemes: list[str],
    targets: list[float],
    *,
    pes: list[int],
    ratios: list[float],
    seed: int,
    init_threshold: float | None | str,
) -> SeriesResult:
    """Shared engine of Figures 4 and 7.

    For every scheme, run the (P, W) grid with W = ratio * P * log2(P),
    extract the W needed for each target efficiency, and report the
    growth exponent of that requirement against P log P (1.0 = the
    paper's O(P log P) conclusion).
    """
    series: dict[str, list[tuple[float, float]]] = {}
    notes: list[str] = []
    for spec in schemes:
        works_by_p = {
            p: [max(1, int(r * p * math.log2(p))) for r in ratios] for p in pes
        }
        records = []
        for p in pes:
            records.extend(
                run_grid([spec], works_by_p[p], [p], base_seed=seed, init_threshold=init_threshold)
            )
        triples = [(r.n_pes, float(r.total_work), r.efficiency) for r in records]
        for target in targets:
            points = isoefficiency_points(triples, target)
            if len(points) >= 2:
                series[f"{spec} E={target}"] = [(float(p), w) for p, w in points]
                b = growth_exponent(points, model="PlogP")
                notes.append(f"{spec} E={target}: W ~ (P log P)^{b:.2f}")
            else:
                notes.append(f"{spec} E={target}: unreachable on this grid")
    return SeriesResult(
        exp_id=exp_id,
        title=title,
        x_label="P",
        y_label="W required",
        series=series,
        notes=notes,
    )


def fig4(
    *,
    pes: list[int] | None = None,
    ratios: list[float] | None = None,
    targets: list[float] | None = None,
    seed: int = 0,
) -> SeriesResult:
    """Figure 4: experimental isoefficiency curves for static triggering.

    Curves for GP-S0.90 and nGP-S{0.90, 0.80, 0.70}: GP stays ~linear in
    P log P at every efficiency; nGP's requirement inflates as x rises.
    """
    pes = pes or [128, 256, 512, 1024]
    ratios = ratios or [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    targets = targets or [0.60, 0.70, 0.80]
    return _isoefficiency_figure(
        "fig4",
        "Experimental isoefficiency curves, static triggering",
        ["GP-S0.90", "nGP-S0.90", "nGP-S0.80", "nGP-S0.70"],
        targets,
        pes=pes,
        ratios=ratios,
        seed=seed,
        init_threshold=None,
    )


def fig5(*, n_pes: int = 1024, n_cycles: int = 2000) -> SeriesResult:
    """Figure 5: active-processor decay shapes and when triggers fire.

    On the gradual profile (5a) D_P fires promptly; on the cliff profile
    (5b) D_P fires late or never while D_K's idle-time integral fires
    within a bounded delay — Section 6.1's pathology, made concrete.
    """
    cost = CostModel()
    profiles = {
        "gradual (5a)": gradual_profile(n_pes, n_cycles),
        "cliff (5b)": cliff_profile(n_pes, n_cycles, cliff_at=0.05),
    }
    series: dict[str, list[tuple[float, float]]] = {}
    notes: list[str] = []
    lb = cost.lb_phase_time(n_pes)
    for label, prof in profiles.items():
        step = max(1, len(prof) // 50)
        series[label] = [(float(i), float(a)) for i, a in enumerate(prof) if i % step == 0]
        for trig_name, trig in (
            ("DP", DPTrigger(initial_lb_cost=lb)),
            ("DK", DKTrigger(initial_lb_cost=lb)),
        ):
            fire = trigger_fire_cycle(trig, prof, u_calc=cost.u_calc)
            notes.append(
                f"{label}: {trig_name} fires at cycle "
                f"{'NEVER' if fire is None else fire}"
            )
    # The arbitrarily-poor case (Section 6.1, observation 3): once the
    # cliff profile reaches one active PE, R1 freezes at the cliff's area
    # A = integral of (W(t) - 1) dt; any L exceeding it starves D_P
    # forever, while D_K still fires.
    cliff = profiles["cliff (5b)"]
    area = float((cliff - 1).clip(min=0).sum()) * cost.u_calc
    big_l = 2.0 * area
    # D_K accumulates ~P*u_calc idle per tail cycle, so it fires within
    # ~L*P / ((P-1)*u_calc) cycles; give the profile room for that.
    long_tail = int(1.2 * big_l * n_pes / ((n_pes - 1) * cost.u_calc))
    long_cliff = np.concatenate([cliff, np.full(long_tail, cliff[-1])])
    for trig_name, trig in (
        ("DP", DPTrigger(initial_lb_cost=big_l)),
        ("DK", DKTrigger(initial_lb_cost=big_l)),
    ):
        fire = trigger_fire_cycle(trig, long_cliff, u_calc=cost.u_calc)
        notes.append(
            f"cliff (5b) with L > cliff area ({big_l:.0f}s): {trig_name} "
            f"fires at {'NEVER' if fire is None else fire}"
        )
    return SeriesResult(
        exp_id="fig5",
        title="Active-processor decay profiles and dynamic-trigger behaviour",
        x_label="cycle",
        y_label="active PEs",
        series=series,
        notes=notes,
    )


def fig6(*, scale: str | Scale = "small", seed: int = 0) -> SeriesResult:
    """Figure 6 (the Section 6.2 bound): D_K overhead vs optimal static.

    For each W, measure ``T_idle + T_lb`` under GP-D_K and under
    GP-S^{x_o}; their ratio must stay below 2 (Equation 22).
    """
    sc = _scale(scale)
    cost = CostModel()
    points = []
    notes = []
    for work in sc.works:
        x_o = optimal_static_trigger(
            work, sc.n_pes, u_calc=cost.u_calc, t_lb=cost.lb_phase_time(sc.n_pes)
        )
        dk = run_divisible("GP-DK", work, sc.n_pes, seed=seed, init_threshold=0.85)
        st = run_divisible(f"GP-S{x_o:.4f}", work, sc.n_pes, seed=seed)
        ratio = (dk.ledger.t_idle + dk.ledger.t_lb) / (
            st.ledger.t_idle + st.ledger.t_lb
        )
        points.append((float(work), ratio))
        ok = dk_overhead_within_bound(dk, st)
        notes.append(f"W={work}: overhead ratio {ratio:.2f} (bound 2.0) -> {'OK' if ok else 'VIOLATED'}")
    return SeriesResult(
        exp_id="fig6",
        title="D_K overhead relative to the optimal static trigger",
        x_label="W",
        y_label="(T_idle+T_lb)_DK / (T_idle+T_lb)_Sxo",
        series={"GP-DK vs GP-Sxo": points},
        notes=notes,
    )


def fig7(
    *,
    pes: list[int] | None = None,
    ratios: list[float] | None = None,
    targets: list[float] | None = None,
    seed: int = 0,
) -> SeriesResult:
    """Figure 7: experimental isoefficiency curves for dynamic triggering.

    GP with either trigger stays ~O(P log P); nGP-D_P degrades (it
    balances most often), nGP-D_K sits between — the Section 7 reading.
    """
    pes = pes or [128, 256, 512, 1024]
    ratios = ratios or [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    targets = targets or [0.70, 0.80]
    return _isoefficiency_figure(
        "fig7",
        "Experimental isoefficiency curves, dynamic triggering",
        ["GP-DK", "GP-DP", "nGP-DK", "nGP-DP"],
        targets,
        pes=pes,
        ratios=ratios,
        seed=seed,
        init_threshold=0.85,
    )


def fig8(
    *, scale: str | Scale = "small", seed: int = 0, high_multiplier: float = 16.0
) -> SeriesResult:
    """Figure 8: active PEs per expansion cycle, GP-D_P vs GP-D_K, at the
    actual and at 16x load-balancing cost.

    At 1x the two traces look alike; at 16x, D_P visibly triggers at much
    lower activity levels than D_K (Figures 8c/8d).
    """
    sc = _scale(scale)
    work = sc.table5_work
    # Same adverse splitter as Table 5: the D_P/D_K contrast at high LB
    # cost only appears when splits produce activity cliffs.
    splitter = AlphaSplitter(alpha_min=0.02, alpha_max=0.98)
    series: dict[str, list[tuple[float, float]]] = {}
    notes: list[str] = []
    for mult, tag in ((1.0, "actual"), (high_multiplier, f"{int(high_multiplier)}x")):
        cost = CostModel().with_lb_multiplier(mult)
        for spec in ("GP-DP", "GP-DK"):
            m, cycles, lbs = _traced_run(
                spec, work, sc.n_pes, cost_model=cost, seed=seed,
                init_threshold=0.85, splitter=splitter,
            )
            step = max(1, len(cycles) // 100)
            series[f"{spec} ({tag})"] = [
                (float(e.cycle), float(e.expanding))
                for e in cycles
                if e.cycle % step == 0
            ]
            if lbs:
                busy = {e.cycle: e.busy for e in cycles}
                low = min(busy[e.cycle] for e in lbs)
                notes.append(
                    f"{spec} ({tag}): {m.n_lb} phases, lowest busy count at a "
                    f"trigger = {low}, E = {m.efficiency:.2f}"
                )
            else:
                notes.append(f"{spec} ({tag}): no LB phases, E = {m.efficiency:.2f}")
    return SeriesResult(
        exp_id="fig8",
        title="Active PEs per cycle under dynamic triggers and LB costs",
        x_label="cycle",
        y_label="active PEs",
        series=series,
        notes=notes,
    )
