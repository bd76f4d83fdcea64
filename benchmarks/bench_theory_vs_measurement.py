"""Closing the loop: the Section 4 theory against the measurements.

Three quantitative checks tying the analysis module to the simulator:

1. **Phase bound** — measured N_lb never exceeds the Appendix A/B bound
   ``V(P) * log_{1/(1-alpha)} W`` (GP's V(P) = ceil(1/(1-x)); nGP's
   blows up with x, so the bound is loose but must still hold).
2. **Efficiency ceiling** — Equation 9: ``E <= x + delta`` where delta
   is the measured mean active-fraction surplus over the threshold.
3. **Prediction quality** — Equation 12 with the measured delta and the
   *measured* phase count reconstructs E to within a few percent (the
   equation is exact given its inputs; the reconstruction checks our
   accounting matches the paper's algebra).
"""

from conftest import emit

from repro.analysis.bounds import transfers_upper_bound, v_bound_gp, v_bound_ngp
from repro.core.splitting import AlphaSplitter
from repro.experiments.report import TableResult
from repro.experiments.runner import SCALES, run_divisible
from repro.simd.cost import CostModel

ALPHA = 0.1
THRESHOLDS = (0.60, 0.75, 0.90)


def test_theory_vs_measurement(benchmark, scale, results_dir):
    sc = SCALES[scale]
    work = sc.works[1]
    cost = CostModel()
    t_lb = cost.lb_phase_time(sc.n_pes)

    def measure():
        rows = []
        for matching in ("GP", "nGP"):
            for x in THRESHOLDS:
                m = run_divisible(
                    f"{matching}-S{x}",
                    work,
                    sc.n_pes,
                    splitter=AlphaSplitter(alpha_min=ALPHA),
                    seed=6,
                )
                # Measured mean active fraction during search cycles.
                active_frac = m.avg_busy_fraction
                delta = max(0.0, active_frac - x)
                v = (
                    v_bound_gp(x)
                    if matching == "GP"
                    else v_bound_ngp(x, work, alpha=ALPHA)
                )
                phase_bound = transfers_upper_bound(v, work, alpha=ALPHA)
                # Equation 9 reconstruction with measured quantities.
                t_calc = work * cost.u_calc
                recon = t_calc / (
                    t_calc / active_frac + sc.n_pes * m.n_lb * t_lb
                )
                rows.append(
                    [
                        f"{matching}-S{x:.2f}",
                        m.n_lb,
                        int(phase_bound),
                        round(x + delta, 3),
                        round(m.efficiency, 3),
                        round(recon, 3),
                    ]
                )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    result = TableResult(
        exp_id="theory_vs_measurement",
        title=f"Section 4 theory vs simulator, W={work}, P={sc.n_pes}",
        headers=["scheme", "Nlb", "Nlb bound", "x+delta", "E", "E (Eq. 9)"],
        rows=rows,
        notes=[
            "Nlb <= bound (Appendix A/B); E <= x+delta (Eq. 9 ceiling);",
            "Eq. 9 with measured inputs reconstructs E almost exactly",
        ],
    )
    emit(result, results_dir)

    for scheme, n_lb, bound, ceiling, e, recon in rows:
        assert n_lb <= bound, f"{scheme}: phase bound violated ({n_lb} > {bound})"
        assert e <= ceiling + 0.02, f"{scheme}: E={e} above ceiling {ceiling}"
        assert abs(e - recon) < 0.05, f"{scheme}: Eq. 9 reconstruction off"
