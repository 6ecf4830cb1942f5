"""Budget sweep with warm starts, and what it does to the poles.

Growing the budget can only grow the feasible set, so the optimized
improvement curve J(beta) must be non-decreasing; warm-starting each
budget from the previous optimum makes that monotonicity cheap to
realize numerically. Alongside the curve, the demo tracks the damping
ratio of the slowest electromechanical mode.
"""

import numpy as np

from powergram import (
    CandidateEdgeSet,
    GramianMetric,
    ModificationProblem,
    build_ecm,
    build_reduced_system,
    bundled_network_path,
    damping_report,
    ingest,
    optimize_modification,
    select_edge_set,
    slowest_oscillatory_mode,
)

net = ingest(bundled_network_path("ieee9"))
sys = build_reduced_system(net)
metric = GramianMetric.LOG_DET

print("poles of the unmodified system:")
for pole, zeta in damping_report(sys.A):
    kind = "oscillatory" if pole.imag else "real"
    print(f"  {pole.real:+.4f} {pole.imag:+.4f}j  zeta = {zeta:7.4f} %  ({kind})")

report = build_ecm(sys, net, CandidateEdgeSet.laplacian_support(net), metric)
edge_set = select_edge_set(report, 1)
print(f"\nsweeping the budget on edge {edge_set[0]} ({metric.value}):")
print(f"{'beta':>6s} {'J [%]':>9s} {'slow-mode zeta [%]':>19s}")

warm = None
previous = -np.inf
for beta in np.linspace(0.1, 1.0, 10):
    problem = ModificationProblem(
        net=net, edge_set=edge_set, metric=metric, beta=float(beta)
    )
    result = optimize_modification(problem, warm_start_gamma=warm)
    warm = result.gamma
    _, zeta = slowest_oscillatory_mode(damping_report(result.system.A))
    print(f"{beta:6.2f} {result.improvement_pct:9.4f} {zeta:19.4f}")
    assert result.improvement_pct >= previous - 1e-9
    previous = result.improvement_pct

print("\nJ(beta) is non-decreasing: a bigger ball contains the smaller one.")
