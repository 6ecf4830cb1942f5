"""Optimize a budgeted susceptance modification of the nine-bus network.

The optimizer picks per-edge changes gamma inside a Euclidean budget
and maximizes the chosen Gramian metric. Every line keeps at least
eps = COUPLING_FLOOR = 1e-3 of its coupling, so the network stays
connected and stable: past a cut, the answer holds the line at
-(1 - eps) g. The search is multi-start projected gradient ascent; the
gradient is the modified network's edge centrality, one adjoint Lyapunov
solve per step.
"""

import numpy as np

from powergram import (
    COUPLING_FLOOR,
    CandidateEdgeSet,
    GeneratorNetwork,
    GramianMetric,
    ModificationProblem,
    ReducedAdmittanceData,
    build_ecm,
    build_reduced_system,
    bundled_network_path,
    damping_report,
    ingest,
    laplacian_from_admittance,
    optimize_modification,
    recover_modified_admittance,
    select_edge_set,
    slowest_oscillatory_mode,
)

net = ingest(bundled_network_path("ieee9"))
sys = build_reduced_system(net)
metric = GramianMetric.LOG_DET

candidate = CandidateEdgeSet.laplacian_support(net)
report = build_ecm(sys, net, candidate, metric)

for s in (1, 2):
    edge_set = select_edge_set(report, s)
    problem = ModificationProblem(net=net, edge_set=edge_set, metric=metric, beta=1.0)
    result = optimize_modification(problem)
    names = ", ".join(str(e) for e in edge_set)
    print(f"\nmodifying {s} edge(s): {names}")
    print(f"  gamma            {np.array2string(result.gamma, precision=4)}")
    print(f"  budget used      {np.linalg.norm(result.gamma):.4f} of {problem.beta}")
    print(f"  {metric.value} before  {result.metric_before:.6f}")
    print(f"  {metric.value} after   {result.metric_after:.6f}")
    print(f"  improvement      {result.improvement_pct:.4f} %")
    print(f"  feasible         {result.feasible}")
    print(f"  ascent           {len(result.restarts)} restarts, "
          f"{result.iterations} iterations")

    # The modification also moves the electromechanical poles; the
    # slowest oscillatory pair is the one operators watch. The result
    # carries the modified network's validated reduced system.
    _, zeta_before = slowest_oscillatory_mode(damping_report(sys.A))
    _, zeta_after = slowest_oscillatory_mode(damping_report(result.system.A))
    print(f"  slow-mode damping  {zeta_before:.4f} % -> {zeta_after:.4f} %")

# A budget past a line's cut stops at the line's floor: here line (3,1),
# with coupling g = 1.1778, keeps eps g whatever the budget.
edge_set = select_edge_set(report, 1)
for beta in (1.5, 2.0):
    problem = ModificationProblem(net=net, edge_set=edge_set, metric=metric, beta=beta)
    result = optimize_modification(problem, base_system=sys)
    g = net.edge_weight(edge_set[0])
    print(f"\nbeta = {beta}: gamma = {result.gamma[0]:+.6f} "
          f"(floor -(1 - {COUPLING_FLOOR:g}) g = {-(1 - COUPLING_FLOOR) * g:+.6f}), "
          f"improvement {result.improvement_pct:.4f} %")

# A susceptance change is implemented by re-dispatching a line's series
# admittance. Given equilibrium data, each optimized gamma maps back to
# a complex admittance; rho picks the conductance/susceptance split.
print("\nrealizing a modification as an admittance change:")
adm = ReducedAdmittanceData(
    Y=np.array(
        [
            [0.0, 0.3 - 1.4j, 0.1 - 0.9j],
            [0.3 - 1.4j, 0.0, 0.2 - 2.1j],
            [0.1 - 0.9j, 0.2 - 2.1j, 0.0],
        ]
    ),
    voltage=np.array([1.0, 1.04, 0.98]),
    angle=np.array([0.0, 0.04, -0.02]),
)
demo_net = GeneratorNetwork(
    M=np.array([0.12, 0.10, 0.15]),
    D=np.array([0.02, 0.02, 0.03]),
    L=laplacian_from_admittance(adm),
    name="threegen",
    admittance=adm,
)
demo_sys = build_reduced_system(demo_net)
demo_support = CandidateEdgeSet.laplacian_support(demo_net)
demo_report = build_ecm(demo_sys, demo_net, demo_support, metric)
edge_set = select_edge_set(demo_report, 1)
problem = ModificationProblem(net=demo_net, edge_set=edge_set, metric=metric, beta=0.4)
res = optimize_modification(problem)
edge = edge_set[0]
print(f"  edge {edge}: coupling change gamma = {res.gamma[0]:+.4f}")

for rho in (0.0, 0.25):
    y_hat = recover_modified_admittance(adm, edge, float(res.gamma[0]), rho)
    # Substituting the recovered entry must reproduce the modified
    # coupling exactly; rho only redistributes it between Re and Im.
    Y2 = adm.Y.copy()
    a, b = edge.i - 1, edge.j - 1
    Y2[a, b] = Y2[b, a] = y_hat
    L2 = laplacian_from_admittance(
        ReducedAdmittanceData(Y=Y2, voltage=adm.voltage, angle=adm.angle)
    )
    realized = demo_net.L[a, b] - L2[a, b]
    print(
        f"  rho = {rho:4.2f}: y_hat = {y_hat.real:+.4f}{y_hat.imag:+.4f}j, "
        f"realized change {realized:+.4f}"
    )
    assert abs(realized - res.gamma[0]) < 1e-9
