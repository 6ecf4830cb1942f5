"""Rank the lines of the bundled nine-bus generator network.

Two rankings side by side: the Gramian-sensitivity ranking (ECM), which
sees the full dynamics and depends on the chosen controllability metric,
and the static nearest-neighbor ranking (NNEC), which sees only coupling
weights and endpoint strengths. They need not agree; comparing them is
the quickest way to see what dynamic information buys.
"""

import numpy as np

from powergram import (
    CandidateEdgeSet,
    GramianMetric,
    build_ecm,
    build_reduced_system,
    bundled_network_path,
    gramian_infinite,
    ingest,
    nnec_report,
)

net = ingest(bundled_network_path("ieee9"))
sys = build_reduced_system(net)
print(f"network {net.name}: {net.N} generators, state dimension {sys.order}")

base = gramian_infinite(sys)
print("\nbaseline controllability metrics:")
for metric, value in base.metric_values.items():
    print(f"  {metric.value:14s} {value: .6f}")

# One adjoint Lyapunov solve gives the sensitivity of every candidate
# edge at once; here the candidate set is every existing line.
candidate = CandidateEdgeSet.laplacian_support(net)
print(f"\ncandidate edges: {', '.join(str(e) for e in candidate)}")

for metric in GramianMetric:
    report = build_ecm(sys, net, candidate, metric)
    print(f"\nECM ranking under {metric.value}:")
    for rank, edge in enumerate(report.ranking, start=1):
        print(
            f"  {rank}. edge {edge}  sensitivity {report.value(edge):+.4f}"
            f"  impact {report.tau[rank - 1]:.4f}"
        )

# The static score needs no Gramian at all: it combines the edge weight
# with how contested the two endpoints are.
lam, ranking = nnec_report(net)
print("\nNNEC ranking (metric-free):")
for rank, edge in enumerate(ranking, start=1):
    print(f"  {rank}. edge {edge}  score {lam[edge.i - 1, edge.j - 1]:.4f}")

top_dynamic = build_ecm(sys, net, candidate, GramianMetric.LOG_DET).ranking[0]
print(
    f"\ntop edge: {top_dynamic} by Gramian sensitivity, "
    f"{ranking[0]} by the static score"
)
assert np.all(lam >= 0.0)
