"""Answer checkers for the benchmark.

Each checker takes parsed report data and returns a list of problems;
an empty list means the answer passed. Loading the report files is kept
apart (``read_json``, ``read_csv``) so the self-test can feed known-bad data directly.

The nine-bus references are the pinned numbers of the acceptance
criteria 1-4 (``tests/test_acceptance.py``), with the same 5 % band.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from powergram import (
    EdgeId,
    GramianMetric,
    build_reduced_system,
    edge_laplacian,
    gramian_infinite,
)

# Expected improvement percentages on the nine-bus network at beta = 1,
# keyed by (metric, s): (worst case, ECM pick, best case).
IEEE9_IMPROVEMENT = {
    ("trace", 1): (0.6012, 0.6012, 0.9853),
    ("logdet", 1): (1.7967, 3.1898, 3.1898),
    ("neg-trace-inv", 1): (21.4248, 28.1474, 28.1474),
    ("trace", 2): (0.7644, 0.7644, 1.0913),
    ("logdet", 2): (3.5371, 4.5303, 4.5303),
    ("neg-trace-inv", 2): (36.4843, 39.2109, 39.2109),
}
IEEE9_ECM_SETS = {1: {"3-1"}, 2: {"2-1", "3-1"}}
IEEE9_NNEC_SETS = {1: {"3-2"}, 2: {"2-1", "3-2"}}

# Slack on the budget and on the per-edge lower bounds, as in the library.
FEASIBILITY_SLACK = 1e-9
# Recomputed oracle scores must match the report to rounding.
SCORE_TOL = 1e-9
# Central-difference step and tolerance for sampled ECM entries. The
# truncation error is O(h^2); at h = 1e-4 the observed relative error on
# N = 40 networks is below 6e-5.
FD_STEP = 1e-4
FD_RTOL = 1e-3


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def read_csv(path: Path) -> list[dict]:
    """Rows of a report table, skipping the leading '#' comment lines."""
    lines = [line for line in Path(path).read_text().splitlines()
             if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _edge(token: str) -> EdgeId:
    a, b = token.split("-")
    return EdgeId.canonical(int(a), int(b))


def check_improvement(value: float, reference: float, metric: str) -> list[str]:
    """5 % relative band; trace rows also accept 0.05 points absolute."""
    rel = abs(value - reference) / abs(reference)
    if rel <= 0.05 or (metric == "trace" and abs(value - reference) <= 0.05):
        return []
    return [f"{metric}: improvement {value:.4f} % outside the 5 % band of {reference}"]


def check_ieee9_sets(summary: dict) -> list[str]:
    problems = []
    for key, expected in (("ecm_ranking", IEEE9_ECM_SETS), ("nnec_ranking", IEEE9_NNEC_SETS)):
        for s, edges in expected.items():
            got = set(summary[key][:s])
            if got != edges:
                problems.append(f"{key} top-{s} is {sorted(got)}, expected {sorted(edges)}")
    return problems


def check_ranking(rows: list[dict], value_key: str, impact_key: str | None,
                  expected_edges: int) -> list[str]:
    """A ranking table lists each candidate once, impacts non-increasing."""
    problems = []
    if len(rows) != expected_edges:
        problems.append(f"ranking has {len(rows)} rows, expected {expected_edges}")
    impacts = []
    for row in rows:
        value = float(row[value_key])
        impact = abs(value) if impact_key is None else float(row[impact_key])
        if impact_key is not None and impact != abs(value):
            problems.append(f"edge {row['i']}-{row['j']}: impact {impact} != |{value}|")
        impacts.append(impact)
    if any(later > earlier for earlier, later in zip(impacts, impacts[1:])):
        problems.append("ranking is not sorted by impact")
    return problems


def fd_metric_gradient(net, edge: EdgeId, metric: str, h: float = FD_STEP) -> float:
    """Central difference of the metric along one coupling weight."""
    V = edge_laplacian(edge, net.N)
    kind = GramianMetric.parse(metric)
    plus = gramian_infinite(build_reduced_system(net.with_laplacian(net.L + h * V)))
    minus = gramian_infinite(build_reduced_system(net.with_laplacian(net.L - h * V)))
    return (plus.metric(kind) - minus.metric(kind)) / (2.0 * h)


def check_ecm_entries(net, metric: str, rows: list[dict], samples: int = 3) -> list[str]:
    """The top-ranked ECM entries against central finite differences."""
    problems = []
    for row in rows[:samples]:
        edge = EdgeId(int(row["i"]), int(row["j"]))
        value = float(row["upsilon"])
        fd = fd_metric_gradient(net, edge, metric)
        if abs(value - fd) > FD_RTOL * max(abs(value), abs(fd)):
            problems.append(f"ECM entry {edge} = {value!r}, finite difference {fd!r}")
    return problems


def check_feasibility(report: dict, net, beta: float) -> list[str]:
    """||gamma|| <= beta and g + gamma >= 0, recomputed from the report."""
    problems = []
    gamma = np.asarray(report["gamma"], dtype=float)
    norm = float(np.linalg.norm(gamma))
    if norm > beta + FEASIBILITY_SLACK:
        problems.append(f"||gamma|| = {norm!r} exceeds the budget {beta}")
    for token, g_k in zip(report["edge_set"], gamma):
        coupling = net.edge_weight(_edge(token)) + float(g_k)
        if coupling < -FEASIBILITY_SLACK:
            problems.append(f"edge {token}: modified coupling {coupling!r} < 0")
    if report["improvement_pct"] < 0:
        problems.append(f"improvement {report['improvement_pct']!r} % is a regression")
    return problems


def check_sweep(rows: list[dict]) -> list[str]:
    """Warm-started improvement never drops as the budget grows."""
    pairs = [(float(r["beta"]), float(r["improvement_pct"])) for r in rows]
    return [
        f"improvement drops from {j0:.4f} % at beta={b0:g} to {j1:.4f} % at beta={b1:g}"
        for (b0, j0), (b1, j1) in zip(pairs, pairs[1:])
        if j1 < j0 - FEASIBILITY_SLACK
    ]


def check_oracle(summary: dict, rows: list[dict]) -> list[str]:
    """J_V, J_C, the worst/best sandwich and signs, from the combinations table."""
    problems = []
    js = [float(r["improvement_pct"]) for r in rows]
    by_edges = {r["edges"]: float(r["improvement_pct"]) for r in rows}
    if len(rows) != summary["combinations"]:
        problems.append(f"{len(rows)} table rows for {summary['combinations']} combinations")
    if any(j < 0 for j in js):
        problems.append("a subset reports a negative improvement")
    wcs, bcs = min(js), max(js)
    cand = by_edges.get(summary["candidate_edges"])
    if cand is None:
        return problems + [f"candidate {summary['candidate_edges']} missing from the table"]
    low, mid, high = (summary[k] for k in ("wcs_improvement_pct", "candidate_improvement_pct",
                                          "bcs_improvement_pct"))
    if not low - SCORE_TOL <= mid <= high + SCORE_TOL:
        problems.append(f"sandwich broken: {low} <= {mid} <= {high} fails")
    j_v = 100.0 if bcs - wcs <= 0 else 100.0 * (cand - wcs) / (bcs - wcs)
    j_c = 100.0 * sum(1 for j in js if j <= cand) / len(js)
    for key, recomputed in (("wcs_improvement_pct", wcs), ("bcs_improvement_pct", bcs),
                            ("candidate_improvement_pct", cand), ("j_v", j_v), ("j_c", j_c)):
        if abs(summary[key] - recomputed) > SCORE_TOL * max(1.0, abs(recomputed)):
            problems.append(f"{key} = {summary[key]!r}, recomputed {recomputed!r}")
    return problems


def check_ieee9_oracle(summary: dict, metric: str, s: int) -> list[str]:
    wcs_ref, _, bcs_ref = IEEE9_IMPROVEMENT[(metric, s)]
    problems = check_improvement(summary["wcs_improvement_pct"], wcs_ref, metric)
    problems += check_improvement(summary["bcs_improvement_pct"], bcs_ref, metric)
    if metric != "trace" and not (summary["j_v"] == 100.0 and summary["j_c"] == 100.0):
        problems.append(f"J_V = {summary['j_v']}, J_C = {summary['j_c']}, expected 100, 100")
    return problems


def finite_gramian_inverse_trace(net, t_f: float) -> float:
    """tr W(t_f)^-1 straight from scipy, not through the library's Gramian code."""
    reduced = build_reduced_system(net)
    BBt = reduced.B @ reduced.B.T
    E = sla.expm(reduced.A * t_f)
    W = sla.solve_continuous_lyapunov(reduced.A, -(BBt - E @ BBt @ E.T))
    return float(np.trace(np.linalg.inv(0.5 * (W + W.T))))


def check_energy(summary: dict, rows: list[dict], net) -> list[str]:
    """Sample mean within 3 standard errors of tr W(t_f)^-1."""
    problems = []
    costs = np.array([float(r["cost"]) for r in rows])
    if costs.size != summary["samples"]:
        problems.append(f"{costs.size} samples in the table, {summary['samples']} reported")
    mean = float(np.mean(costs))
    stderr = float(np.std(costs, ddof=1) / math.sqrt(costs.size))
    expected = finite_gramian_inverse_trace(net, summary["t_f"])
    if abs(summary["expected_cost_finite"] - expected) > 1e-6 * abs(expected):
        problems.append(
            f"reported tr W(t_f)^-1 = {summary['expected_cost_finite']!r}, recomputed {expected!r}"
        )
    if abs(mean - expected) > 3.0 * stderr:
        problems.append(f"sample mean {mean!r} is more than 3 SE ({stderr!r}) from {expected!r}")
    return problems


def check_damping(summary: dict, modification: dict) -> list[str]:
    """Before/after slow-mode damping agrees with the modify report it compares."""
    problems = []
    for key, ref_key in (("slow_mode_zeta", "slow_mode_zeta_before"),
                         ("slow_mode_zeta_modified", "slow_mode_zeta_after")):
        if not math.isclose(summary[key], modification[ref_key], rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{key} = {summary[key]!r}, modify report says {modification[ref_key]!r}")
    return problems
