#!/usr/bin/env python3
"""Self-test of the answer checkers.

    python3 perfbench/selftest.py

Feeds each checker one report that must pass and one known-bad report
(a perturbed improvement, an unsorted ranking, a broken sandwich, ...)
that it must flag. Exits non-zero if a checker passes bad data or
flags good data. Run from the root of a powergram checkout.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "powergram" / "__init__.py").is_file():
    sys.exit(f"error: {ROOT / 'src' / 'powergram'} not found; run from a powergram checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from powergram import (  # noqa: E402
    CandidateEdgeSet,
    GramianMetric,
    build_ecm,
    build_reduced_system,
    bundled_network_path,
    default_horizon,
    gramian_finite,
    ingest,
    metric_value,
    sample_energy_costs,
)

import checks  # noqa: E402


def ieee9_reports():
    """Known-good nine-bus report data, built from the library and the references."""
    net = ingest(bundled_network_path("ieee9"))
    sys_ = build_reduced_system(net)
    report = build_ecm(sys_, net, CandidateEdgeSet.laplacian_support(net), GramianMetric.LOG_DET)
    ecm_rows = [
        {"i": str(e.i), "j": str(e.j), "upsilon": repr(report.value(e)), "impact": repr(float(tau))}
        for e, tau in zip(report.ranking, report.tau)
    ]
    summary = {"ecm_ranking": ["3-1", "2-1", "3-2"], "nnec_ranking": ["3-2", "2-1", "3-1"]}
    modification = {"edge_set": ["3-1", "2-1"], "gamma": [0.8, 0.6], "improvement_pct": 4.5303}
    sweep = [{"beta": "0.5", "improvement_pct": "1.7"}, {"beta": "1.0", "improvement_pct": "4.5"}]
    combos = [{"edges": "3-1", "improvement_pct": "3.1898"},
              {"edges": "2-1", "improvement_pct": "1.7967"},
              {"edges": "3-2", "improvement_pct": "2.5"}]
    oracle = {"candidate_edges": "3-1", "candidate_improvement_pct": 3.1898,
              "wcs_improvement_pct": 1.7967, "bcs_improvement_pct": 3.1898,
              "j_v": 100.0, "j_c": 100.0, "combinations": 3}
    t_f = default_horizon(sys_)
    costs = sample_energy_costs(sys_, t_f, 10_000, seed=0)
    energy = {"t_f": t_f, "samples": 10_000,
              "expected_cost_finite": -metric_value(gramian_finite(sys_, t_f).W,
                                                    GramianMetric.NEG_TRACE_INV)}
    energy_rows = [{"cost": repr(float(c))} for c in costs]
    damping = {"slow_mode_zeta": 1.5, "slow_mode_zeta_modified": 1.7}
    damping_ref = {"slow_mode_zeta_before": 1.5, "slow_mode_zeta_after": 1.7}
    return net, {
        "ecm_rows": ecm_rows, "summary": summary, "modification": modification, "sweep": sweep,
        "combos": combos, "oracle": oracle, "energy": energy, "energy_rows": energy_rows,
        "damping": damping, "damping_ref": damping_ref,
    }


def cases():
    """Yields (name, (problems found in good data, problems found in bad data))."""
    net, d = ieee9_reports()

    def mutated(obj, edit):
        bad = copy.deepcopy(obj)
        edit(bad)
        return bad

    yield "improvement band", (
        checks.check_improvement(4.5303, 4.5303, "logdet"),
        checks.check_improvement(4.5303 * 1.06, 4.5303, "logdet"))
    yield "nine-bus edge sets", (
        checks.check_ieee9_sets(d["summary"]),
        checks.check_ieee9_sets(mutated(d["summary"], lambda s: s.update(ecm_ranking=["2-1", "3-1", "3-2"]))))
    yield "ranking order", (
        checks.check_ranking(d["ecm_rows"], "upsilon", "impact", 3),
        checks.check_ranking(d["ecm_rows"][::-1], "upsilon", "impact", 3))
    yield "ECM finite differences", (
        checks.check_ecm_entries(net, "logdet", d["ecm_rows"]),
        checks.check_ecm_entries(net, "logdet", mutated(
            d["ecm_rows"], lambda rows: rows[0].update(upsilon=repr(1.01 * float(rows[0]["upsilon"]))))))
    yield "feasibility: budget", (
        checks.check_feasibility(d["modification"], net, 1.0),
        checks.check_feasibility(mutated(d["modification"], lambda m: m.update(gamma=[0.8, 0.7])), net, 1.0))
    yield "feasibility: lower bound", (
        checks.check_feasibility(mutated(d["modification"], lambda m: m.update(gamma=[0.0, 0.5])), net, 2.0),
        checks.check_feasibility(mutated(d["modification"], lambda m: m.update(gamma=[-1.2, 0.0])), net, 2.0))
    yield "budget sweep", (
        checks.check_sweep(d["sweep"]),
        checks.check_sweep(d["sweep"] + [{"beta": "1.5", "improvement_pct": "0.0"}]))
    yield "oracle: sandwich", (
        checks.check_oracle(d["oracle"], d["combos"]),
        checks.check_oracle(mutated(d["oracle"], lambda o: o.update(candidate_improvement_pct=1.0)),
                            d["combos"]))
    yield "oracle: perturbed improvement", (
        checks.check_oracle(d["oracle"], d["combos"]),
        checks.check_oracle(d["oracle"], mutated(d["combos"], lambda r: r[2].update(improvement_pct="4.0"))))
    yield "oracle: negative improvement", (
        checks.check_oracle(d["oracle"], d["combos"]),
        checks.check_oracle(mutated(d["oracle"], lambda o: o.update(wcs_improvement_pct=-0.5)),
                            mutated(d["combos"], lambda r: r[1].update(improvement_pct="-0.5"))))
    yield "nine-bus oracle references", (
        checks.check_ieee9_oracle(dict(d["oracle"], wcs_improvement_pct=3.5371, bcs_improvement_pct=4.5303),
                                  "logdet", 2),
        checks.check_ieee9_oracle(dict(d["oracle"], wcs_improvement_pct=3.5371, bcs_improvement_pct=4.5303,
                                       j_c=200.0 / 3.0), "logdet", 2))
    shift = 10.0 * float(np.std([float(r["cost"]) for r in d["energy_rows"]]) / 100.0)
    yield "energy identity", (
        checks.check_energy(d["energy"], d["energy_rows"], net),
        checks.check_energy(d["energy"], [{"cost": repr(float(r["cost"]) + shift)} for r in d["energy_rows"]],
                            net))
    yield "damping cross-check", (
        checks.check_damping(d["damping"], d["damping_ref"]),
        checks.check_damping(mutated(d["damping"], lambda s: s.update(slow_mode_zeta_modified=1.8)),
                             d["damping_ref"]))


def main() -> int:
    broken = 0
    for name, (good, bad) in cases():
        ok = not good and bool(bad)
        broken += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: good={good or 'passes'} bad={bad or 'NOT FLAGGED'}")
    print(f"{broken} checker(s) broken")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
