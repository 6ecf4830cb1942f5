"""Command-line workflows: analyze, modify, oracle, energy, damping.

Each subcommand reads one network file (or a bundled name like
``ieee9``), runs the corresponding pipeline, writes machine-readable
reports into ``--out``, and prints a short human summary. Every report
embeds the full run configuration and the library version.

Exit codes are a stable contract for CI:

    0  success
    2  usage or argument error
    3  network validation / schema error
    4  numerical failure (non-Hurwitz, indefinite, non-convergence)
    5  combinatorial refusal (brute force past the cap)
"""

from __future__ import annotations

import argparse
import math
import sys as _sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .centrality import (
    CandidateEdgeSet,
    build_ecm,
    nnec_report,
    select_edge_set,
)
from .errors import (
    CombinationCapError,
    ModelError,
    NumericalError,
    PowergramError,
    StabilityError,
)
from .gramian import (
    GramianMetric,
    damping_report,
    default_horizon,
    gramian_finite,
    gramian_infinite,
    sample_energy_costs,
    slowest_oscillatory_mode,
)
from .io import (
    BUNDLED_NETWORKS,
    bundled_network_path,
    fmt_float,
    ingest,
    save_network,
    write_csv_table,
    write_json_report,
)
from .modify import (
    COUPLING_FLOOR,
    ModificationProblem,
    ModificationResult,
    brute_force_oracle,
    optimize_modification,
)
from .network import EdgeId, build_reduced_system, recover_modified_admittance

METRIC_CHOICES = [m.value for m in GramianMetric]


def _resolve_network(arg: str):
    path = Path(arg)
    if path.exists():
        return ingest(path)
    if arg in BUNDLED_NETWORKS:
        return ingest(bundled_network_path(arg))
    raise ModelError(
        f"network file {arg!r} not found (bundled names: {sorted(BUNDLED_NETWORKS)})"
    )


def _parse_candidate(spec: str, net) -> CandidateEdgeSet:
    if spec == "all-pairs":
        return CandidateEdgeSet.all_pairs(net.N)
    if spec == "laplacian":
        return CandidateEdgeSet.laplacian_support(net)
    edges = []
    for token in spec.split(","):
        token = token.strip()
        parts = token.split("-")
        if len(parts) != 2:
            raise ValueError(
                f"bad edge {token!r} in --candidate (expected i-j, e.g. 3-1)"
            )
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad edge {token!r} in --candidate: {exc}") from exc
        edges.append(EdgeId.canonical(a, b))
    return CandidateEdgeSet.explicit(edges)


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _comments(config: dict) -> list[str]:
    lines = [f"powergram {__version__}"]
    lines.extend(f"{k} = {v}" for k, v in config.items())
    return lines


def _report_payload(config: dict, body: dict) -> dict:
    return {"version": __version__, "config": config, **body}


def _write_table(out: Path, stem: str, fmt: str, config: dict, header, rows):
    if fmt == "csv":
        write_csv_table(out / f"{stem}.csv", _comments(config), header, rows)
    else:
        write_json_report(
            out / f"{stem}.json",
            _report_payload(
                config, {"rows": [dict(zip(header, row)) for row in rows]}
            ),
        )


def _edge_token(edge: EdgeId) -> str:
    return f"{edge.i}-{edge.j}"


def _edges_token(edges) -> str:
    return "+".join(_edge_token(e) for e in edges)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _rank_edges(args):
    """Network, metric, reduced system, candidate set and ECM of one run."""
    net = _resolve_network(args.network)
    metric = GramianMetric.parse(args.metric)
    sys = build_reduced_system(net)
    candidate = _parse_candidate(args.candidate, net)
    return net, metric, sys, candidate, build_ecm(sys, net, candidate, metric)


def _problem(args, net, edge_set, metric, beta: float) -> ModificationProblem:
    return ModificationProblem(
        net=net,
        edge_set=edge_set,
        metric=metric,
        beta=beta,
        restarts=args.restarts,
        seed=args.seed,
    )


def cmd_analyze(args) -> int:
    net, metric, sys, _, report = _rank_edges(args)
    lam, nnec_ranking = nnec_report(net)
    config = _config_dict(args)
    out = _out_dir(args)

    ecm_rows = [
        (rank + 1, e.i, e.j, report.value(e), float(report.tau[rank]))
        for rank, e in enumerate(report.ranking)
    ]
    _write_table(
        out, "ecm_ranking", args.format, config,
        ["rank", "i", "j", "upsilon", "impact"], ecm_rows,
    )
    nnec_rows = [
        (rank + 1, e.i, e.j, float(lam[e.i - 1, e.j - 1]))
        for rank, e in enumerate(nnec_ranking)
    ]
    _write_table(
        out, "nnec_ranking", args.format, config,
        ["rank", "i", "j", "lambda"], nnec_rows,
    )
    base = gramian_infinite(sys)
    write_json_report(
        out / "analyze_summary.json",
        _report_payload(config, {
            "network": net.name,
            "metric_values": {k.value: v for k, v in base.metric_values.items()},
            "controllable": base.controllable,
            "ecm_ranking": [_edge_token(e) for e in report.ranking],
            "nnec_ranking": [_edge_token(e) for e in nnec_ranking],
        }),
    )
    print(
        f"{net.name}: ECM top edge {report.ranking[0]} ({metric.value}), "
        f"NNEC top edge {nnec_ranking[0]}; reports in {out}"
    )
    return 0


def _damping_rows(label: str, entries):
    return [
        (label, p.real, p.imag, zeta) for p, zeta in entries
    ]


def _recovered_admittance(net, result: ModificationResult, rho_arg: str):
    """Realize each optimized susceptance change as a complex admittance."""
    if net.admittance is None:
        raise ValueError(
            "--rho requires an admittance-form network file (equilibrium "
            "voltages and angles are needed to invert the coupling formula)"
        )
    try:
        rhos = [float(tok) for tok in str(rho_arg).split(",")]
    except ValueError as exc:
        raise ValueError(f"bad --rho value {rho_arg!r}: {exc}") from exc
    if len(rhos) == 1:
        rhos = rhos * len(result.edge_set)
    if len(rhos) != len(result.edge_set):
        raise ValueError(
            f"--rho needs 1 or {len(result.edge_set)} values, got {len(rhos)}"
        )
    entries = []
    for edge, gamma_k, rho in zip(result.edge_set, result.gamma, rhos):
        y_hat = recover_modified_admittance(net.admittance, edge, float(gamma_k), rho)
        entries.append(
            {
                "edge": _edge_token(edge),
                "rho": rho,
                "y_real": y_hat.real,
                "y_imag": y_hat.imag,
            }
        )
    return entries


def cmd_modify(args) -> int:
    net, metric, sys, _, report = _rank_edges(args)
    edge_set = select_edge_set(report, args.s)

    min_floor = (1.0 - COUPLING_FLOOR) * min(net.edge_weight(e) for e in edge_set)
    if args.beta <= min_floor:
        print(
            f"note: budget beta={args.beta:g} <= (1 - {COUPLING_FLOOR:g}) x min "
            f"coupling = {min_floor:g} on the selected edges; the per-edge "
            "coupling floors can never bind",
            file=_sys.stderr,
        )

    result = optimize_modification(
        _problem(args, net, edge_set, metric, args.beta), base_system=sys
    )

    slow_before = slowest_oscillatory_mode(damping_report(sys.A))
    slow_after = slowest_oscillatory_mode(damping_report(result.system.A))

    config = _config_dict(args)
    out = _out_dir(args)
    body = {
        "network": net.name,
        "edge_set": [_edge_token(e) for e in edge_set],
        "gamma": result.gamma.tolist(),
        "delta": result.delta.tolist(),
        "L_modified": result.L_modified.tolist(),
        "metric_before": result.metric_before,
        "metric_after": result.metric_after,
        "improvement_pct": result.improvement_pct,
        "feasible": result.feasible,
        "iterations": result.iterations,
        "restarts": [asdict(record) for record in result.restarts],
        "fallback_reason": result.fallback_reason,
        "slow_mode_zeta_before": slow_before[1],
        "slow_mode_zeta_after": slow_after[1],
        "slow_mode_zeta_delta": slow_after[1] - slow_before[1],
    }
    if args.rho is not None:
        body["recovered_admittance"] = _recovered_admittance(net, result, args.rho)

    write_json_report(out / "modification.json", _report_payload(config, body))
    save_network(result.system.network, out / "modified_network.json")

    if args.beta_sweep:
        rows = []
        warm = None
        for beta_k in np.linspace(args.beta / args.beta_sweep, args.beta,
                                  args.beta_sweep):
            step = _problem(args, net, edge_set, metric, float(beta_k))
            step_result = optimize_modification(
                step, warm_start_gamma=warm, base_system=sys
            )
            warm = step_result.gamma
            rows.append((float(beta_k), step_result.improvement_pct))
        _write_table(out, "beta_sweep", args.format, config,
                     ["beta", "improvement_pct"], rows)
        (out / "beta_sweep.dat").write_text(
            "".join(f"{fmt_float(b)} {fmt_float(j)}\n" for b, j in rows)
        )

    print(
        f"{net.name}: modified {_edges_token(edge_set)} ({metric.value}), "
        f"J = {result.improvement_pct:.4f}%; reports in {out}"
    )
    return 0


def cmd_oracle(args) -> int:
    net, metric, sys, candidate, report = _rank_edges(args)
    edge_set = select_edge_set(report, args.s)
    problem = _problem(args, net, edge_set, metric, args.beta)
    summary = brute_force_oracle(problem, candidate, cap=args.cap, base_system=sys)

    config = _config_dict(args)
    out = _out_dir(args)
    combo_rows = [
        (_edges_token(edges), j) for edges, j in summary.per_combination
    ]
    _write_table(out, "oracle_combinations", args.format, config,
                 ["edges", "improvement_pct"], combo_rows)
    write_json_report(
        out / "oracle_summary.json",
        _report_payload(config, {
            "network": net.name,
            "candidate_edges": _edges_token(summary.candidate[0]),
            "candidate_improvement_pct": summary.candidate[1],
            "wcs_edges": _edges_token(summary.wcs[0]),
            "wcs_improvement_pct": summary.wcs[1],
            "bcs_edges": _edges_token(summary.bcs[0]),
            "bcs_improvement_pct": summary.bcs[1],
            "j_v": summary.j_v,
            "j_c": summary.j_c,
            "combinations": len(summary.per_combination),
        }),
    )
    print(
        f"{net.name}: oracle over {len(summary.per_combination)} subsets "
        f"({metric.value}): J_V = {summary.j_v:.2f}, J_C = {summary.j_c:.2f}; "
        f"reports in {out}"
    )
    return 0


def cmd_energy(args) -> int:
    # One sample has no standard error, and a negative count has no meaning.
    if args.samples < 0 or args.samples == 1:
        raise ValueError(f"--samples must be 0 or at least 2, got {args.samples}")
    net = _resolve_network(args.network)
    sys = build_reduced_system(net)
    if args.tf == "auto":
        t_f = default_horizon(sys)
    else:
        try:
            t_f = float(args.tf)
        except ValueError as exc:
            raise ValueError(f"--tf must be 'auto' or a number, got {args.tf!r}") from exc
        if not t_f > 0:
            raise ValueError(f"--tf must be positive, got {t_f}")

    finite = gramian_finite(sys, t_f)
    if not finite.controllable:
        raise NumericalError(
            f"Gramian at horizon {t_f:.6g} is not positive definite"
        )
    tr_inv_finite = -finite.metric(GramianMetric.NEG_TRACE_INV)
    tr_inv_infinite = -gramian_infinite(sys).metric(GramianMetric.NEG_TRACE_INV)
    config = _config_dict(args)
    out = _out_dir(args)
    body = {
        "network": net.name,
        "t_f": t_f,
        "samples": args.samples,
        "expected_cost_finite": tr_inv_finite,
        "expected_cost_infinite": tr_inv_infinite,
    }
    if args.samples > 0:
        js = sample_energy_costs(sys, t_f, args.samples, seed=args.seed)
        mean = float(np.mean(js))
        stderr = float(np.std(js, ddof=1) / math.sqrt(args.samples))
        body["sample_mean"] = mean
        body["sample_stderr"] = stderr
        rows = [(k, float(j)) for k, j in enumerate(js)]
        _write_table(out, "energy_samples", args.format, config,
                     ["sample", "cost"], rows)
        (out / "energy_samples.dat").write_text(
            "".join(f"{k} {fmt_float(j)}\n" for k, j in rows)
        )
    write_json_report(out / "energy_summary.json",
                      _report_payload(config, body))
    msg = (
        f"{net.name}: tr(W(t_f)^-1) = {tr_inv_finite:.6g} at t_f = {t_f:.6g}, "
        f"tr(W(inf)^-1) = {tr_inv_infinite:.6g}"
    )
    if args.samples > 0:
        msg += f"; sample mean {body['sample_mean']:.6g}"
    print(msg + f"; reports in {out}")
    return 0


def cmd_damping(args) -> int:
    net = _resolve_network(args.network)
    sys = build_reduced_system(net)
    before = damping_report(sys.A)
    rows = _damping_rows("original", before)
    config = _config_dict(args)
    out = _out_dir(args)
    body = {"network": net.name}
    slow_before = slowest_oscillatory_mode(before)
    body["slow_mode_zeta"] = slow_before[1]
    if args.modified:
        net2 = _resolve_network(args.modified)
        sys2 = build_reduced_system(net2)
        after = damping_report(sys2.A)
        rows.extend(_damping_rows("modified", after))
        slow_after = slowest_oscillatory_mode(after)
        body["slow_mode_zeta_modified"] = slow_after[1]
        body["slow_mode_zeta_delta"] = slow_after[1] - slow_before[1]
    _write_table(out, "damping", args.format, config,
                 ["system", "re", "im", "zeta_pct"], rows)
    write_json_report(out / "damping_summary.json",
                      _report_payload(config, body))
    delta_note = (
        f", delta {body['slow_mode_zeta_delta']:+.4f}"
        if "slow_mode_zeta_delta" in body
        else ""
    )
    print(
        f"{net.name}: slow-mode damping {slow_before[1]:.4f}%{delta_note}; "
        f"reports in {out}"
    )
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("network", help="network file path or bundled name (ieee9)")
    p.add_argument("--out", default="powergram_out",
                   help="output directory (default: powergram_out)")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="tabular report format (default: csv)")


def _add_metric_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metric", choices=METRIC_CHOICES, default="logdet",
                   help="controllability metric (default: logdet)")
    p.add_argument("--candidate", default="laplacian",
                   help="candidate edges: all-pairs, laplacian, or an "
                        "explicit list like 3-1,2-1 (default: laplacian)")


def _add_optimizer_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s", type=int, default=1,
                   help="number of edges to modify (default: 1)")
    p.add_argument("--beta", type=float, default=1.0,
                   help="Euclidean modification budget (default: 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="restart RNG seed (default: 0)")
    p.add_argument("--restarts", type=int, default=8,
                   help="multi-start count (default: 8)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powergram",
        description="Gramian-based edge centrality and budgeted line "
                    "modification for generator networks",
    )
    parser.add_argument("--version", action="version",
                        version=f"powergram {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze",
                       help="rank edges by Gramian sensitivity and NNEC")
    _add_common(p)
    _add_metric_opts(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("modify",
                       help="optimize a budgeted modification of the top edges")
    _add_common(p)
    _add_metric_opts(p)
    _add_optimizer_opts(p)
    p.add_argument("--rho", default=None,
                   help="comma-separated phase parameters to recover modified "
                        "admittances (requires admittance-form input)")
    p.add_argument("--beta-sweep", type=int, default=0, metavar="K",
                   help="also sweep K budgets in (0, beta], warm-started")
    p.set_defaults(func=cmd_modify)

    p = sub.add_parser("oracle",
                       help="exhaustive best/worst subsets vs the ECM pick")
    _add_common(p)
    _add_metric_opts(p)
    _add_optimizer_opts(p)
    p.add_argument("--cap", type=int, default=100_000,
                   help="max subset count before refusal (default: 100000)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("energy",
                       help="minimum steering energy statistics")
    _add_common(p)
    p.add_argument("--tf", default="auto",
                   help="steering horizon, or 'auto' for -1/alpha (default)")
    p.add_argument("--samples", type=int, default=10_000,
                   help="number of random initial states, 0 or at least 2 "
                        "(default: 10000)")
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed (default: 0)")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("damping",
                       help="pole damping ratios, optionally before/after")
    _add_common(p)
    p.add_argument("--modified", default=None,
                   help="second network file to compare against (e.g. the "
                        "modified_network.json from a modify run)")
    p.set_defaults(func=cmd_damping)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CombinationCapError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 5
    except ModelError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except (StabilityError, NumericalError, PowergramError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
