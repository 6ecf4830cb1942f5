import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powergram.centrality
from oracles import (
    fd_all_metric_gradients,
    per_edge_ecm_entry,
    random_connected_network,
)
from powergram import (
    CandidateEdgeSet,
    CandidateKind,
    EdgeId,
    GeneratorNetwork,
    GramianMetric,
    build_ecm,
    build_projection,
    build_reduced_system,
    ecm_entry,
    edge_direction_matrix,
    gramian_infinite,
    nnec_report,
    reduced_pair,
    select_edge_set,
)


class TestCandidateEdgeSet:
    def test_all_pairs_order(self):
        edges = CandidateEdgeSet.all_pairs(3).edges
        assert edges == (EdgeId(2, 1), EdgeId(3, 1), EdgeId(3, 2))
        assert CandidateEdgeSet.all_pairs(3).provenance is CandidateKind.ALL_PAIRS
        assert len(CandidateEdgeSet.all_pairs(5)) == 10

    def test_laplacian_support_of_complete_graph(self, ieee9):
        support = CandidateEdgeSet.laplacian_support(ieee9)
        assert support.edges == CandidateEdgeSet.all_pairs(3).edges
        assert support.provenance is CandidateKind.LAPLACIAN_SUPPORT

    def test_laplacian_support_skips_absent_edges(self, toy3_path):
        support = CandidateEdgeSet.laplacian_support(toy3_path)
        assert support.edges == (EdgeId(2, 1), EdgeId(3, 1))

    def test_explicit_and_duplicates(self):
        cand = CandidateEdgeSet.explicit([EdgeId(3, 1)])
        assert cand.provenance is CandidateKind.EXPLICIT
        assert EdgeId(3, 1) in cand
        with pytest.raises(ValueError, match="duplicates"):
            CandidateEdgeSet.explicit([EdgeId(3, 1), EdgeId(3, 1)])

    def test_iteration_matches_edges(self):
        cand = CandidateEdgeSet.all_pairs(4)
        assert tuple(iter(cand)) == cand.edges


class TestEdgeDirectionMatrix:
    def test_two_generator_direct_form(self, toy2):
        sys = build_reduced_system(toy2)
        F = edge_direction_matrix(sys, toy2, EdgeId(2, 1))
        V = np.array([[1.0, -1.0], [-1.0, 1.0]])
        expected = np.zeros((3, 3))
        expected[1:, :1] = -(V @ sys.U) / toy2.M[:, None]
        assert np.array_equal(F, expected)

    def test_equals_affine_difference(self, toy3):
        # A is affine in L, so the direction is a literal matrix difference.
        sys = build_reduced_system(toy3)
        U, _ = build_projection(toy3.N)
        for edge in CandidateEdgeSet.all_pairs(toy3.N):
            F = edge_direction_matrix(sys, toy3, edge)
            V = np.zeros((3, 3))
            a, b = edge.i - 1, edge.j - 1
            V[a, a] = V[b, b] = 1.0
            V[a, b] = V[b, a] = -1.0
            A_plus, _ = reduced_pair(toy3.M, toy3.D, toy3.L + V, U)
            A_base, _ = reduced_pair(toy3.M, toy3.D, toy3.L, U)
            assert np.linalg.norm(F - (A_plus - A_base)) <= 1e-12

    def test_low_rank(self, ieee9, ieee9_sys):
        F = edge_direction_matrix(ieee9_sys, ieee9, EdgeId(3, 1))
        assert np.linalg.matrix_rank(F, tol=1e-12) <= 2


class TestEcmEntry:
    def test_matches_finite_differences_on_toy(self, toy3):
        sys = build_reduced_system(toy3)
        W = gramian_infinite(sys).W
        for edge in CandidateEdgeSet.all_pairs(toy3.N):
            fd = fd_all_metric_gradients(toy3, edge)
            for metric in GramianMetric:
                entry = ecm_entry(sys, W, edge, metric)
                assert entry == pytest.approx(fd[metric], rel=1e-6, abs=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_finite_differences_on_random_networks(self, seed):
        rng = np.random.default_rng(seed)
        net = random_connected_network(rng, int(rng.integers(3, 6)))
        sys = build_reduced_system(net)
        W = gramian_infinite(sys).W
        edge = CandidateEdgeSet.laplacian_support(net).edges[0]
        fd = fd_all_metric_gradients(net, edge)
        for metric in GramianMetric:
            entry = ecm_entry(sys, W, edge, metric)
            assert entry == pytest.approx(fd[metric], rel=1e-5)

    def test_trace_gradient_signs_on_nine_bus(self, ieee9, ieee9_sys):
        # Strengthening (3,1) raises tr(W), the other two lines lower it;
        # this sign pattern is what makes the trace-optimal modification
        # strengthen one edge while weakening another.
        W = gramian_infinite(ieee9_sys).W
        entry = lambda e: ecm_entry(ieee9_sys, W, e, GramianMetric.TRACE)
        assert entry(EdgeId(3, 1)) > 0
        assert entry(EdgeId(2, 1)) < 0
        assert entry(EdgeId(3, 2)) < 0


class TestBuildEcm:
    @pytest.mark.parametrize("metric", list(GramianMetric))
    def test_nine_bus_ranking(self, ieee9, ieee9_sys, metric):
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        report = build_ecm(ieee9_sys, ieee9, candidate, metric)
        assert report.ranking[0] == EdgeId(3, 1)
        assert set(report.ranking[:2]) == {EdgeId(2, 1), EdgeId(3, 1)}
        assert report.metric is metric

    def test_report_structure(self, ieee9, ieee9_sys):
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        report = build_ecm(ieee9_sys, ieee9, candidate, GramianMetric.LOG_DET)
        assert np.array_equal(report.impact, np.abs(report.upsilon))
        assert np.array_equal(report.upsilon, report.upsilon.T)
        assert sorted(report.ranking) == sorted(candidate.edges)
        assert np.all(np.diff(report.tau) <= 0)
        assert report.tau[0] == report.impact[2, 0]
        assert report.value(EdgeId(3, 1)) == report.upsilon[2, 0]

    def test_singleton_candidate(self, ieee9, ieee9_sys):
        candidate = CandidateEdgeSet.explicit([EdgeId(2, 1)])
        report = build_ecm(ieee9_sys, ieee9, candidate, GramianMetric.TRACE)
        assert report.ranking == (EdgeId(2, 1),)
        assert report.upsilon[2, 0] == 0.0  # outside the candidate set

    def test_empty_or_out_of_range_candidate_rejected(self, ieee9, ieee9_sys):
        with pytest.raises(ValueError, match="empty"):
            build_ecm(
                ieee9_sys, ieee9, CandidateEdgeSet.explicit([]), GramianMetric.TRACE
            )
        with pytest.raises(ValueError, match="out of range"):
            build_ecm(
                ieee9_sys,
                ieee9,
                CandidateEdgeSet.explicit([EdgeId(7, 1)]),
                GramianMetric.TRACE,
            )

    def test_symmetric_network_impacts_agree(self):
        # Uniform complete triangle with equal M, D: all edges carry the
        # same impact up to projection roundoff, and the published ranking
        # must be exactly what the documented sort key produces.
        G = np.ones((3, 3)) - np.eye(3)
        L = np.diag(G.sum(axis=1)) - G
        net = GeneratorNetwork(M=np.full(3, 0.05), D=np.full(3, 0.01), L=L)
        sys = build_reduced_system(net)
        report = build_ecm(
            sys, net, CandidateEdgeSet.laplacian_support(net), GramianMetric.LOG_DET
        )
        assert np.ptp(report.tau) <= 1e-9 * abs(report.tau[0])
        expected = tuple(
            sorted(
                report.candidate.edges,
                key=lambda e: (-report.impact[e.i - 1, e.j - 1], e.j, e.i),
            )
        )
        assert report.ranking == expected

    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_per_edge_solve_over_all_pairs(self, n):
        # All pairs include generator pairs with no line, which the
        # finite-difference oracle cannot reach: its -delta step would
        # create a positive coupling.
        rng = np.random.default_rng(n)
        net = random_connected_network(rng, n)
        sys = build_reduced_system(net)
        candidate = CandidateEdgeSet.all_pairs(n)
        for metric in GramianMetric:
            report = build_ecm(sys, net, candidate, metric)
            got = np.array([report.value(e) for e in candidate])
            ref = np.array([per_edge_ecm_entry(sys, e, metric) for e in candidate])
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n, all_pairs", [(3, False), (12, True)])
    def test_one_adjoint_solve_per_build(self, monkeypatch, n, all_pairs):
        real = powergram.centrality.solve_lyapunov
        calls = []

        def counting(A, Q):
            calls.append(A.shape)
            return real(A, Q)

        monkeypatch.setattr(powergram.centrality, "solve_lyapunov", counting)
        net = random_connected_network(np.random.default_rng(n), n)
        candidate = (
            CandidateEdgeSet.all_pairs(n)
            if all_pairs
            else CandidateEdgeSet.explicit([EdgeId(2, 1)])
        )
        for metric in GramianMetric:
            calls.clear()
            build_ecm(build_reduced_system(net), net, candidate, metric)
            assert len(calls) == 1

    def test_ranking_invariant_under_impact_scaling(self, ieee9, ieee9_sys):
        # Rescaling all impacts by a positive factor preserves the order
        # produced by the tie-broken sort key.
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        report = build_ecm(ieee9_sys, ieee9, candidate, GramianMetric.NEG_TRACE_INV)
        for c in (0.5, 3.0, 1e6):
            rescored = tuple(
                sorted(
                    candidate.edges,
                    key=lambda e: (-c * report.impact[e.i - 1, e.j - 1], e.j, e.i),
                )
            )
            assert rescored == report.ranking


class TestSelectEdgeSet:
    def test_prefix_selection(self, ieee9, ieee9_sys):
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        report = build_ecm(ieee9_sys, ieee9, candidate, GramianMetric.LOG_DET)
        assert select_edge_set(report, 1) == report.ranking[:1]
        assert select_edge_set(report, 3) == report.ranking

    def test_out_of_range(self, ieee9, ieee9_sys):
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        report = build_ecm(ieee9_sys, ieee9, candidate, GramianMetric.LOG_DET)
        for s in (0, -1, 4):
            with pytest.raises(ValueError):
                select_edge_set(report, s)


class TestNnec:
    def test_nine_bus_sets(self, ieee9):
        _, ranking = nnec_report(ieee9)
        assert ranking[0] == EdgeId(3, 2)
        assert set(ranking[:2]) == {EdgeId(2, 1), EdgeId(3, 2)}

    def test_independent_of_inertia_and_damping(self, ieee9):
        lam1, rank1 = nnec_report(ieee9)
        other = GeneratorNetwork(
            M=np.full(ieee9.N, 7.0), D=np.full(ieee9.N, 0.3), L=ieee9.L
        )
        lam2, rank2 = nnec_report(other)
        assert np.array_equal(lam1, lam2)
        assert rank1 == rank2

    def test_uniform_triangle_is_tied_lexicographically(self):
        G = 2.0 * (np.ones((3, 3)) - np.eye(3))
        L = np.diag(G.sum(axis=1)) - G
        net = GeneratorNetwork(M=np.ones(3), D=np.ones(3), L=L)
        lam, ranking = nnec_report(net)
        values = [lam[e.i - 1, e.j - 1] for e in ranking]
        assert values[0] == values[1] == values[2]
        assert ranking == (EdgeId(2, 1), EdgeId(3, 1), EdgeId(3, 2))

    def test_closed_form_on_path(self, toy3_path):
        # Weights: g21 = 1.5, g31 = 0.7; strengths rho = (2.2, 1.5, 0.7).
        lam, ranking = nnec_report(toy3_path)
        expected_21 = (2.2 + 1.5 - 2 * 1.5) / (abs(2.2 - 1.5) + 1) * 1.5
        expected_31 = (2.2 + 0.7 - 2 * 0.7) / (abs(2.2 - 0.7) + 1) * 0.7
        assert lam[1, 0] == pytest.approx(expected_21, rel=1e-12)
        assert lam[2, 0] == pytest.approx(expected_31, rel=1e-12)
        assert lam[2, 1] == 0.0  # edge absent from the support
        assert set(ranking) == {EdgeId(2, 1), EdgeId(3, 1)}

    def test_symmetric_matrix(self, ieee9):
        lam, _ = nnec_report(ieee9)
        assert np.array_equal(lam, lam.T)
        assert np.all(np.diag(lam) == 0.0)
