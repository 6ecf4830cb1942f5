import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_connected_network
from powergram import (
    CandidateEdgeSet,
    EdgeId,
    GeneratorNetwork,
    ModelError,
    ReducedAdmittanceData,
    StabilityError,
    build_projection,
    build_reduced_system,
    edge_laplacian,
    gramian_infinite,
    laplacian_from_admittance,
    nnec_report,
    recover_modified_admittance,
    reduced_pair,
    save_network,
)
from powergram.cli import main


class TestEdgeId:
    def test_valid_construction(self):
        e = EdgeId(3, 1)
        assert (e.i, e.j) == (3, 1)
        assert e.pair == (3, 1)
        assert str(e) == "(3,1)"

    def test_rejects_wrong_order_and_self_loops(self):
        with pytest.raises(ValueError):
            EdgeId(1, 3)
        with pytest.raises(ValueError):
            EdgeId(2, 2)
        with pytest.raises(ValueError):
            EdgeId(2, 0)
        with pytest.raises(ValueError):
            EdgeId(2.5, 1)

    def test_canonical_orders_any_pair(self):
        assert EdgeId.canonical(1, 3) == EdgeId(3, 1)
        assert EdgeId.canonical(3, 1) == EdgeId(3, 1)
        with pytest.raises(ValueError):
            EdgeId.canonical(2, 2)

    def test_ordering_is_lexicographic_in_j_then_i(self):
        # (j, i) ordering puts all edges at the lowest node first.
        edges = [EdgeId(3, 2), EdgeId(2, 1), EdgeId(3, 1)]
        assert sorted(edges) == [EdgeId(2, 1), EdgeId(3, 1), EdgeId(3, 2)]

    def test_hashable_and_equal(self):
        assert len({EdgeId(3, 1), EdgeId.canonical(1, 3)}) == 1


def test_edge_laplacian_pattern():
    V = edge_laplacian(EdgeId(3, 1), 3)
    expected = np.array(
        [[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]]
    )
    assert np.array_equal(V, expected)
    with pytest.raises(ValueError):
        edge_laplacian(EdgeId(4, 1), 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=40))
def test_projection_identities(N):
    U, T = build_projection(N)
    ones = np.ones(N)
    assert U.shape == (N, N - 1)
    assert np.linalg.norm(U.T @ U - np.eye(N - 1)) <= 1e-12
    assert np.linalg.norm(U.T @ ones) <= 1e-12
    assert np.linalg.norm(U @ U.T - (np.eye(N) - np.outer(ones, ones) / N)) <= 1e-12
    # The state projection annihilates the uniform-angle direction.
    assert np.linalg.norm(T.T @ np.concatenate([ones, np.zeros(N)])) <= 1e-12


def test_projection_small_cases():
    U2, _ = build_projection(2)
    assert np.allclose(np.abs(U2.ravel()), 1.0 / np.sqrt(2.0), atol=1e-15)
    with pytest.raises(ValueError):
        build_projection(1)


def test_projection_is_deterministic():
    U1, T1 = build_projection(9)
    U2, T2 = build_projection(9)
    assert np.array_equal(U1, U2)
    assert np.array_equal(T1, T2)


class TestGeneratorNetworkValidation:
    def test_asymmetric_laplacian_rejected(self):
        L = np.array([[1.0, -1.0], [-0.5, 0.5]])
        with pytest.raises(ModelError, match="asymmetric"):
            GeneratorNetwork(M=np.ones(2), D=np.ones(2), L=L)

    def test_positive_off_diagonal_rejected(self):
        L = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ModelError, match="positive off-diagonal"):
            GeneratorNetwork(M=np.ones(2), D=np.ones(2), L=L)

    def test_bad_row_sums_rejected(self):
        L = np.array([[2.0, -1.0], [-1.0, 2.0]])
        with pytest.raises(ModelError, match="sums to"):
            GeneratorNetwork(M=np.ones(2), D=np.ones(2), L=L)

    def test_nonpositive_inertia_or_damping_rejected(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(ModelError, match="inertia"):
            GeneratorNetwork(M=np.array([1.0, 0.0]), D=np.ones(2), L=L)
        with pytest.raises(ModelError, match="damping"):
            GeneratorNetwork(M=np.ones(2), D=np.array([1.0, -0.1]), L=L)

    def test_shape_mismatches_rejected(self):
        L = np.eye(3) - np.ones((3, 3)) / 3  # wrong size vs M
        with pytest.raises(ModelError):
            GeneratorNetwork(M=np.ones(2), D=np.ones(2), L=L)
        with pytest.raises(ModelError):
            GeneratorNetwork(M=np.ones(2), D=np.ones(3), L=np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        L = np.array([[np.inf, -np.inf], [-np.inf, np.inf]])
        with pytest.raises(ModelError, match="non-finite"):
            GeneratorNetwork(M=np.ones(2), D=np.ones(2), L=L)

    def test_edge_weight_reads_coupling(self, toy3):
        assert toy3.edge_weight(EdgeId(2, 1)) == 2.0
        assert toy3.edge_weight(EdgeId(3, 1)) == 0.5
        with pytest.raises(ValueError):
            toy3.edge_weight(EdgeId(4, 1))

    def test_with_laplacian_revalidates(self, toy2):
        with pytest.raises(ModelError):
            toy2.with_laplacian(np.array([[1.0, -1.0], [-0.5, 0.5]]))


def test_reduced_system_shape_and_stability(ieee9, ieee9_sys):
    n = ieee9.N
    assert ieee9_sys.order == 2 * n - 1
    assert ieee9_sys.A.shape == (2 * n - 1, 2 * n - 1)
    assert ieee9_sys.B.shape == (2 * n - 1, n)
    assert np.max(np.linalg.eigvals(ieee9_sys.A).real) < 0
    assert ieee9_sys.network is ieee9


def test_reduced_system_arrays_are_read_only(toy3):
    # The system keeps A's Schur factor and its Gramian, so an in-place
    # write to A, B or the kept W would leave them stale.
    sys = build_reduced_system(toy3)
    gram = gramian_infinite(sys)
    assert gramian_infinite(sys) is gram
    for arr in (sys.A, sys.B, gram.W):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
    Z, T = sys.schur.Z, sys.schur.T
    assert np.linalg.norm(sys.A - Z @ T @ Z.T) <= 1e-13 * np.linalg.norm(sys.A)


def test_reduced_system_matches_literal_projection(toy3):
    # The block shortcut must equal T^T [full swing matrices] T.
    sys = build_reduced_system(toy3)
    n = toy3.N
    Minv = np.diag(1.0 / toy3.M)
    A_full = np.zeros((2 * n, 2 * n))
    A_full[:n, n:] = np.eye(n)
    A_full[n:, :n] = -Minv @ toy3.L
    A_full[n:, n:] = -Minv @ np.diag(toy3.D)
    B_full = np.vstack([np.zeros((n, n)), Minv])
    assert np.linalg.norm(sys.A - sys.T.T @ A_full @ sys.T) <= 1e-12
    assert np.linalg.norm(sys.B - sys.T.T @ B_full) <= 1e-12
    # The unprojected dynamics keep the marginal average mode (up to the
    # rounding of each row of M^-1 L).
    ones_dir = np.concatenate([np.ones(n), np.zeros(n)])
    assert np.linalg.norm(A_full @ ones_dir) <= 1e-12 * np.linalg.norm(A_full)


def test_reduced_pair_is_affine_in_laplacian():
    rng = np.random.default_rng(42)
    net1 = random_connected_network(rng, 4)
    net2 = random_connected_network(rng, 4)
    U, _ = build_projection(4)
    M, D = net1.M, net1.D
    A_sum, _ = reduced_pair(M, D, net1.L + net2.L, U)
    A_1, _ = reduced_pair(M, D, net1.L, U)
    A_2, _ = reduced_pair(M, D, net2.L, U)
    A_0, _ = reduced_pair(M, D, np.zeros((4, 4)), U)
    assert np.linalg.norm((A_sum - A_2) - (A_1 - A_0)) <= 1e-12


def test_disconnected_network_is_rejected():
    # Node 3 is isolated: the projected system keeps a marginal mode.
    G = np.zeros((3, 3))
    G[0, 1] = G[1, 0] = 1.0
    L = np.diag(G.sum(axis=1)) - G
    net = GeneratorNetwork(M=np.ones(3), D=np.ones(3), L=L)
    with pytest.raises(StabilityError, match=r"generators \[3\]"):
        build_reduced_system(net)


def _is_stable(net):
    try:
        build_reduced_system(net)
    except StabilityError:
        return False
    return True


def test_connectivity_agrees_with_eigenvalues():
    # The reduced system is Hurwitz exactly when the lines above
    # SUPPORT_THRESHOLD connect the graph. Scaling every line across a
    # random cut checks that against an independent eigenvalue verdict.
    # The two disagree only for cut scales in [1e-13, 1e-11], where the
    # slow mode is within roundoff of the axis, so those are not drawn.
    for seed in range(100):
        rng = np.random.default_rng([seed, 15])
        n = int(rng.integers(3, 15))
        G = -random_connected_network(rng, n).L
        np.fill_diagonal(G, 0.0)
        M, D = np.exp(rng.uniform(np.log(0.01), 0.0, (2, n)))
        side = rng.permutation(np.arange(n) < int(rng.integers(1, n)))
        cut = side[:, None] != side[None, :]
        for scale in (0.0, 1e-14, 1e-9, 1e-6):
            H = np.where(cut, scale * G, G)
            L = np.diag(H.sum(axis=1)) - H
            ev = np.linalg.eigvals(reduced_pair(M, D, L, build_projection(n)[0])[0])
            hurwitz = ev.real.max() < -1e-12 * np.abs(ev).max()
            net = GeneratorNetwork(M=M, D=D, L=L)
            assert _is_stable(net) == hurwitz, (seed, scale)
            assert hurwitz == (scale > 1e-12)


def _bridged(bridge: float, D: float = 0.05) -> GeneratorNetwork:
    # Lines (2,1) and (4,3), joined by the bridge (3,2).
    G = np.zeros((4, 4))
    for (i, j, w) in ((2, 1, 1.0), (4, 3, 1.5), (3, 2, bridge)):
        G[i - 1, j - 1] = G[j - 1, i - 1] = w
    L = np.diag(G.sum(axis=1)) - G
    return GeneratorNetwork(M=np.ones(4), D=np.full(4, D), L=L)


def test_sub_threshold_bridge_is_absent_everywhere():
    # A 5e-13 bridge leaves the slow mode at about -1e-11, clear of a
    # margin of 1e-12 times the spectral radius; it is still not a line.
    net = _bridged(5e-13)
    support = CandidateEdgeSet.laplacian_support(net)
    assert support.edges == (EdgeId(2, 1), EdgeId(4, 3))
    lam, ranking = nnec_report(net)
    assert set(ranking) == {EdgeId(2, 1), EdgeId(4, 3)}
    assert np.array_equal(lam, nnec_report(_bridged(0.0))[0])
    with pytest.raises(StabilityError, match=r"generators \[3, 4\]"):
        build_reduced_system(net)


@pytest.mark.parametrize("D", [1.0, 0.05])
@pytest.mark.parametrize("bridge", [2e-12, 6e-12, 2e-11])
def test_weak_bridge_exits_cleanly(tmp_path, bridge, D):
    # Just above the threshold the network is accepted, and its Gramian
    # is huge; every subcommand answers or fails as numerical (exit 4).
    path = tmp_path / "bridged.json"
    save_network(_bridged(bridge, D), path)
    out = str(tmp_path / "out")
    for argv in (
        ["analyze"], ["modify"], ["oracle"], ["energy", "--samples", "10"],
        ["damping"],
    ):
        assert main([argv[0], str(path), "--out", out, *argv[1:]]) in (0, 4)


def _two_gen_admittance(y: complex, theta=(0.0, 0.0), E=(1.0, 1.0)):
    Y = np.array([[0.0, y], [y, 0.0]], dtype=complex)
    return ReducedAdmittanceData(Y=Y, voltage=np.array(E), angle=np.array(theta))


class TestLaplacianFromAdmittance:
    def test_purely_imaginary_flat_equilibrium(self):
        # phi = 0 and theta = 0: coupling is |y| E_1 E_2 exactly.
        data = _two_gen_admittance(-2.0j, E=(1.5, 2.0))
        L = laplacian_from_admittance(data)
        g = 2.0 * 1.5 * 2.0
        assert np.allclose(L, g * np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12)

    def test_rows_sum_to_zero_and_symmetric(self):
        data = ReducedAdmittanceData(
            Y=np.array(
                [
                    [0.0, 0.3 - 1.2j, 0.1 - 0.8j],
                    [0.3 - 1.2j, 0.0, 0.2 - 2.0j],
                    [0.1 - 0.8j, 0.2 - 2.0j, 0.0],
                ]
            ),
            voltage=np.array([1.0, 1.04, 0.98]),
            angle=np.array([0.0, 0.05, -0.03]),
        )
        L = laplacian_from_admittance(data)
        assert np.max(np.abs(L.sum(axis=1))) <= 1e-12
        assert np.array_equal(L, L.T)
        assert np.all(L[~np.eye(3, dtype=bool)] <= 0)

    def test_zero_admittance_gives_no_coupling(self):
        data = ReducedAdmittanceData(
            Y=np.zeros((2, 2), dtype=complex),
            voltage=np.ones(2),
            angle=np.zeros(2),
        )
        assert np.array_equal(laplacian_from_admittance(data), np.zeros((2, 2)))

    # The index-dependent phase shift makes the general complex case
    # orientation-sensitive by construction, so relabeling invariance is
    # only claimed where the phase term drops out: purely susceptive
    # admittance (zero phase shift) or a flat equilibrium (cos is even).

    @pytest.mark.parametrize(
        "Y_scale, th",
        [
            (1.0j, np.array([0.0, 0.05, -0.03])),
            (0.25 + 1.0j, np.zeros(3)),
        ],
    )
    def test_relabeling_invariance_without_phase_mixing(self, Y_scale, th):
        base = np.array(
            [
                [0.0, -1.2, -0.8],
                [-1.2, 0.0, -2.0],
                [-0.8, -2.0, 0.0],
            ]
        )
        Y = Y_scale * base
        E = np.array([1.0, 1.04, 0.98])
        L = laplacian_from_admittance(ReducedAdmittanceData(Y=Y, voltage=E, angle=th))
        perm = np.array([2, 0, 1])
        P = np.eye(3)[perm]
        L_perm = laplacian_from_admittance(
            ReducedAdmittanceData(
                Y=Y[np.ix_(perm, perm)], voltage=E[perm], angle=th[perm]
            )
        )
        assert np.allclose(L_perm, P @ L @ P.T, atol=1e-12)

    def test_inconsistent_equilibrium_rejected(self):
        # Angle difference past the phase margin flips the coupling sign.
        data = _two_gen_admittance(-1.0j, theta=(0.0, 3.0))
        with pytest.raises(ModelError, match="positive coupling"):
            laplacian_from_admittance(data)

    def test_admittance_data_validation(self):
        with pytest.raises(ModelError):
            ReducedAdmittanceData(
                Y=np.array([[0.0, 1.0j], [2.0j, 0.0]]),
                voltage=np.ones(2),
                angle=np.zeros(2),
            )
        with pytest.raises(ModelError):
            ReducedAdmittanceData(
                Y=np.zeros((2, 2)), voltage=np.array([1.0, -1.0]), angle=np.zeros(2)
            )
        with pytest.raises(ModelError):
            ReducedAdmittanceData(
                Y=np.zeros((2, 2)), voltage=np.ones(3), angle=np.zeros(2)
            )


class TestRecoverModifiedAdmittance:
    DATA = ReducedAdmittanceData(
        Y=np.array(
            [
                [0.0, 0.3 - 1.2j, 0.1 - 0.8j],
                [0.3 - 1.2j, 0.0, 0.2 - 2.0j],
                [0.1 - 0.8j, 0.2 - 2.0j, 0.0],
            ]
        ),
        voltage=np.array([1.0, 1.04, 0.98]),
        angle=np.array([0.0, 0.05, -0.03]),
    )

    def _roundtrip(self, edge, gamma, rho):
        y_hat = recover_modified_admittance(self.DATA, edge, gamma, rho)
        Y_new = self.DATA.Y.copy()
        a, b = edge.i - 1, edge.j - 1
        Y_new[a, b] = Y_new[b, a] = y_hat
        L_new = laplacian_from_admittance(
            ReducedAdmittanceData(
                Y=Y_new, voltage=self.DATA.voltage, angle=self.DATA.angle
            )
        )
        return L_new[a, b]

    @pytest.mark.parametrize("rho", [0.0, 0.25, 1.0, 4.0])
    @pytest.mark.parametrize("gamma", [0.4, -0.3, 0.0])
    def test_roundtrip_realizes_requested_coupling(self, gamma, rho):
        edge = EdgeId(3, 2)
        L = laplacian_from_admittance(self.DATA)
        l_new = self._roundtrip(edge, gamma, rho)
        assert l_new == pytest.approx(L[2, 1] - gamma, abs=1e-9)

    def test_rho_zero_is_purely_susceptive(self):
        y_hat = recover_modified_admittance(self.DATA, EdgeId(2, 1), 0.5, 0.0)
        assert y_hat.real == 0.0
        assert y_hat.imag != 0.0

    def test_rho_controls_conductance_split(self):
        # Same coupling for every rho, different real/imag balance.
        y0 = recover_modified_admittance(self.DATA, EdgeId(2, 1), 0.5, 0.1)
        y1 = recover_modified_admittance(self.DATA, EdgeId(2, 1), 0.5, 2.0)
        assert y0 != y1
        assert abs(y0.real / y0.imag) == pytest.approx(0.1, rel=1e-12)
        assert abs(y1.real / y1.imag) == pytest.approx(2.0, rel=1e-12)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            recover_modified_admittance(self.DATA, EdgeId(2, 1), 0.1, -1.0)

    def test_degenerate_phase_rejected(self):
        # theta difference plus the phase shift lands on the cosine zero.
        rho = 0.5
        theta = np.pi / 2 - np.arctan(rho)
        data = _two_gen_admittance(-1.0j, theta=(0.0, theta))
        with pytest.raises(ModelError, match="degenerate"):
            recover_modified_admittance(data, EdgeId(2, 1), 0.1, rho)
