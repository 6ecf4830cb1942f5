import numpy as np
import pytest

import powergram.linalg
from powergram import (
    GeneratorNetwork,
    build_reduced_system,
    bundled_network_path,
    ingest,
)


@pytest.fixture(scope="session")
def ieee9():
    return ingest(bundled_network_path("ieee9"))


@pytest.fixture(scope="session")
def ieee9_sys(ieee9):
    return build_reduced_system(ieee9)


@pytest.fixture(scope="session")
def toy2():
    """Two generators, one unit line: the smallest nontrivial network."""
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return GeneratorNetwork(M=np.ones(2), D=np.ones(2), L=L)


@pytest.fixture(scope="session")
def toy3():
    """Three generators on a weighted triangle with distinct parameters."""
    G = np.array(
        [
            [0.0, 2.0, 0.5],
            [2.0, 0.0, 1.0],
            [0.5, 1.0, 0.0],
        ]
    )
    L = np.diag(G.sum(axis=1)) - G
    M = np.array([0.05, 0.08, 0.12])
    D = np.array([0.02, 0.03, 0.04])
    return GeneratorNetwork(M=M, D=D, L=L)


@pytest.fixture(scope="session")
def toy3_path(toy3):
    """Three-node chain (no 3-2 edge), for support-set filtering tests."""
    G = np.array(
        [
            [0.0, 1.5, 0.7],
            [1.5, 0.0, 0.0],
            [0.7, 0.0, 0.0],
        ]
    )
    L = np.diag(G.sum(axis=1)) - G
    return GeneratorNetwork(M=toy3.M, D=toy3.D, L=L)


class LapackCalls:
    """Schur factorizations and Sylvester solves made through powergram.linalg.

    ``dgees`` holds a copy of each factored matrix, ``dtrsyl`` the
    ``trana`` flag of each triangular solve ("T" marks an adjoint solve
    A^T P + P A + G = 0), and ``eigvals`` counts ``np.linalg.eigvals`` calls.
    """

    def __init__(self):
        self.clear()

    def clear(self):
        self.dgees = []
        self.dtrsyl = []
        self.eigvals = 0


@pytest.fixture
def lapack_calls(monkeypatch):
    calls = LapackCalls()
    real_dgees = powergram.linalg.dgees
    real_dtrsyl = powergram.linalg.dtrsyl
    real_eigvals = np.linalg.eigvals

    def dgees(select, A, *args, **kwargs):
        calls.dgees.append(np.array(A))
        return real_dgees(select, A, *args, **kwargs)

    def dtrsyl(*args, **kwargs):
        calls.dtrsyl.append(kwargs.get("trana", "N"))
        return real_dtrsyl(*args, **kwargs)

    def eigvals(A):
        calls.eigvals += 1
        return real_eigvals(A)

    monkeypatch.setattr(powergram.linalg, "dgees", dgees)
    monkeypatch.setattr(powergram.linalg, "dtrsyl", dtrsyl)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    return calls
