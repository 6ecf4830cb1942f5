"""Seeded synthetic networks for the benchmark workloads.

The recipe is the one the test suite uses for random networks
(``tests/oracles.py:random_connected_network``): a random spanning tree
for connectivity, every other pair coupled with probability 1/2,
weights uniform in [0.5, 2], inertias and dampings uniform in
[0.01, 0.2]. Draws are repeated until the edge count equals the
workload's target, so every seed poses a problem of the same size and
run-to-run differences in cost come from the values, not the size.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from powergram import (
    CandidateEdgeSet,
    GeneratorNetwork,
    build_reduced_system,
    ingest,
    save_network,
)

# A draw whose edge count misses the target is rejected; this many
# misses in a row means the target is unreachable for that N.
MAX_DRAWS = 10_000


def random_connected_network(rng: np.random.Generator, n: int, name: str) -> GeneratorNetwork:
    G = np.zeros((n, n))
    for node in range(1, n):
        anchor = int(rng.integers(0, node))
        w = rng.uniform(0.5, 2.0)
        G[node, anchor] = G[anchor, node] = w
    for a in range(n):
        for b in range(a + 1, n):
            if G[a, b] == 0.0 and rng.random() < 0.5:
                w = rng.uniform(0.5, 2.0)
                G[a, b] = G[b, a] = w
    L = np.diag(G.sum(axis=1)) - G
    M = rng.uniform(0.01, 0.2, size=n)
    D = rng.uniform(0.01, 0.2, size=n)
    return GeneratorNetwork(M=M, D=D, L=L, name=name)


def edge_count(net: GeneratorNetwork) -> int:
    return len(CandidateEdgeSet.laplacian_support(net))


def write_networks(seed: int, count: int, n: int, edges: int, out_dir: Path, stem: str):
    """Draw ``count`` networks with ``n`` generators and ``edges`` lines.

    Each network is written as a network JSON file, read back through
    the program's own ingestion and checked to round-trip and to give a
    stable reduced system. Returns ``(paths, draws)``, where ``draws``
    counts the rejected and accepted draws per network.
    """
    rng = np.random.default_rng(seed)
    paths, draws = [], []
    for k in range(count):
        for attempt in range(1, MAX_DRAWS + 1):
            net = random_connected_network(rng, n, f"{stem}-seed{seed}-{k}")
            if edge_count(net) == edges:
                break
        else:
            raise RuntimeError(f"no N={n} network with {edges} edges in {MAX_DRAWS} draws")
        path = out_dir / f"{stem}-{k}.json"
        save_network(net, path)
        back = ingest(path)
        if not (np.array_equal(back.M, net.M) and np.array_equal(back.D, net.D)
                and np.allclose(back.L, net.L, rtol=0.0, atol=1e-12)):
            raise RuntimeError(f"{path}: network does not round-trip through ingest")
        build_reduced_system(back)  # raises StabilityError if not Hurwitz
        paths.append(path)
        draws.append(attempt)
    return paths, draws
