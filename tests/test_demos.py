"""Smoke test: the narrative demos run to completion.

Each demo runs in a fresh interpreter with ``src`` on the path and must
exit 0; the demos assert their own invariants (a monotone budget sweep,
an admittance that realizes the optimized change). Together they take
about 7 s. ``minimum_energy.py`` is left out: it integrates the steering
law with an ODE solver and takes about 12 s on its own, and the energy
identity it shows is already acceptance criterion 7.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "edge_centrality.py",
        "budgeted_modification.py",
        "near_optimality.py",
        "damping_and_sweep.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
