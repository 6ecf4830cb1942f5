"""Gramian-based edge analysis and modification of generator networks.

The pipeline, end to end:

1. model a generator network (inertias, dampings, susceptance Laplacian)
   and reduce its swing dynamics to a stable state-space pair;
2. rank edges by the sensitivity of a controllability metric to their
   coupling strength (one adjoint Lyapunov solve for all edges);
3. optimize a budgeted susceptance modification on the top-ranked edges
   with multi-start projected gradient ascent, where every line keeps at
   least eps = 1e-3 of its coupling (``COUPLING_FLOOR``), so a budget
   past a line's cut stops at that floor;
4. judge the pick against the exhaustive best/worst subsets, minimum
   steering energy, and pole damping.
"""

from .errors import (
    CombinationCapError,
    ModelError,
    NotPositiveDefiniteError,
    NumericalError,
    PowergramError,
    StabilityError,
)
from .linalg import matrix_exponential, solve_lyapunov, symmetrize
from .network import (
    EdgeId,
    GeneratorNetwork,
    ReducedAdmittanceData,
    ReducedSystem,
    build_projection,
    build_reduced_system,
    edge_laplacian,
    laplacian_from_admittance,
    recover_modified_admittance,
    reduced_pair,
)
from .gramian import (
    GramianMetric,
    GramianResult,
    damping_ratio,
    damping_report,
    default_horizon,
    gramian_finite,
    gramian_infinite,
    metric_value,
    minimum_energy_cost,
    minimum_energy_input,
    sample_energy_costs,
    slowest_oscillatory_mode,
)
from .centrality import (
    CandidateEdgeSet,
    CandidateKind,
    EdgeCentralityReport,
    build_ecm,
    ecm_entry,
    edge_direction_matrix,
    nnec_report,
    select_edge_set,
)
from .modify import (
    COUPLING_FLOOR,
    AscentRecord,
    ModificationProblem,
    ModificationResult,
    OracleSummary,
    brute_force_oracle,
    delta_matrix,
    improvement_percent,
    modification_is_feasible,
    optimize_modification,
    random_edge_set,
)
from .io import bundled_network_path, ingest, save_network, serialize_network

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PowergramError",
    "ModelError",
    "StabilityError",
    "NumericalError",
    "NotPositiveDefiniteError",
    "CombinationCapError",
    # linear algebra kernel
    "solve_lyapunov",
    "matrix_exponential",
    "symmetrize",
    # network model
    "EdgeId",
    "GeneratorNetwork",
    "ReducedAdmittanceData",
    "ReducedSystem",
    "edge_laplacian",
    "laplacian_from_admittance",
    "build_projection",
    "reduced_pair",
    "build_reduced_system",
    "recover_modified_admittance",
    # Gramian analytics
    "GramianMetric",
    "GramianResult",
    "gramian_infinite",
    "gramian_finite",
    "metric_value",
    "default_horizon",
    "minimum_energy_cost",
    "minimum_energy_input",
    "sample_energy_costs",
    "damping_ratio",
    "damping_report",
    "slowest_oscillatory_mode",
    # edge centrality
    "CandidateKind",
    "CandidateEdgeSet",
    "EdgeCentralityReport",
    "edge_direction_matrix",
    "ecm_entry",
    "build_ecm",
    "select_edge_set",
    "nnec_report",
    # modification optimizer
    "COUPLING_FLOOR",
    "AscentRecord",
    "ModificationProblem",
    "ModificationResult",
    "OracleSummary",
    "delta_matrix",
    "optimize_modification",
    "improvement_percent",
    "modification_is_feasible",
    "brute_force_oracle",
    "random_edge_set",
    # ingestion / serialization
    "ingest",
    "serialize_network",
    "save_network",
    "bundled_network_path",
]
