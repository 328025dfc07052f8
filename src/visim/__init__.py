"""visim: distributed variational-inequality solvers under data similarity.

A simulated parameter-server cluster, Bregman geometries (entropy on the
simplex, Euclidean, scaled a-norm on balls), the similarity-exploiting
outer solver with its composite extragradient inner loop, a restarted
variant for strongly monotone operators, extragradient baselines, and a
matrix-game benchmark harness with a CLI.
"""

from .baselines import BaselineConfig, BaselineKind, euclidean_paus_run, mirror_prox_run
from .bench import (
    ExperimentResult,
    GameSpec,
    base_matrix,
    emit_csv,
    estimate_constants,
    generate_game,
    rounds_to_eps,
    run_comparison,
    run_sweep,
)
from .cluster import ClusterState, gather_average, reset_counters, shard_data
from .errors import VisimError
from .geometry import (
    Domain,
    DomainKind,
    DualVector,
    GeometryKind,
    GeometrySetup,
    Point,
    a_norm_ball,
    bregman_divergence,
    composite_prox_map,
    dgf_grad,
    dgf_value,
    entropy_simplex,
    euclidean_ball,
    euclidean_simplex,
    max_divergence_bound,
    omega_d,
    prox_map,
    recenter,
    uniform_point,
)
from .inner import CompositeProblem, InnerSettings, composite_mp
from .operators import (
    OperatorShard,
    SaddleBilinear,
    SimilarityConstants,
    affine_shard,
    average_operator,
    empirical_similarity_check,
    lipschitz_matrix_game,
    saddle_shard,
    similarity_matrix_game,
)
from .paus import (
    PausConfig,
    PausResult,
    RunRecord,
    duality_gap,
    paus_run,
)
from .restart import (
    RestartConfig,
    RestartResult,
    num_restarts,
    paus_r,
    stage_length,
    synthetic_strongly_monotone,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineConfig", "BaselineKind", "ClusterState", "CompositeProblem",
    "Domain", "DomainKind", "DualVector", "ExperimentResult", "GameSpec",
    "GeometryKind", "GeometrySetup", "InnerSettings", "OperatorShard",
    "PausConfig", "PausResult", "Point", "RestartConfig", "RestartResult",
    "RunRecord", "SaddleBilinear", "SimilarityConstants", "VisimError",
    "a_norm_ball", "affine_shard", "average_operator", "base_matrix",
    "bregman_divergence", "composite_mp", "composite_prox_map", "dgf_grad",
    "dgf_value", "duality_gap", "emit_csv", "empirical_similarity_check",
    "entropy_simplex", "estimate_constants", "euclidean_ball",
    "euclidean_paus_run", "euclidean_simplex", "gather_average",
    "generate_game", "lipschitz_matrix_game", "max_divergence_bound",
    "mirror_prox_run",
    "num_restarts", "omega_d", "paus_r", "paus_run", "prox_map", "recenter",
    "reset_counters", "rounds_to_eps", "run_comparison", "run_sweep",
    "saddle_shard",
    "shard_data", "similarity_matrix_game", "stage_length",
    "synthetic_strongly_monotone", "uniform_point",
]
