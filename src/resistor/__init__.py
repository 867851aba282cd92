"""Adversarial lower-bound oracles for k-th order convex optimization
over the unit ball: hard-instance construction, smoothing evaluator,
resisting-oracle protocols, baseline optimizers and a certification
harness."""

from .evaluator import (
    EXACT_AFFINE,
    MONTE_CARLO,
    MCBudget,
    OracleResponse,
    locally_affine_index,
    oracle_answer,
    piece_values,
    rescale_to_smoothness,
    smoothed_gradient_mc,
    smoothed_value_mc,
    suboptimality_certificate,
)
from .geometry import (
    OrthonormalBasis,
    arbitrary_perp_unit,
    orthonormal_extend,
    perp_component,
    random_orthonormal_basis,
    sample_ball,
    sample_sphere,
)
from .harness import (
    RunConfig,
    RunReport,
    emit_report,
    run_experiment,
    run_verification,
    sweep,
    verify_invariance,
    verify_lipschitz,
    verify_locality,
)
from .instance import (
    DETERMINISTIC,
    RANDOMIZED,
    AffinePiece,
    HardInstance,
    InstanceParams,
    append_piece,
    from_json,
    params_deterministic,
    params_randomized,
    pessimal_point,
    randomized_dimension,
    shift_of,
    to_json,
    validate,
)
from .oracles import (
    AdaptiveOracle,
    ConsistencyReport,
    EventECheck,
    OracleExhaustedError,
    RandomizedOracle,
    Transcript,
    event_e_check,
    replay_consistency,
)
from .optimizers import (
    project_ball,
    run_accelerated_gradient,
    run_cubic_newton,
    run_method,
    run_projected_subgradient,
)
from .streams import child_seed, stream

__version__ = "0.1.0"
