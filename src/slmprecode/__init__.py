"""Transmit-energy analysis of channel-inversion precoding with selective mapping.

The package computes the closed-form minimum average transmit energy of a
square-channel inverting broadcast precoder, the large-candidate-count
limits of minimum-energy selection (selective mapping), and simulates
three practical realizations: random candidate sets, vector perturbation,
and sign-bit trellis / nested-lattice shaping.
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyCandidateSetError,
    IllConditionedError,
    LengthMismatchError,
    NoConvergenceError,
    NonPositiveEigenvalueError,
    NonSquareError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    ParseError,
    PrecodingError,
    ReportIOError,
    SearchBudgetExceededError,
    SingularMatrixError,
)
from .linalg import EigenSystem, cholesky, invert, sym_eigen
from .theory import (
    ChannelMatrix,
    TheoryReport,
    average_energy,
    ball_volume,
    build_channel,
    channel_gain,
    e_opt,
    e_slm,
    equivalent_radius_sq,
    optimal_covariance,
    sigma_from_entropy,
    slm_limit_general,
    slm_limit_uniform,
    theory_report,
)
from .regions import (
    Region,
    Sampler,
    ball,
    channel_stream,
    expanded_region,
    gaussian,
    hypercube,
    make_stream,
)
from .precoders import (
    PrecodeResult,
    fold_interval,
    invert_precode,
    offset_range,
    receiver_verify,
    slm_random,
    vector_perturb,
)
from .shaping import (
    LatticePartition,
    PartitionedConstellation,
    ShapingCode,
    code_from_octal,
    coset_to_payload,
    default_code,
    lattice_partition,
    nested_select,
    pam_constellation,
    payload_to_coset,
    shaping_code,
    trellis_shape,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    format_csv,
    format_json,
    load_channel,
    load_config,
    run_experiment,
    sweep_experiment,
    write_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
