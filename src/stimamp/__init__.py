"""Stimulated-emission amplifier statistics, EPR signaling, and causal-loop kinematics."""

from .amplifier import (
    EmissionConstants,
    Variant,
    branch_weights,
    lambda_squared,
    scatter,
)
from .fock import (
    E11,
    E20,
    apply_rotation,
    projection_triple,
    rotation2,
    single_photon_state,
    symmetric_lift,
    two_photon_rotation,
)
from .kinematics import (
    Event,
    LoopConfig,
    LoopReport,
    boost,
    compose_velocity,
    run_loop,
    violation_threshold,
)
from .protocol import (
    ProtocolConfig,
    linearity_gap,
    reduced_density,
    transmit,
)
from .statistics import (
    CountTriple,
    ProbabilityTriple,
    closed_form_probs,
    differential_sigma_20,
    first_principles_probs,
    monte_carlo_probs,
    sweep,
)

__version__ = "0.1.0"
