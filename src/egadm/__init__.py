"""Extragradient-based alternating-direction solvers for two-block convex
programs ``min f(x) + g(y) s.t. A x + B y = b`` where f has a cheap
structured prox and g is smooth with a known gradient Lipschitz bound."""

from .linalg import spectral_norm_sq
from .operators import AffineProjector, l1_prox
from .problem import (
    Coupling,
    LinearMap,
    ProxBlock,
    SmoothBlock,
    TwoBlockProblem,
    identity_map,
    kkt_lipschitz_bound,
    lagrangian,
)
from .solver import (
    DivergenceError,
    IterateState,
    SolveReport,
    SolverConfig,
    VariantKind,
    ergodic_checkpoints,
    gap_surrogate,
    initial_state,
    iterate,
    resolve_gamma,
    solve,
)

__all__ = [
    "AffineProjector",
    "Coupling",
    "DivergenceError",
    "IterateState",
    "LinearMap",
    "ProxBlock",
    "SmoothBlock",
    "SolveReport",
    "SolverConfig",
    "TwoBlockProblem",
    "VariantKind",
    "ergodic_checkpoints",
    "gap_surrogate",
    "identity_map",
    "initial_state",
    "iterate",
    "kkt_lipschitz_bound",
    "l1_prox",
    "lagrangian",
    "resolve_gamma",
    "solve",
    "spectral_norm_sq",
]

__version__ = "0.1.0"
