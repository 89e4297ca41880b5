"""Seed-bank Wright-Fisher models and manifold-reduction machinery."""

__version__ = "0.1.0"

from .core_model import (
    Banks,
    FastEnvSpec,
    GerminationDistribution,
    SlowEnvSpec,
    tail_sums,
    validate_distribution,
)
from .manifold_reduction import (
    FlowField,
    ManifoldChart,
    ReductionResult,
    diagonal_chart,
    fd_hessians,
    fd_jacobian,
    null_eigenpair,
    phi0_derivatives,
    projections,
    reduce_point,
    solve_theta,
    spectrum_gate,
    theta_integral,
)
from .seedbank_flows import (
    FlowKind,
    build_flow,
    delta_matrix,
    drift_bound,
    drift_k1_closed,
    drift_k2_closed,
    drift_second_derivative,
    eigvecs_on_gamma,
    h_function,
    hessians_on_gamma,
    jacobian_on_gamma,
    manifold_chart,
)
from .branching_phase import psi
from .diffusion_limits import (
    SdeSpec,
    g_function,
    kolmogorov_fixation,
    sample_absorption,
    scale_fixation,
    sde_constant,
)
from .wf_simulators import (
    EnvProcess,
    FixationEstimate,
    make_env_process,
    run_fixation,
)
