"""Seed-bank Wright-Fisher models and manifold-reduction machinery."""

__version__ = "0.1.0"

from .core_model import (
    FastEnvSpec,
    GerminationDistribution,
    SlowEnvSpec,
    distribution_from_cli,
    distribution_from_json,
    mean_germination_time,
    tail_sums,
    validate_distribution,
)
from .manifold_reduction import (
    FlowField,
    ManifoldChart,
    ReductionResult,
    definiteness_of,
    diagonal_chart,
    fd_hessians,
    fd_jacobian,
    null_eigenpair,
    phi0_derivatives,
    project_to_manifold,
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
    fast_second_derivatives_k1,
    h_function,
    hessians_on_gamma,
    jacobian_on_gamma,
    manifold_chart,
    slow_env_derivatives,
    theta_fast_closed_k1,
    theta_g_closed,
)
from .branching_phase import (
    BranchingSpec,
    conditional_tail,
    frobenius_eigenvectors,
    mean_matrix,
    psi,
    simulate_branching,
    survival_constant,
)
from .diffusion_limits import (
    PdeGrid,
    SdeSpec,
    g_function,
    kolmogorov_fixation,
    psi_cap,
    sample_absorption,
    scale_closed_form,
    scale_fixation,
    sde_constant,
)
from .wf_simulators import (
    EnvProcess,
    FixationEstimate,
    make_env_process,
    run_fixation,
    step_constant,
    step_fast,
    step_slow,
)
