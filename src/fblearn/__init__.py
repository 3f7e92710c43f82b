"""Learned feedback-linearization tracking control and its analysis toolkit."""

from .analysis import (PEReport, StabilityFit, assemble_W, fit_exponential_bound,
                       interp_matrix_series, least_squares_gradient, ltv_matrix, pe_check,
                       simulate_ideal, transition_matrix, transition_norm_grid)
from .basis import (BasisSet, build_rbf_grid, controller_jacobian, eval_correction,
                    eval_learned_controller, polynomial_basis, rbf_basis)
from .config import ExperimentConfig, config_from_dict, load_config
from .errors import (ConfigError, DimensionError, DivergenceError, FblearnError,
                     SingularMatrixError)
from .learning import (BASELINES, AdaptRunRecord, PolicyConfig, derive_seed,
                       discrete_reward, grad_log_policy, run_episode, run_episodes, step_rng,
                       update_params)
from .linearize import (GainMatrix, ReferenceModel, build_reference_model, design_gain,
                        exact_tracking_control, tracking_error)
from .plants import (DoublePendulumParams, PlantModel, eval_dynamics, linearizing_terms,
                     make_chain_plant, make_double_pendulum, make_inspan_plant, rk4_step,
                     simulate_closed_loop)
from .reference import ReferenceSample, SinusoidSum, sample_reference, two_tone_reference
from .scenarios import Scenario, build_scenario, policy_config
from .studies import (BiasReport, ConcentrationReport, DisturbanceSamples, GradientStudy,
                      bias_study, concentration_study, mc_gradient_samples,
                      measure_disturbances, regressor_series)

__all__ = [name for name in dir() if not name.startswith("_")]
