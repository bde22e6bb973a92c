"""Simulator and bound toolbox for Gaussian many-user channels with random
user activity: two-phase (signature + joint ML) and pilot+PPM orthogonal
transmission, plus every closed-form achievability and converse expression
needed to chart the capacity-per-unit-energy phase transition at desk scale.
"""

from .bounds import BoundReport
from .channel import JointPlan, OrthoPlan, awgn, make_joint_plan, make_ortho_plan, transmit_joint, transmit_ortho
from .codebooks import Codebook, MuEstimate, SignatureMatrix, gen_codebook, gen_ppm_codebook, gen_signatures, mu_chernoff_lb, mu_exact, mu_monte_carlo
from .decoding import BoundParams, ErrorStats, decode_joint_ml, decode_ppm, ortho_receive, score_errors, two_phase_receive
from .detection import DetectionResult, detect_ls_exhaustive, detect_pilot, detection_stats, v_cap
from .errors import ComplexityBudgetError, ConfigError, InvalidRegimeError
from .harness import ExperimentConfig, GrowthFamily, TrialRecord, classify_regime, estimate_error, run_trial, sweep
from .model import EnergySchedule, RateSpec, SystemParams, binary_entropy, make_joint_schedule, make_ortho_schedule, sample_messages, single_user_capacity_pue
from .partition import Partition, TypeClass, build_partition, hamming, typeclass_probability, verify_partition
from .rng import make_rng, mix_seed, splitmix64, substream

__version__ = "0.1.0"
