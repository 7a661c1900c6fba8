"""Learned noise-cancelling summary statistics for likelihood-free inference.

The package trains noise-conditional autoencoders (ENCA with explicit bare
noise, INCA with implicit replica information) on two benchmark stochastic
iterative maps, then runs simulated-annealing ABC in the learned statistic
space and validates against exact-likelihood Metropolis posteriors.
"""

__version__ = "0.1.0"

from . import abcsampler, diagnostics, enca, encoder, inca, mcmc, models, suffstats, tensor
from .errors import (
    DegenerateLikelihoodError,
    DegenerateStatisticError,
    InvalidParameterError,
    SimulationDivergedError,
    StatforgeError,
    TrainingDivergedError,
    UndefinedStatisticError,
)
from .models import (
    BareNoise,
    DynamoMap,
    ParameterVector,
    PriorSpec,
    Trajectory,
    bifurcation_sweep,
    draw_bare_noise,
    log_likelihood,
    log_likelihood_fn,
    prior_for,
    sample_prior,
    simulate,
    simulate_batch,
    simulate_dynamo,
    simulate_nlar1,
    stream,
    transition_density_dynamo,
    transition_density_nlar1,
)
from .samples import SampleSet
from .suffstats import SufficientStats, mle_alpha, mle_sigma2, order_param, suff_stats
