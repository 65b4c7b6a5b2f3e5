"""shadecraft: a numerical laboratory for strategic bidding against
revenue-maximizing auctions."""

__version__ = "0.1.0"

from .dist import (GPParams, DistributionModel, GPDistribution, GridDistribution,
                   GridFunction, make_gp, make_uniform, make_grid,
                   push_forward, conditional_tail_expectation,
                   invert_virtual_from_samples, invert_virtual_from_distribution,
                   model_from_config)
from .shade import (ShadingStrategy, LinearShading, GridShading, GPReparamShading,
                    truthful, linear_shading, gamma_from_target, first_price_bid,
                    equilibrium_shading, one_vs_uniform_shading, gp_reparam_shading,
                    gp_simple_vs_uniform, strategy_from_config)
from .mech import (MechanismConfig, AuctionOutcome, run_myerson, run_vcg_lazy,
                   run_vcg_eager, run_bsp, run_first_price, run_second_price,
                   fit_monopoly_reserves, fit_gp_quantile, fit_bsp, fit_mechanism)
from .payoff import (CompetitionDistribution, PayoffEstimate, competition_distribution,
                     gp_competition_ratio, payoff_quadrature, payoff_monte_carlo,
                     linear_payoff_curve, payoff_derivative_alpha,
                     directional_derivative, bsp_payoff, bsp_payoff_gradient,
                     bsp_payoff_and_gradient)
from .opt import OptResult, maximize_scalar, maximize_bsp
