"""taxsim: a deterministic agent-based income-tax simulator.

Households earn, pay bracketed taxes, consume, and save under fixed rates
(free market, federal) or a government policy (elasticity-based optimal
rates or an LLM planner) that periodically resets the bracket rates.
The social outcome is equality times per-capita wealth.
"""

from taxsim.config import (
    AdjustmentParams,
    GatewayConfig,
    InitialConditions,
    SaezParams,
    SimConfig,
    TaxAgentConfig,
    load_config,
)
from taxsim.economy import (
    MarketState,
    Persona,
    TaxSchedule,
    apply_taxation,
    compute_tax,
)
from taxsim.gateway import ChatGateway, ChatRequest
from taxsim.households import Decision, DecisionMonth, LLMBackend
from taxsim.metrics import equality, gini, productivity, social_outcome
from taxsim.policies import (
    DEFAULT_BRACKETS,
    US_FEDERAL_RATES,
    PolicyObservation,
    SaezOptimalPolicy,
    TaxAgentPolicy,
    saez_schedule,
)
from taxsim.simulation import SimulationResult, compare, run, sweep

__version__ = "0.1.0"

__all__ = [
    "AdjustmentParams",
    "ChatGateway",
    "ChatRequest",
    "DEFAULT_BRACKETS",
    "Decision",
    "DecisionMonth",
    "GatewayConfig",
    "InitialConditions",
    "LLMBackend",
    "MarketState",
    "Persona",
    "PolicyObservation",
    "SaezOptimalPolicy",
    "SaezParams",
    "SimConfig",
    "SimulationResult",
    "TaxAgentConfig",
    "TaxAgentPolicy",
    "TaxSchedule",
    "US_FEDERAL_RATES",
    "apply_taxation",
    "compare",
    "compute_tax",
    "equality",
    "gini",
    "load_config",
    "productivity",
    "run",
    "saez_schedule",
    "social_outcome",
    "sweep",
]
