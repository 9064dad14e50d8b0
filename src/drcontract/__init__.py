"""Toolkit for an incentive-based demand-response contract that limits
baseline gaming through the probability of calling each consumer.

The package provides the contract's payoff primitives (:mod:`.core`), the
closed-form optimal consumer strategies (:mod:`.strategy`), an independent
brute-force verification oracle (:mod:`.oracle`), a portfolio event
simulator (:mod:`.simulation`), and a CLI (``drcontract``) for sweeps,
verification and Monte Carlo runs.
"""

from .core import (
    CallSignal,
    ConsumerParams,
    Prices,
    Report,
    check_consumption_cap,
    ideal_consumption,
    opt_out_payoff,
    payment_called,
    payment_not_called,
    saturation_point,
    stage2_profit,
    utility,
)
from .oracle import (
    CasePayoff,
    GridSpec,
    case_payoffs,
    grid_best_report,
    grid_best_reports,
    grid_best_response,
    grid_best_responses,
    max_feasible_case_payoff,
)
from .scenario import Scenario, ScenarioError, SweepSpec, load_scenario
from .simulation import (
    Behavior,
    CallAllocation,
    ConsumerStats,
    EventRecord,
    EventSummary,
    MonteCarloResult,
    Portfolio,
    PortfolioMember,
    allocate_calls,
    collect_reports,
    run_monte_carlo,
    settle_event,
)
from .strategy import (
    Regime,
    Stage1Solution,
    Stage2Solution,
    StrategyCalled,
    StrategyNotCalled,
    best_report,
    best_response_called,
    best_response_not_called,
    break_even_baseline,
    call_threshold,
    expected_profit,
    planned_consumption,
)

__version__ = "0.1.0"

__all__ = [
    "Behavior",
    "CallAllocation",
    "CallSignal",
    "CasePayoff",
    "ConsumerParams",
    "ConsumerStats",
    "EventRecord",
    "EventSummary",
    "GridSpec",
    "MonteCarloResult",
    "Portfolio",
    "PortfolioMember",
    "Prices",
    "Regime",
    "Report",
    "Scenario",
    "ScenarioError",
    "Stage1Solution",
    "Stage2Solution",
    "StrategyCalled",
    "StrategyNotCalled",
    "SweepSpec",
    "__version__",
    "allocate_calls",
    "best_report",
    "best_response_called",
    "best_response_not_called",
    "break_even_baseline",
    "call_threshold",
    "case_payoffs",
    "check_consumption_cap",
    "collect_reports",
    "expected_profit",
    "grid_best_report",
    "grid_best_reports",
    "grid_best_response",
    "grid_best_responses",
    "ideal_consumption",
    "load_scenario",
    "max_feasible_case_payoff",
    "opt_out_payoff",
    "payment_called",
    "payment_not_called",
    "planned_consumption",
    "run_monte_carlo",
    "saturation_point",
    "settle_event",
    "stage2_profit",
    "utility",
]
