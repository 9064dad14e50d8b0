"""Toolkit for an incentive-based demand-response contract that limits
baseline gaming through the probability of calling each consumer.

The package provides the contract's payoff primitives (:mod:`.core`), the
closed-form optimal consumer strategies (:mod:`.strategy`), an independent
brute-force verification oracle (:mod:`.oracle`), a portfolio event
simulator (:mod:`.simulation`), and a CLI (``drcontract``) for sweeps,
verification and Monte Carlo runs. Each module's ``__all__`` states its
public names once; the package re-exports every one of them.
"""

from . import core, oracle, scenario, simulation, strategy
from .core import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403
from .strategy import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__, *oracle.__all__, *scenario.__all__, *simulation.__all__,
    *strategy.__all__, "__version__",
]
