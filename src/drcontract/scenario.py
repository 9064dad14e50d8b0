"""Scenario files: a flat INI format with unit-suffixed keys.

A scenario bundles prices, one or more consumers, simulation controls and an
optional sweep block. Consumers live in one ``[consumer.<id>]`` section
each. A bundled default scenario ships with the package and is used by the
CLI whenever no file is given.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from importlib import resources

from .core import ConsumerParams, Prices, check_consumption_cap
from .simulation import Behavior, Portfolio, PortfolioMember, check_record_count

__all__ = [
    "MAX_SWEEP_STEPS",
    "Scenario",
    "ScenarioError",
    "SweepSpec",
    "default_scenario_text",
    "load_scenario",
    "parse_scenario",
    "scenario_hash",
]

SWEEPABLE_PARAMS = ("p_r", "gamma")

_DEFAULT_GAMMA_RANGE = (0.04, 0.2)

# Each sweep point costs a closed-form solve and an output row; a longer
# sweep is almost certainly a typo.
MAX_SWEEP_STEPS = 10**5


class ScenarioError(ValueError):
    """A scenario file failed validation."""


@dataclass(frozen=True)
class SweepSpec:
    param: str
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        if self.param not in SWEEPABLE_PARAMS:
            raise ScenarioError(
                f"sweep parameter must be one of {SWEEPABLE_PARAMS}, got {self.param!r}"
            )
        if not 1 <= self.steps <= MAX_SWEEP_STEPS:
            raise ScenarioError(
                f"steps must lie in [1, {MAX_SWEEP_STEPS}], got {self.steps}"
            )
        if self.stop < self.start:
            raise ScenarioError("sweep range must have stop >= start")

    def values(self) -> list[float]:
        if self.steps == 1:
            return [self.start]
        width = self.stop - self.start
        return [
            self.start + width * i / (self.steps - 1) for i in range(self.steps)
        ]


def default_sweep(param: str) -> SweepSpec:
    """Built-in sweep ranges: the full unit interval for the call
    probability, a cap-safe band for the marginal utility."""
    if param == "p_r":
        return SweepSpec("p_r", 0.0, 1.0, 101)
    return SweepSpec("gamma", *_DEFAULT_GAMMA_RANGE, 101)


@dataclass
class Scenario:
    prices: Prices
    members: list[PortfolioMember]
    behaviors: dict[str, Behavior]
    trials: int = 1000
    seed: int = 42
    grid_step: float = 0.01
    reduction_target: float = 0.0
    sweep: SweepSpec | None = None
    source_hash: str = field(default="unknown")

    def portfolio(self) -> Portfolio:
        return Portfolio(members=tuple(self.members), prices=self.prices)


def _get_float(section, key: str, where: str) -> float:
    try:
        value = float(section[key])
    except KeyError:
        raise ScenarioError(f"missing key {key!r} in [{where}]") from None
    except ValueError:
        raise ScenarioError(
            f"key {key!r} in [{where}] is not a number: {section[key]!r}"
        ) from None
    if not math.isfinite(value):
        raise ScenarioError(
            f"key {key!r} in [{where}] must be a finite number, got {section[key]!r}"
        )
    return value


def _get_int(section, key: str, where: str) -> int:
    try:
        return int(section[key])
    except KeyError:
        raise ScenarioError(f"missing key {key!r} in [{where}]") from None
    except ValueError:
        raise ScenarioError(
            f"key {key!r} in [{where}] is not an integer: {section[key]!r}"
        ) from None


def parse_scenario(text: str, source_hash: str = "unknown") -> Scenario:
    """Parse and validate scenario text.

    Raises ScenarioError on any malformed or physically invalid input,
    including a consumption cap at or below the saturation point.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from exc

    if "prices" not in parser:
        raise ScenarioError("scenario must contain a [prices] section")
    energy_price = _get_float(parser["prices"], "price_usd_per_kwh", "prices")
    incentive_price = _get_float(parser["prices"], "incentive_usd_per_kwh", "prices")
    try:
        prices = Prices(energy_price=energy_price, incentive_price=incentive_price)
    except ValueError as exc:
        raise ScenarioError(f"[prices]: {exc}") from exc

    members: list[PortfolioMember] = []
    behaviors: dict[str, Behavior] = {}
    for name in parser.sections():
        if not name.startswith("consumer."):
            continue
        cid = name[len("consumer."):]
        section = parser[name]
        try:
            params = ConsumerParams(
                baseline=_get_float(section, "baseline_kwh", name),
                marginal_utility=_get_float(
                    section, "marginal_utility_usd_per_kwh2", name
                ),
                max_consumption=_get_float(section, "max_consumption_kwh", name),
            )
            check_consumption_cap(params, prices)
            member = PortfolioMember(
                consumer_id=cid,
                params=params,
                call_probability=_get_float(section, "call_probability", name),
            )
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"[{name}]: {exc}") from exc
        kind = section.get("behavior", "rational")
        try:
            behaviors[cid] = Behavior(kind)
        except ValueError:
            raise ScenarioError(
                f"[{name}]: unknown behavior {kind!r}; expected one of "
                f"{[b.value for b in Behavior]}"
            ) from None
        members.append(member)
    if not members:
        raise ScenarioError("scenario must define at least one [consumer.<id>]")

    scenario = Scenario(
        prices=prices, members=members, behaviors=behaviors, source_hash=source_hash
    )
    if "simulation" in parser:
        sim = parser["simulation"]
        if "trials" in sim:
            scenario.trials = _get_int(sim, "trials", "simulation")
            try:
                check_record_count(
                    len(members), scenario.trials, "key 'trials' in [simulation]"
                )
            except ValueError as exc:
                raise ScenarioError(str(exc)) from None
        if "seed" in sim:
            scenario.seed = _get_int(sim, "seed", "simulation")
        if "grid_step_kwh" in sim:
            scenario.grid_step = _get_float(sim, "grid_step_kwh", "simulation")
        if "reduction_target_kwh" in sim:
            scenario.reduction_target = _get_float(
                sim, "reduction_target_kwh", "simulation"
            )
        if scenario.trials < 1:
            raise ScenarioError(f"trials must be >= 1, got {scenario.trials}")
        if scenario.seed < 0:
            raise ScenarioError(
                f"key 'seed' in [simulation] must be >= 0, got {scenario.seed}"
            )
        if scenario.grid_step <= 0:
            raise ScenarioError(f"grid step must be > 0, got {scenario.grid_step}")
        if scenario.reduction_target < 0:
            raise ScenarioError("reduction target must be >= 0")
    if "sweep" in parser:
        swp = parser["sweep"]
        param = swp.get("param", "p_r")
        base = default_sweep(param)
        start = _get_float(swp, "from", "sweep") if "from" in swp else base.start
        stop = _get_float(swp, "to", "sweep") if "to" in swp else base.stop
        steps = _get_int(swp, "steps", "sweep") if "steps" in swp else base.steps
        try:
            scenario.sweep = SweepSpec(param, start, stop, steps)
        except ScenarioError as exc:
            raise ScenarioError(f"[sweep]: {exc}") from None
    return scenario


def scenario_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def default_scenario_text() -> str:
    return (
        resources.files("drcontract.data")
        .joinpath("default_scenario.ini")
        .read_text(encoding="utf-8")
    )


def load_scenario(path: str | None) -> Scenario:
    """Load a scenario from a file, or the bundled default when path is None."""
    if path is None:
        text = default_scenario_text()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file {path!r}: {exc}") from exc
    return parse_scenario(text, scenario_hash(text.encode("utf-8")))
