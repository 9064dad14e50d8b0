"""Scenario files: a flat INI format with unit-suffixed keys.

A scenario bundles prices, one or more consumers, simulation controls and an
optional sweep block. Consumers live in one ``[consumer.<id>]`` section
each. A bundled default scenario ships with the package and is used by the
CLI whenever no file is given.

The flat subset that scenarios are written in (headers, ``key = value``
lines, full-line comments and blank lines) is read directly; any other INI
syntax goes to :mod:`configparser`, which reads it as it always has.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from importlib import resources

from .core import ConsumerParams, Prices, check_consumption_cap
from .simulation import (
    Behavior, Portfolio, PortfolioMember, check_record_count,
    check_reduction_target, check_seed,
)

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

# The trial count of a scenario without a ``trials`` key in [simulation].
DEFAULT_TRIALS = 1000


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
    trials: int = DEFAULT_TRIALS
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


def _read_flat(text: str) -> dict[str, dict[str, str]] | None:
    """The sections of ``text`` as ``{section: {key: value}}``, or None when
    a line falls outside the flat subset.

    The subset is ``[section]`` headers, ``key = value`` lines, full-line
    ``#``/``;`` comments (which may be indented) and blank lines. Keys are
    lower-cased and values stripped as ``configparser`` does. Continuation
    lines, ``:`` delimiters, lines without ``=``, empty keys, options before
    any header, trailing text after a header, ``[DEFAULT]`` and duplicate
    sections or keys all give None, so on every text this reads,
    ``configparser.ConfigParser(interpolation=None)`` reads the same.
    Lines split on ``"\\n"`` only, as ``read_string`` splits them.
    """
    sections: dict[str, dict[str, str]] = {}
    current = None
    for line in text.split("\n"):
        value = line.strip()
        if not value or value[0] in "#;":
            continue
        if line[0].isspace():
            return None
        if value[0] == "[":
            name = value[1:-1]
            if (value[-1] != "]" or not name or name in sections
                    or name == "DEFAULT"):
                return None
            current = sections[name] = {}
            continue
        key, eq, rest = value.partition("=")
        if not eq or not key or ":" in key or current is None:
            return None
        key = key.rstrip().lower()
        if key in current:
            return None
        current[key] = rest.strip()
    return sections


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    sections = _read_flat(text)
    if sections is not None:
        return sections
    import configparser  # only for INI syntax outside the flat subset

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from exc
    return {name: dict(parser.items(name)) for name in parser.sections()}


def parse_scenario(text: str, source_hash: str = "unknown") -> Scenario:
    """Parse and validate scenario text.

    Raises ScenarioError on any malformed or physically invalid input,
    including a consumption cap at or below the saturation point.
    """
    sections = _read_sections(text)
    if "prices" not in sections:
        raise ScenarioError("scenario must contain a [prices] section")
    energy_price = _get_float(sections["prices"], "price_usd_per_kwh", "prices")
    incentive_price = _get_float(
        sections["prices"], "incentive_usd_per_kwh", "prices"
    )
    try:
        prices = Prices(energy_price=energy_price, incentive_price=incentive_price)
    except ValueError as exc:
        raise ScenarioError(f"[prices]: {exc}") from exc

    members: list[PortfolioMember] = []
    behaviors: dict[str, Behavior] = {}
    for name, section in sections.items():
        if not name.startswith("consumer."):
            continue
        cid = name[len("consumer."):]
        # The id is written as an unquoted CSV cell.
        if not cid or "," in cid or '"' in cid:
            raise ScenarioError(
                f"[{name}]: consumer id must be non-empty and contain no "
                f"',' or '\"', got {cid!r}"
            )
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
            behaviors[cid] = Behavior(section.get("behavior", "rational"))
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"[{name}]: {exc}") from exc
        members.append(member)
    if not members:
        raise ScenarioError("scenario must define at least one [consumer.<id>]")

    scenario = Scenario(
        prices=prices, members=members, behaviors=behaviors, source_hash=source_hash
    )
    if "simulation" in sections:
        sim = sections["simulation"]
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
        try:
            check_seed(scenario.seed, "key 'seed' in [simulation]")
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        if scenario.grid_step <= 0:
            raise ScenarioError(
                f"key 'grid_step_kwh' in [simulation] must be > 0, "
                f"got {scenario.grid_step}"
            )
        try:
            check_reduction_target(
                scenario.reduction_target, "key 'reduction_target_kwh' in [simulation]"
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
    if "sweep" in sections:
        swp = sections["sweep"]
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
