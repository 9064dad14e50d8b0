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
from dataclasses import dataclass, replace
from importlib import resources
from typing import NamedTuple

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


def sweep_over(
    param: str | None, base: SweepSpec | None = None, **given
) -> SweepSpec:
    """The sweep of ``param`` with the ``given`` fields (start, stop, steps)
    put over ``base``, or over ``param``'s default range when ``base`` is
    None or sweeps another parameter. ``param`` None keeps ``base``'s
    parameter, or p_r without a base."""
    if base is None or param not in (None, base.param):
        base = default_sweep(param or "p_r")
    return replace(base, param=param or base.param, **given)


class Scenario(NamedTuple):
    """Everything a scenario file sets, read and checked once. Command-line
    flags override fields through ``_replace``."""

    prices: Prices
    members: tuple[PortfolioMember, ...]
    behaviors: dict[str, Behavior]
    trials: int = DEFAULT_TRIALS
    seed: int = 42
    grid_step: float = 0.01
    reduction_target: float = 0.0
    sweep: SweepSpec | None = None
    source_hash: str = "unknown"

    def portfolio(self) -> Portfolio:
        return Portfolio(members=self.members, prices=self.prices)


# The [simulation] keys in the order they are read, with the Scenario field
# each one sets and its type.
_SIMULATION_KEYS = (
    ("trials", "trials", int),
    ("seed", "seed", int),
    ("grid_step_kwh", "grid_step", float),
    ("reduction_target_kwh", "reduction_target", float),
)
# The [sweep] keys that set a range, with the SweepSpec field of each.
_SWEEP_KEYS = (("from", "start", float), ("to", "stop", float), ("steps", "steps", int))


def _get(section, key: str, where: str, kind=float):
    """``section[key]`` as a ``kind`` (float or int), finite when a float."""
    try:
        text = section[key]
    except KeyError:
        raise ScenarioError(f"missing key {key!r} in [{where}]") from None
    try:
        value = kind(text)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ScenarioError(
            f"key {key!r} in [{where}] is not {noun}: {text!r}"
        ) from None
    if kind is float and not math.isfinite(value):
        raise ScenarioError(
            f"key {key!r} in [{where}] must be a finite number, got {text!r}"
        )
    return value


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
    energy_price = _get(sections["prices"], "price_usd_per_kwh", "prices")
    incentive_price = _get(sections["prices"], "incentive_usd_per_kwh", "prices")
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
                baseline=_get(section, "baseline_kwh", name),
                marginal_utility=_get(section, "marginal_utility_usd_per_kwh2", name),
                max_consumption=_get(section, "max_consumption_kwh", name),
            )
            check_consumption_cap(params, prices)
            member = PortfolioMember(
                consumer_id=cid,
                params=params,
                call_probability=_get(section, "call_probability", name),
            )
            behaviors[cid] = Behavior(section.get("behavior", "rational"))
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"[{name}]: {exc}") from exc
        members.append(member)
    if not members:
        raise ScenarioError("scenario must define at least one [consumer.<id>]")

    sim = sections.get("simulation", {})
    settings = {}
    try:
        for key, field, kind in _SIMULATION_KEYS:
            if key in sim:
                settings[field] = _get(sim, key, "simulation", kind)
                if field == "trials":  # checked before the other keys are read
                    check_record_count(
                        len(members), settings[field], "key 'trials' in [simulation]"
                    )
        values = {**Scenario._field_defaults, **settings}
        check_seed(values["seed"], "key 'seed' in [simulation]")
        if values["grid_step"] <= 0:
            raise ValueError(
                f"key 'grid_step_kwh' in [simulation] must be > 0, "
                f"got {values['grid_step']}"
            )
        check_reduction_target(
            values["reduction_target"], "key 'reduction_target_kwh' in [simulation]"
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    sweep = None
    if "sweep" in sections:
        swp = sections["sweep"]
        ranges = {
            field: _get(swp, key, "sweep", kind)
            for key, field, kind in _SWEEP_KEYS
            if key in swp
        }
        try:
            sweep = sweep_over(swp.get("param", "p_r"), **ranges)
        except ScenarioError as exc:
            raise ScenarioError(f"[sweep]: {exc}") from None
    return Scenario(
        prices, tuple(members), behaviors, **settings, sweep=sweep,
        source_hash=source_hash,
    )


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
