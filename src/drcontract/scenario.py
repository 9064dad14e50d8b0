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
from importlib import resources
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .core import (
    ConsumerParams, FrozenRecord, Prices, check_call_probability,
    check_consumption_cap,
)
from .simulation import (
    _BEHAVIORS, Behavior, Portfolio, check_record_count, check_reduction_target,
    check_seed,
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


class SweepSpec(FrozenRecord):
    """A sweep of ``param`` over ``steps`` evenly spaced values from
    ``start`` to ``stop``."""

    _fields = ("param", "start", "stop", "steps")

    def __init__(self, param: str, start: float, stop: float, steps: int) -> None:
        if param not in SWEEPABLE_PARAMS:
            raise ScenarioError(
                f"sweep parameter must be one of {SWEEPABLE_PARAMS}, got {param!r}"
            )
        if not 1 <= steps <= MAX_SWEEP_STEPS:
            raise ScenarioError(
                f"steps must lie in [1, {MAX_SWEEP_STEPS}], got {steps}"
            )
        if stop < start:
            raise ScenarioError("sweep range must have stop >= start")
        # values() steps by (stop - start) * i, which must not overflow.
        if steps > 1 and not math.isfinite((stop - start) * (steps - 1)):
            raise ScenarioError(
                f"sweep range from {start} to {stop} in {steps} "
                f"steps overflows: (stop - start) * (steps - 1) must be finite"
            )
        self._store(param, start, stop, steps)

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
    return base._replace(param=param or base.param, **given)


class Scenario(NamedTuple):
    """Everything a scenario file sets, read and checked once. Command-line
    flags override fields through ``_replace``. ``kinds`` holds each
    member's :class:`Behavior`, in member order."""

    members: Portfolio
    kinds: tuple[Behavior, ...]
    trials: int = DEFAULT_TRIALS
    seed: int = 42
    grid_step: float = 0.01
    reduction_target: float = 0.0
    sweep: SweepSpec | None = None
    source_hash: str = "unknown"

    @property
    def behaviors(self) -> MappingProxyType:
        """Each member's :class:`Behavior` by consumer id, read-only."""
        return MappingProxyType(dict(zip(self.members.consumer_ids, self.kinds)))

    @property
    def prices(self) -> Prices:
        """The members' own prices, which ``_replace`` cannot set apart."""
        return self.members.prices

    def portfolio(self) -> Portfolio:
        """The consumers under the scenario's prices: ``members`` itself."""
        return self.members


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
# The number keys of a [consumer.<id>] section, in the order they are read:
# the fields of ConsumerParams, then the call probability.
_CONSUMER_NUMBERS = (
    "baseline_kwh", "marginal_utility_usd_per_kwh2", "max_consumption_kwh",
    "call_probability",
)
# The keys each kind of section reads, in the order they are read.
_SECTION_KEYS = {
    "prices": ["price_usd_per_kwh", "incentive_usd_per_kwh"],
    "consumer.<id>": [*_CONSUMER_NUMBERS, "behavior"],
    "simulation": [key for key, _, _ in _SIMULATION_KEYS],
    "sweep": ["param"] + [key for key, _, _ in _SWEEP_KEYS],
}


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


def _bad_id(cid: str) -> bool:
    """Whether a consumer id would break its unquoted CSV cell."""
    return not cid or "," in cid or '"' in cid


def _check_consumer(name: str, section, prices: Prices) -> None:
    """Raise the message of the first rule that the section ``name`` breaks,
    reading its keys in their order; return when it breaks none."""
    cid = name[len("consumer."):]
    if _bad_id(cid):
        raise ScenarioError(
            f"[{name}]: consumer id must be non-empty and contain no "
            f"',' or '\"', got {cid!r}"
        )
    try:
        params = ConsumerParams(
            *(_get(section, key, name) for key in _CONSUMER_NUMBERS[:3])
        )
        check_consumption_cap(params, prices)
        check_call_probability(_get(section, "call_probability", name))
        Behavior(section.get("behavior", "rational"))
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"[{name}]: {exc}") from exc


def _consumers(
    sections: dict[str, dict[str, str]], prices: Prices
) -> tuple[Portfolio, tuple[Behavior, ...]]:
    """The ``[consumer.<id>]`` sections as a :class:`Portfolio` of columns,
    checked as columns, and each one's :class:`Behavior` in the same order.

    When a value is missing or unreadable, or a check fails, the sections
    go through :func:`_check_consumer` in file order, and the first bad one
    raises its message.
    """
    names = [name for name in sections if name.startswith("consumer.")]
    if not names:
        raise ScenarioError("scenario must define at least one [consumer.<id>]")
    ids = [name[len("consumer."):] for name in names]
    rows = [sections[name] for name in names]
    try:
        if any(map(_bad_id, ids)):
            raise ValueError("bad consumer id")
        *floats, probabilities = (
            np.array([float(row[key]) for row in rows], dtype=float)
            for key in _CONSUMER_NUMBERS
        )
        kinds = tuple(_BEHAVIORS[row.get("behavior", "rational")] for row in rows)
        members = Portfolio.of_columns(
            ids, ConsumerParams(*floats), probabilities, prices
        )
    except (KeyError, ValueError):
        for name, row in zip(names, rows):
            _check_consumer(name, row, prices)
        raise
    return members, kinds


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


def _read_sections(text: str) -> tuple[dict[str, dict[str, str]], list[str]]:
    """The sections of ``text``, and the keys of its ``[DEFAULT]`` section in
    file order, which configparser puts in every section."""
    sections = _read_flat(text)
    if sections is not None:
        return sections, []
    import configparser  # only for INI syntax outside the flat subset

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from exc
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    return sections, list(parser.defaults())


def _check_known(sections: dict[str, dict[str, str]], shared: list[str]) -> None:
    """Refuse a section that no rule reads, a key that its section does not
    read, other than the ``shared`` keys of a ``[DEFAULT]`` section, and a
    shared key that no section present reads."""
    read = set()
    for name, section in sections.items():
        kind = "consumer.<id>" if name.startswith("consumer.") else name
        if kind not in _SECTION_KEYS:
            raise ScenarioError(
                f"unknown section [{name}]; expected [prices], "
                f"[consumer.<id>], [simulation] or [sweep]"
            )
        read.update(_SECTION_KEYS[kind])
        for key in section:
            if key not in _SECTION_KEYS[kind] and key not in shared:
                raise ScenarioError(
                    f"unknown key {key!r} in [{name}]; expected one of "
                    f"{_SECTION_KEYS[kind]}"
                )
    for key in shared:
        if key not in read:
            raise ScenarioError(
                f"unknown key {key!r} in [DEFAULT]; no section of the "
                f"scenario reads it"
            )


def parse_scenario(text: str, source_hash: str = "unknown") -> Scenario:
    """Parse and validate scenario text.

    Raises ScenarioError on any malformed or physically invalid input,
    including a consumption cap at or below the saturation point.
    """
    sections, shared = _read_sections(text)
    if "prices" not in sections:
        raise ScenarioError("scenario must contain a [prices] section")
    energy_price = _get(sections["prices"], "price_usd_per_kwh", "prices")
    incentive_price = _get(sections["prices"], "incentive_usd_per_kwh", "prices")
    try:
        prices = Prices(energy_price=energy_price, incentive_price=incentive_price)
    except ValueError as exc:
        raise ScenarioError(f"[prices]: {exc}") from exc

    members, kinds = _consumers(sections, prices)

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
    # Checked after every other rule, whose messages come first.
    _check_known(sections, shared)
    return Scenario(
        members, kinds, **settings, sweep=sweep,
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
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"cannot read scenario file {path!r}: {exc}") from exc
    return parse_scenario(text, scenario_hash(text.encode("utf-8")))
