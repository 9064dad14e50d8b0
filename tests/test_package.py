"""The package's public names, and the names the benchmark's tracer wraps."""

import ast
import importlib
import importlib.util
from pathlib import Path

import drcontract
from drcontract import core, oracle, scenario, simulation, strategy

MODULES = (core, oracle, scenario, simulation, strategy)
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PACKAGE = Path(drcontract.__file__).resolve().parent

# drcontract.__all__ before it was built from the modules' lists.
EXPORTED_BEFORE = (
    "Behavior", "CallAllocation", "CallSignal", "CasePayoff", "ConsumerParams",
    "ConsumerStats", "EventRecord", "EventSummary", "MonteCarloResult", "Portfolio",
    "PortfolioMember", "Prices", "Regime", "Report", "Scenario", "ScenarioError",
    "Stage1Solution", "Stage2Solution", "StrategyCalled", "StrategyNotCalled",
    "SweepSpec", "__version__", "allocate_calls", "best_report",
    "best_response_called", "best_response_not_called", "break_even_baseline",
    "call_threshold", "case_payoffs", "check_consumption_cap", "collect_reports",
    "expected_profit", "grid_best_report", "grid_best_reports", "grid_best_response",
    "grid_best_responses", "ideal_consumption", "load_scenario",
    "max_feasible_case_payoff", "opt_out_payoff", "payment_called",
    "payment_not_called", "planned_consumption", "run_monte_carlo",
    "saturation_point", "settle_event", "stage2_profit", "utility",
)


def test_package_all_is_the_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert drcontract.__all__ == [*names, "__version__"]
    assert len(set(drcontract.__all__)) == len(drcontract.__all__)


def test_each_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(drcontract, name)
            assert value is getattr(module, name)
            # A function or class is defined where its __all__ lists it.
            assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_every_name_exported_before_still_is():
    assert len(EXPORTED_BEFORE) == 48
    assert set(EXPORTED_BEFORE) <= set(drcontract.__all__)


def test_tracer_targets_stay_bound():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr in spans.SPAN_TARGETS + spans.LEAF_TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            f"{module}.{attr}"
        )


def freeze_rule_breaches(path: Path) -> list[str]:
    """Where the module at ``path`` reaches an instance's ``__dict__``, calls
    an ``__setattr__`` or ``__delattr__`` (as ``object.__setattr__``) or
    defines one: each ``line: name``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.FunctionDef):
            name = node.name
        else:
            continue
        if name in ("__dict__", "__setattr__", "__delattr__"):
            found.append(f"{node.lineno}: {name}")
    return found


def test_only_core_stores_fields():
    # core.FrozenRecord alone sets fields and refuses assignment and deletion.
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "core.py" in modules and len(modules) > 2
    for path in modules:
        if path.name != "core.py":
            assert freeze_rule_breaches(path) == [], path.name
    assert freeze_rule_breaches(PACKAGE / "core.py")


def test_every_value_type_is_a_tuple_or_a_record():
    # A class with _fields is a NamedTuple or a core.FrozenRecord, and only
    # FrozenRecord states how a value compares, hashes and refuses changes.
    rule = ("__eq__", "__hash__", "__setattr__", "__delattr__")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = f"drcontract.{path.stem}".removesuffix(".__init__")
        module = importlib.import_module(name)
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and hasattr(value, "_fields")):
                found.append(value)
                assert issubclass(value, (tuple, core.FrozenRecord)), value
                if value is not core.FrozenRecord:
                    assert not set(rule) & set(vars(value)), value
    assert core.FrozenRecord in found and simulation.Portfolio in found
    assert simulation.OutcomeTable in found and scenario.Scenario in found
    assert set(rule) <= set(vars(core.FrozenRecord))
