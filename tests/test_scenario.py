import configparser
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcontract import (
    Behavior, ConsumerParams, Portfolio, PortfolioMember, Prices, Scenario,
    ScenarioError, load_scenario, run_monte_carlo,
)
from drcontract.scenario import (
    _read_flat,
    default_scenario_text,
    default_sweep,
    parse_scenario,
)
from mixed_scenario import mixed_scenario_text


GOOD = """
[prices]
price_usd_per_kwh = 0.26
incentive_usd_per_kwh = 0.30

[consumer.a]
baseline_kwh = 8.0
marginal_utility_usd_per_kwh2 = 0.05
max_consumption_kwh = 16.0
call_probability = 0.1
"""


class TestDefaultScenario:
    def test_bundled_scenario_loads(self):
        scenario = load_scenario(None)
        assert scenario.prices.energy_price == 0.26
        assert scenario.prices.incentive_price == 0.30
        member = scenario.members[0]
        assert member.params.baseline == 8.0
        assert member.params.marginal_utility == 0.05
        assert member.params.max_consumption == 16.0
        assert member.call_probability == 0.1
        assert scenario.behaviors[member.consumer_id] is Behavior.RATIONAL
        assert scenario.trials == 1000
        assert scenario.grid_step == 0.01
        assert scenario.sweep is not None
        assert scenario.sweep.param == "p_r"
        assert scenario.sweep.steps == 101
        scenario.portfolio()  # validates

    def test_behaviors_are_read_only(self):
        scenario = load_scenario(None)
        before = run_monte_carlo(scenario.members, scenario.behaviors, 20, master_seed=1)
        with pytest.raises(TypeError):
            scenario.behaviors["household"] = Behavior.NAIVE_GAMER
        after = run_monte_carlo(scenario.members, scenario.behaviors, 20, master_seed=1)
        assert after == before
        assert after.stats[0].behavior is Behavior.RATIONAL
        copied = pickle.loads(pickle.dumps(scenario))
        assert copied == scenario
        assert dict(copied.behaviors) == {"household": Behavior.RATIONAL}
        with pytest.raises(TypeError):
            copied.behaviors["household"] = Behavior.NAIVE_GAMER


class TestParsing:
    def test_minimal_scenario(self):
        scenario = parse_scenario(GOOD)
        assert len(scenario.members) == 1
        assert scenario.behaviors["a"] is Behavior.RATIONAL
        assert scenario.sweep is None

    def test_missing_prices_section(self):
        with pytest.raises(ScenarioError, match="prices"):
            parse_scenario("[consumer.a]\nbaseline_kwh = 8\n")

    def test_missing_consumer(self):
        with pytest.raises(ScenarioError, match="consumer"):
            parse_scenario(
                "[prices]\nprice_usd_per_kwh = 0.26\nincentive_usd_per_kwh = 0.3\n"
            )

    def test_cap_below_saturation_rejected_at_load(self):
        text = GOOD.replace("max_consumption_kwh = 16.0", "max_consumption_kwh = 13.0")
        with pytest.raises(ScenarioError, match="saturation"):
            parse_scenario(text)

    def test_incentive_below_energy_price_rejected(self):
        text = GOOD.replace("incentive_usd_per_kwh = 0.30", "incentive_usd_per_kwh = 0.2")
        with pytest.raises(ScenarioError, match="incentive_price"):
            parse_scenario(text)

    def test_unknown_behavior_rejected(self):
        text = GOOD + "behavior = freeloader\n"
        with pytest.raises(ScenarioError, match="behavior"):
            parse_scenario(text)

    def test_bad_number_rejected(self):
        text = GOOD.replace("8.0", "eight")
        with pytest.raises(ScenarioError, match="not a number"):
            parse_scenario(text)

    def test_bad_sweep_param_rejected(self):
        text = GOOD + "\n[sweep]\nparam = q_max\n"
        with pytest.raises(ScenarioError, match="sweep parameter"):
            parse_scenario(text)

    def test_multiple_consumers(self):
        text = GOOD + (
            "\n[consumer.b]\nbaseline_kwh = 4.0\n"
            "marginal_utility_usd_per_kwh2 = 0.1\nmax_consumption_kwh = 10.0\n"
            "call_probability = 0.5\nbehavior = naive_gamer\n"
        )
        scenario = parse_scenario(text)
        assert [m.consumer_id for m in scenario.members] == ["a", "b"]
        assert scenario.behaviors["b"] is Behavior.NAIVE_GAMER

    def test_nonexistent_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(str(tmp_path / "missing.ini"))

    def test_trials_validated(self):
        text = GOOD + "\n[simulation]\ntrials = 0\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert str(exc.value) == "key 'trials' in [simulation] must be >= 1, got 0"


class TestBoundaryValidation:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key, section",
        [
            ("price_usd_per_kwh", "prices"),
            ("marginal_utility_usd_per_kwh2", "consumer.a"),
            ("baseline_kwh", "consumer.a"),
            ("call_probability", "consumer.a"),
        ],
    )
    def test_non_finite_numbers_rejected(self, key, section, value):
        lines = [
            f"{key} = {value}" if line.startswith(f"{key} =") else line
            for line in GOOD.splitlines()
        ]
        with pytest.raises(ScenarioError) as info:
            parse_scenario("\n".join(lines))
        assert f"key {key!r} in [{section}] must be a finite number" in str(info.value)

    @pytest.mark.parametrize("key", ["reduction_target_kwh", "grid_step_kwh"])
    def test_non_finite_simulation_numbers_rejected(self, key):
        text = GOOD + f"\n[simulation]\n{key} = nan\n"
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert f"key {key!r} in [simulation] must be a finite number" in str(info.value)

    def test_zero_prices_rejected(self):
        text = GOOD.replace("0.26", "0").replace("0.30", "0")
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value).startswith("[prices]: incentive_price must be > 0")

    @pytest.mark.parametrize(
        "section, key",
        [("simulation", "trials"), ("simulation", "seed"), ("sweep", "steps")],
    )
    def test_bad_integers_rejected_with_context(self, section, key):
        text = GOOD + f"\n[{section}]\n{key} = abc\n"
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value) == f"key {key!r} in [{section}] is not an integer: 'abc'"

    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_negative_seed_rejected(self, seed):
        text = GOOD + f"\n[simulation]\nseed = {seed}\n"
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value) == f"key 'seed' in [simulation] must be >= 0, got {seed}"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("grid_step_kwh", "0", "must be > 0, got 0.0"),
            ("grid_step_kwh", "-0.5", "must be > 0, got -0.5"),
            ("reduction_target_kwh", "-1", "must be >= 0, got -1.0"),
        ],
    )
    def test_out_of_range_simulation_numbers_name_the_key(self, key, value, message):
        text = GOOD + f"\n[simulation]\n{key} = {value}\n"
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value) == f"key {key!r} in [simulation] {message}"

    def test_seed_zero_accepted(self):
        assert parse_scenario(GOOD + "\n[simulation]\nseed = 0\n").seed == 0

    @pytest.mark.parametrize("steps", ["0", "100001"])
    def test_sweep_steps_out_of_range_rejected(self, steps):
        text = GOOD + f"\n[sweep]\nsteps = {steps}\n"
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value) == (
            f"[sweep]: steps must lie in [1, 100000], got {steps}"
        )

    def test_trials_bounded_by_consumers_times_trials(self):
        second = GOOD[GOOD.index("[consumer.a]"):].replace("consumer.a", "consumer.b")
        two = GOOD + second
        at_limit = parse_scenario(two + "\n[simulation]\ntrials = 5000000\n")
        assert (len(at_limit.members), at_limit.trials) == (2, 5_000_000)
        one = parse_scenario(GOOD + "\n[simulation]\ntrials = 5000001\n")
        assert one.trials == 5_000_001
        with pytest.raises(ScenarioError) as info:
            parse_scenario(two + "\n[simulation]\ntrials = 5000001\n")
        assert str(info.value) == (
            "key 'trials' in [simulation] = 5000001 with 2 consumers gives "
            "10000002 event records, over the limit of 10000000; use fewer trials"
        )

    def test_integers_parsed(self):
        text = GOOD + "\n[simulation]\ntrials = 7\nseed = 3\n\n[sweep]\nsteps = 5\n"
        scenario = parse_scenario(text)
        assert (scenario.trials, scenario.seed, scenario.sweep.steps) == (7, 3, 5)


def with_value(section, key, value):
    """GOOD with ``key`` of ``[section]`` set to ``value``, or removed when
    None; a section GOOD lacks is appended with that one key."""
    if f"[{section}]" not in GOOD:
        return GOOD + f"\n[{section}]\n{key} = {value}\n"
    lines = [
        line for line in GOOD.splitlines() if not line.startswith(f"{key} =")
    ]
    if value is not None:
        lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


SECOND_CONSUMER = GOOD[GOOD.index("[consumer.a]"):].replace("consumer.a", "consumer.b")
HUGE_TRIALS = "1" + "0" * 400


class TestLoaderMessages:
    """Every key's message, pinned word for word."""

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("prices", "price_usd_per_kwh", None,
             "missing key 'price_usd_per_kwh' in [prices]"),
            ("prices", "price_usd_per_kwh", "abc",
             "key 'price_usd_per_kwh' in [prices] is not a number: 'abc'"),
            ("prices", "price_usd_per_kwh", "nan",
             "key 'price_usd_per_kwh' in [prices] must be a finite number, got 'nan'"),
            ("prices", "price_usd_per_kwh", "-0.1",
             "[prices]: energy_price must be >= 0, got -0.1"),
            ("prices", "incentive_usd_per_kwh", None,
             "missing key 'incentive_usd_per_kwh' in [prices]"),
            ("prices", "incentive_usd_per_kwh", "abc",
             "key 'incentive_usd_per_kwh' in [prices] is not a number: 'abc'"),
            ("prices", "incentive_usd_per_kwh", "nan",
             "key 'incentive_usd_per_kwh' in [prices] must be a finite number, "
             "got 'nan'"),
            ("prices", "incentive_usd_per_kwh", "0.1",
             "[prices]: incentive_price must be >= energy_price, got 0.1 < 0.26"),
            ("consumer.a", "baseline_kwh", None,
             "missing key 'baseline_kwh' in [consumer.a]"),
            ("consumer.a", "baseline_kwh", "abc",
             "key 'baseline_kwh' in [consumer.a] is not a number: 'abc'"),
            ("consumer.a", "baseline_kwh", "nan",
             "key 'baseline_kwh' in [consumer.a] must be a finite number, got 'nan'"),
            ("consumer.a", "baseline_kwh", "-1",
             "[consumer.a]: baseline must be > 0, got -1.0"),
            ("consumer.a", "marginal_utility_usd_per_kwh2", None,
             "missing key 'marginal_utility_usd_per_kwh2' in [consumer.a]"),
            ("consumer.a", "marginal_utility_usd_per_kwh2", "abc",
             "key 'marginal_utility_usd_per_kwh2' in [consumer.a] is not a number: "
             "'abc'"),
            ("consumer.a", "marginal_utility_usd_per_kwh2", "nan",
             "key 'marginal_utility_usd_per_kwh2' in [consumer.a] must be a finite "
             "number, got 'nan'"),
            ("consumer.a", "marginal_utility_usd_per_kwh2", "0",
             "[consumer.a]: marginal_utility must be > 0, got 0.0"),
            ("consumer.a", "max_consumption_kwh", None,
             "missing key 'max_consumption_kwh' in [consumer.a]"),
            ("consumer.a", "max_consumption_kwh", "abc",
             "key 'max_consumption_kwh' in [consumer.a] is not a number: 'abc'"),
            ("consumer.a", "max_consumption_kwh", "nan",
             "key 'max_consumption_kwh' in [consumer.a] must be a finite number, "
             "got 'nan'"),
            ("consumer.a", "max_consumption_kwh", "13",
             "[consumer.a]: max_consumption=13.0 must exceed the saturation point "
             "baseline + p/gamma = 13.2"),
            ("consumer.a", "call_probability", None,
             "missing key 'call_probability' in [consumer.a]"),
            ("consumer.a", "call_probability", "abc",
             "key 'call_probability' in [consumer.a] is not a number: 'abc'"),
            ("consumer.a", "call_probability", "nan",
             "key 'call_probability' in [consumer.a] must be a finite number, "
             "got 'nan'"),
            ("consumer.a", "call_probability", "1.5",
             "[consumer.a]: call probability must lie in [0, 1], got 1.5"),
            ("consumer.a", "behavior", "abc",
             "[consumer.a]: unknown behavior 'abc'; expected one of "
             "['rational', 'truthful', 'naive_gamer']"),
            ("simulation", "trials", "abc",
             "key 'trials' in [simulation] is not an integer: 'abc'"),
            ("simulation", "trials", "1.5",
             "key 'trials' in [simulation] is not an integer: '1.5'"),
            ("simulation", "trials", "0",
             "key 'trials' in [simulation] must be >= 1, got 0"),
            ("simulation", "trials", HUGE_TRIALS,
             f"key 'trials' in [simulation] = {HUGE_TRIALS} with 1 consumers gives "
             f"{HUGE_TRIALS} event records, over the limit of 10000000; "
             "use fewer trials"),
            ("simulation", "seed", "abc",
             "key 'seed' in [simulation] is not an integer: 'abc'"),
            ("simulation", "seed", "1.5",
             "key 'seed' in [simulation] is not an integer: '1.5'"),
            ("simulation", "seed", "-1",
             "key 'seed' in [simulation] must be >= 0, got -1"),
            ("simulation", "grid_step_kwh", "abc",
             "key 'grid_step_kwh' in [simulation] is not a number: 'abc'"),
            ("simulation", "grid_step_kwh", "nan",
             "key 'grid_step_kwh' in [simulation] must be a finite number, got 'nan'"),
            ("simulation", "grid_step_kwh", "0",
             "key 'grid_step_kwh' in [simulation] must be > 0, got 0.0"),
            ("simulation", "reduction_target_kwh", "abc",
             "key 'reduction_target_kwh' in [simulation] is not a number: 'abc'"),
            ("simulation", "reduction_target_kwh", "nan",
             "key 'reduction_target_kwh' in [simulation] must be a finite number, "
             "got 'nan'"),
            ("simulation", "reduction_target_kwh", "-1",
             "key 'reduction_target_kwh' in [simulation] must be >= 0, got -1.0"),
            ("sweep", "param", "q_max",
             "[sweep]: sweep parameter must be one of ('p_r', 'gamma'), got 'q_max'"),
            ("sweep", "from", "abc", "key 'from' in [sweep] is not a number: 'abc'"),
            ("sweep", "from", "nan",
             "key 'from' in [sweep] must be a finite number, got 'nan'"),
            ("sweep", "from", "2", "[sweep]: sweep range must have stop >= start"),
            ("sweep", "to", "abc", "key 'to' in [sweep] is not a number: 'abc'"),
            ("sweep", "to", "nan",
             "key 'to' in [sweep] must be a finite number, got 'nan'"),
            ("sweep", "to", "-1", "[sweep]: sweep range must have stop >= start"),
            ("sweep", "from", "-1e308",
             "[sweep]: sweep range from -1e+308 to 1.0 in 101 steps overflows: "
             "(stop - start) * (steps - 1) must be finite"),
            ("sweep", "steps", "abc",
             "key 'steps' in [sweep] is not an integer: 'abc'"),
            ("sweep", "steps", "1.5",
             "key 'steps' in [sweep] is not an integer: '1.5'"),
            ("sweep", "steps", "0", "[sweep]: steps must lie in [1, 100000], got 0"),
            ("prices", "price_usd_per_kwh2", "0.26",
             "unknown key 'price_usd_per_kwh2' in [prices]; expected one of "
             "['price_usd_per_kwh', 'incentive_usd_per_kwh']"),
            ("consumer.a", "behaviour", "truthful",
             "unknown key 'behaviour' in [consumer.a]; expected one of "
             "['baseline_kwh', 'marginal_utility_usd_per_kwh2', "
             "'max_consumption_kwh', 'call_probability', 'behavior']"),
            ("simulation", "trails", "5",
             "unknown key 'trails' in [simulation]; expected one of "
             "['trials', 'seed', 'grid_step_kwh', 'reduction_target_kwh']"),
            ("sweep", "behavior", "rational",
             "unknown key 'behavior' in [sweep]; expected one of "
             "['param', 'from', 'to', 'steps']"),
            ("simulaton", "trials", "5",
             "unknown section [simulaton]; expected [prices], [consumer.<id>], "
             "[simulation] or [sweep]"),
        ],
    )
    def test_each_key(self, section, key, value, message):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(with_value(section, key, value))
        assert str(info.value) == message

    # A file with several errors names the first in file order, and within
    # a section the first in the order its keys are read and checked.
    @pytest.mark.parametrize(
        "text, message",
        [
            (
                GOOD.replace("call_probability = 0.1", "call_probability = 1.5")
                + SECOND_CONSUMER.replace("baseline_kwh = 8.0", "baseline_kwh = abc"),
                "[consumer.a]: call probability must lie in [0, 1], got 1.5",
            ),
            (
                GOOD + "\n[simulation]\ntrials = 0\nseed = abc\n",
                "key 'trials' in [simulation] must be >= 1, got 0",
            ),
            (
                GOOD + "\n[simulation]\nseed = -5\ngrid_step_kwh = abc\n",
                "key 'grid_step_kwh' in [simulation] is not a number: 'abc'",
            ),
            (
                GOOD.replace("16.0", "13.0")
                .replace("call_probability = 0.1", "call_probability = abc"),
                "[consumer.a]: max_consumption=13.0 must exceed the saturation "
                "point baseline + p/gamma = 13.2",
            ),
            (
                GOOD + "\n[simulation]\nreduction_target_kwh = -1\n"
                "\n[sweep]\nsteps = abc\n",
                "key 'reduction_target_kwh' in [simulation] must be >= 0, got -1.0",
            ),
            (
                with_value("prices", "spot_price", "0.1") + "\n[sweep]\nsteps = 0\n",
                "[sweep]: steps must lie in [1, 100000], got 0",
            ),
        ],
        ids=["two-consumers", "trials-and-seed", "seed-and-grid-step",
             "cap-and-probability", "simulation-and-sweep", "unknown-key-last"],
    )
    def test_several_errors_name_the_first(self, text, message):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value) == message


class TestSweepSpec:
    def test_default_ranges(self):
        pr = default_sweep("p_r")
        assert (pr.start, pr.stop, pr.steps) == (0.0, 1.0, 101)
        gamma = default_sweep("gamma")
        assert gamma.start > 0.0325  # keeps the default scenario cap valid

    def test_values_hit_endpoints(self):
        values = default_sweep("p_r").values()
        assert values[0] == 0.0
        assert values[-1] == 1.0
        assert len(values) == 101

    def test_steps_bounded(self):
        from drcontract import SweepSpec
        from drcontract.scenario import MAX_SWEEP_STEPS

        assert SweepSpec("p_r", 0.0, 1.0, MAX_SWEEP_STEPS).steps == 10**5
        with pytest.raises(ScenarioError, match="steps must lie in"):
            SweepSpec("p_r", 0.0, 1.0, MAX_SWEEP_STEPS + 1)

    def test_single_step(self):
        from drcontract import SweepSpec

        assert SweepSpec("p_r", 0.3, 0.9, 1).values() == [0.3]

    def test_range_whose_steps_overflow_refused(self):
        from drcontract import SweepSpec

        # One step takes no width; a finite (stop - start) * (steps - 1) keeps
        # every point finite.
        assert SweepSpec("gamma", -1e308, 1e308, 1).values() == [-1e308]
        assert SweepSpec("gamma", 0.0, 1e308, 2).values() == [0.0, 1e308]
        with pytest.raises(ScenarioError) as info:
            SweepSpec("gamma", 0.0, 1e308, 3)
        assert str(info.value) == (
            "sweep range from 0.0 to 1e+308 in 3 steps overflows: "
            "(stop - start) * (steps - 1) must be finite"
        )


def configparser_sections(text):
    """What configparser reads from ``text``, or None when it refuses it."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error:
        return None
    return {name: dict(parser.items(name)) for name in parser.sections()}


# Delimiters, brackets, comment prefixes, upper case and the whitespace that
# str.strip() removes but a "\n" split keeps inside a line.
INI_CHARS = "ab=:[]#; AB\t\r\x0b\x0c\x85\u2028"
ini_text = st.text(INI_CHARS, max_size=8)
ini_names = st.sampled_from(["a", "A", "b", "DEFAULT", " a ", "x=y"]) | ini_text
ini_space = st.sampled_from(["", " ", "\t", "\x0c", "\r", "\u2028"])
ini_option = st.builds(
    "{}{}{}{}{}".format,
    ini_names, ini_space, st.sampled_from(["=", ":"]), ini_space, ini_text,
)
ini_lines = st.one_of(
    st.builds("[{}]".format, ini_names),
    ini_option,
    ini_option,
    st.builds(
        "{}{}".format,
        st.sampled_from([" ", "\t", "  "]),
        st.one_of(ini_text, ini_option, st.builds("[{}]".format, ini_names)),
    ),
    st.builds("{}{}{}".format, ini_space, st.sampled_from(["#", ";"]), ini_text),
    ini_space,
    ini_text,
)
# Mostly well-formed files, so that the reader is exercised where it reads.
ini_files = st.builds(
    "\n".join,
    st.lists(ini_lines, max_size=12).map(lambda lines: ["[s]", *lines]),
) | st.builds("\n".join, st.lists(ini_lines, max_size=12))


class TestFlatReader:
    @settings(max_examples=500, deadline=None)
    @given(ini_files)
    def test_reads_what_configparser_reads_or_declines(self, text):
        flat = _read_flat(text)
        expected = configparser_sections(text)
        if expected is None:
            assert flat is None
        elif flat is not None:
            assert flat == expected
            assert [list(keys) for keys in flat.values()] == [
                list(keys) for keys in expected.values()
            ]
            assert list(flat) == list(expected)

    @pytest.mark.parametrize(
        "text", [default_scenario_text(), mixed_scenario_text()],
        ids=["default", "mixed"],
    )
    def test_scenarios_take_the_flat_path(self, text):
        flat = _read_flat(text)
        assert flat is not None
        assert flat == configparser_sections(text)

    def test_flat_subset(self):
        text = (
            "# lead\n[s]\n  ; indented comment\nKey = a = b \r\n\n"
            "Other=\n[t u]\n"
        )
        assert _read_flat(text) == {"s": {"key": "a = b", "other": ""}, "t u": {}}

    @pytest.mark.parametrize(
        "text",
        [
            "[s]\nk = v\n  more\n",  # continuation
            "[s]\nk = v\n  j = w\n",  # continuation holding a delimiter
            "[s]\n\tk = v\n",  # indented option
            "[s]\nk: v\n",  # ':' delimiter
            "[s]\nk: v = w\n",  # ':' before the first '='
            "[s]\nk\n",  # no delimiter
            "[s]\n= v\n",  # empty key
            "k = v\n[s]\n",  # option before any header
            "[s] trailing\nk = v\n",  # header not ending in ']'
            "[DEFAULT]\nk = v\n[s]\n",
            "[s]\n[s]\n",  # duplicate section
            "[s]\nk = 1\nK = 2\n",  # duplicate key after lower-casing
        ],
    )
    def test_other_syntax_is_declined(self, text):
        assert _read_flat(text) is None


class TestConfigparserFallback:
    def test_other_syntax_loads_the_same(self):
        text = GOOD.replace(" = ", ": ").replace("[consumer.a]", "  # a\n[consumer.a]")
        assert _read_flat(text) is None
        assert parse_scenario(text) == parse_scenario(GOOD)

    def test_default_section_applies_to_every_section(self):
        text = "[DEFAULT]\nbehavior = truthful\n" + GOOD
        assert parse_scenario(text).behaviors["a"] is Behavior.TRUTHFUL

    @pytest.mark.parametrize(
        "text, key",
        [
            # A typo of trials, which the bundled [simulation] would read.
            (
                "[DEFAULT]\ntrails = 5\n"
                + default_scenario_text().replace("trials = 1000\n", ""),
                "trails",
            ),
            # A [simulation] key without a [simulation] section to read it.
            ("[DEFAULT]\ntrials = 5\n" + GOOD, "trials"),
        ],
    )
    def test_default_key_that_no_section_reads_is_refused(self, text, key):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value) == (
            f"unknown key {key!r} in [DEFAULT]; no section of the scenario reads it"
        )

    def test_default_key_read_by_a_present_section_loads(self):
        text = "[DEFAULT]\ntrials = 5\n" + default_scenario_text().replace(
            "trials = 1000\n", ""
        )
        assert parse_scenario(text).trials == 5

    # The messages configparser gives, as they read before the flat reader.
    @pytest.mark.parametrize(
        "text, message",
        [
            (
                GOOD + "[prices]\nx = 1\n",
                "While reading from '<string>' [line 11]: "
                "section 'prices' already exists",
            ),
            (
                GOOD + "baseline_kwh = 9\n",
                "While reading from '<string>' [line 11]: "
                "option 'baseline_kwh' in section 'consumer.a' already exists",
            ),
            (
                "price_usd_per_kwh = 0.26\n" + GOOD,
                "File contains no section headers.\nfile: '<string>', line: 1\n"
                "'price_usd_per_kwh = 0.26\\n'",
            ),
            (
                GOOD + "just words\n",
                "Source contains parsing errors: '<string>'\n"
                "\t[line 11]: 'just words\\n'",
            ),
        ],
        ids=["duplicate-section", "duplicate-key", "no-header", "no-delimiter"],
    )
    def test_malformed_file_messages(self, text, message):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value) == f"malformed scenario file: {message}"


class TestConsumerIds:
    @pytest.mark.parametrize("cid", ["", "a,b", 'a"b', ","])
    @pytest.mark.parametrize("delimiter", [" = ", ": "], ids=["flat", "fallback"])
    def test_ids_that_break_the_csv_are_rejected(self, cid, delimiter):
        text = GOOD.replace("[consumer.a]", f"[consumer.{cid}]")
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text.replace(" = ", delimiter))
        assert str(info.value) == (
            f"[consumer.{cid}]: consumer id must be non-empty and contain no "
            f"',' or '\"', got {cid!r}"
        )

    def test_other_ids_are_kept(self):
        text = GOOD.replace("[consumer.a]", "[consumer.A b.c-1]")
        assert parse_scenario(text).members[0].consumer_id == "A b.c-1"


def consumer(cid="a", **changes):
    """GOOD's consumer section as ``[consumer.<cid>]``, with each key in
    ``changes`` set to its value, or removed when None."""
    lines = GOOD[GOOD.index("[consumer.a]"):].strip().splitlines()
    lines[0] = f"[consumer.{cid}]"
    for key, value in changes.items():
        lines = [line for line in lines if not line.startswith(f"{key} =")]
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n\n"


PRICES = GOOD[:GOOD.index("[consumer.a]")]

# One break of each per-consumer rule: the section's id and its changes.
CONSUMER_BREAKS = {
    "missing-key": ("b", {"baseline_kwh": None}),
    "missing-probability": ("b", {"call_probability": None}),
    "not-a-number": ("b", {"max_consumption_kwh": "abc"}),
    "probability-not-a-number": ("b", {"call_probability": "abc"}),
    "non-finite": ("b", {"marginal_utility_usd_per_kwh2": "inf"}),
    "nan": ("b", {"baseline_kwh": "nan"}),
    "non-finite-probability": ("b", {"call_probability": "-inf"}),
    "bad-params": ("b", {"marginal_utility_usd_per_kwh2": "0"}),
    "negative-baseline": ("b", {"baseline_kwh": "-1"}),
    "cap-under-saturation": ("b", {"max_consumption_kwh": "13"}),
    "saturation-overflows": ("b", {"marginal_utility_usd_per_kwh2": "1e-320"}),
    "call-probability": ("b", {"call_probability": "1.5"}),
    "unknown-behavior": ("b", {"behavior": "abc"}),
    "bad-id": ("b,x", {}),
    "empty-id": ("", {}),
}


class TestConsumerColumns:
    """The consumers are read and checked as columns; the first section
    that breaks a rule is named, with the message of its first rule."""

    @pytest.mark.parametrize(
        "rule, message",
        [
            ("missing-key", "missing key 'baseline_kwh' in [consumer.b]"),
            ("missing-probability", "missing key 'call_probability' in [consumer.b]"),
            ("not-a-number",
             "key 'max_consumption_kwh' in [consumer.b] is not a number: 'abc'"),
            ("probability-not-a-number",
             "key 'call_probability' in [consumer.b] is not a number: 'abc'"),
            ("non-finite",
             "key 'marginal_utility_usd_per_kwh2' in [consumer.b] must be a finite "
             "number, got 'inf'"),
            ("nan", "key 'baseline_kwh' in [consumer.b] must be a finite number, "
             "got 'nan'"),
            ("non-finite-probability",
             "key 'call_probability' in [consumer.b] must be a finite number, "
             "got '-inf'"),
            ("bad-params", "[consumer.b]: marginal_utility must be > 0, got 0.0"),
            ("negative-baseline", "[consumer.b]: baseline must be > 0, got -1.0"),
            ("cap-under-saturation",
             "[consumer.b]: max_consumption=13.0 must exceed the saturation point "
             "baseline + p/gamma = 13.2"),
            ("saturation-overflows",
             "[consumer.b]: max_consumption=16.0 must exceed the saturation point "
             "baseline + p/gamma = inf"),
            ("call-probability",
             "[consumer.b]: call probability must lie in [0, 1], got 1.5"),
            ("unknown-behavior",
             "[consumer.b]: unknown behavior 'abc'; expected one of "
             "['rational', 'truthful', 'naive_gamer']"),
            ("bad-id",
             "[consumer.b,x]: consumer id must be non-empty and contain no "
             "',' or '\"', got 'b,x'"),
            ("empty-id",
             "[consumer.]: consumer id must be non-empty and contain no "
             "',' or '\"', got ''"),
        ],
    )
    def test_second_of_three_is_named(self, rule, message):
        cid, changes = CONSUMER_BREAKS[rule]
        text = PRICES + consumer("a") + consumer(cid, **changes) + consumer("c")
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value) == message

    # A later rule in an earlier section beats an earlier rule in a later one.
    @pytest.mark.parametrize(
        "first, second, message",
        [
            ({"behavior": "abc"}, {"baseline_kwh": None},
             "[consumer.a]: unknown behavior 'abc'; expected one of "
             "['rational', 'truthful', 'naive_gamer']"),
            ({"call_probability": "1.5"}, {"baseline_kwh": "-1"},
             "[consumer.a]: call probability must lie in [0, 1], got 1.5"),
            ({"max_consumption_kwh": "13"}, {"marginal_utility_usd_per_kwh2": "0"},
             "[consumer.a]: max_consumption=13.0 must exceed the saturation point "
             "baseline + p/gamma = 13.2"),
            ({"call_probability": "nan"}, {"max_consumption_kwh": "abc"},
             "key 'call_probability' in [consumer.a] must be a finite number, "
             "got 'nan'"),
        ],
        ids=["behavior-over-missing", "probability-over-params",
             "cap-over-params", "probability-over-not-a-number"],
    )
    def test_earlier_section_wins(self, first, second, message):
        text = (
            PRICES + consumer("ok") + consumer("a", **first)
            + consumer("b", **second) + consumer("ok2")
        )
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value) == message

    def test_earlier_section_wins_over_a_bad_id(self):
        text = (
            PRICES + consumer("a", max_consumption_kwh="13") + consumer("b,x")
        )
        with pytest.raises(ScenarioError, match=r"^\[consumer\.a\]: max_cons"):
            parse_scenario(text)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.sets(st.sampled_from(sorted(CONSUMER_BREAKS)), max_size=2)
        | st.just(set()),
        min_size=1, max_size=12,
    ))
    def test_message_is_that_of_the_first_bad_section_alone(self, breaks):
        sections = []
        for k, rules in enumerate(breaks):
            cid, changes = f"c{k}", {}
            for rule in sorted(rules):
                rule_cid, rule_changes = CONSUMER_BREAKS[rule]
                if rule_cid != "b":
                    cid = f"{rule_cid}{k}" if rule_cid else ""
                changes.update(rule_changes)
            sections.append(consumer(cid, **changes))
        if len({section.splitlines()[0] for section in sections}) < len(sections):
            return  # two empty ids make a duplicate section
        try:
            parse_scenario(PRICES + "".join(sections))
        except ScenarioError as exc:
            message = str(exc)
        else:
            assert not any(breaks)
            return
        first = next(k for k, rules in enumerate(breaks) if rules)
        with pytest.raises(ScenarioError) as info:
            parse_scenario(PRICES + sections[first])
        assert message == str(info.value)


def test_payoff_overflow_names_the_second_of_three():
    # Every rule but the payoff terms' holds; the loader's columns find the
    # break and its per-section check names it.
    big = consumer(
        "b", baseline_kwh="1e200", marginal_utility_usd_per_kwh2="1",
        max_consumption_kwh="2e200",
    )
    with pytest.raises(ScenarioError) as info:
        parse_scenario(PRICES + consumer("a") + big + consumer("c"))
    assert str(info.value) == (
        "[consumer.b]: payoff term saturation_point^2 = inf must be at most "
        "1.1235582092889473e+307 for the payoffs to stay finite"
    )


class TestMemberView:
    def test_sequence(self):
        text = mixed_scenario_text(consumers=5)
        members = parse_scenario(text).members
        assert len(members) == 5
        assert members[-1] == members[4]
        assert members[1:4:2] == (members[1], members[3])
        assert isinstance(members[1:4:2], tuple)
        assert [m.consumer_id for m in members] == [f"m{k:03d}" for k in range(5)]
        assert list(members) == [members[k] for k in range(5)]
        for index in (5, -6):
            with pytest.raises(IndexError):
                members[index]

    def test_members_are_those_of_the_sections(self):
        text = mixed_scenario_text()
        sections = configparser_sections(text)
        by_hand = tuple(
            PortfolioMember(
                name[len("consumer."):],
                ConsumerParams(
                    float(section["baseline_kwh"]),
                    float(section["marginal_utility_usd_per_kwh2"]),
                    float(section["max_consumption_kwh"]),
                ),
                float(section["call_probability"]),
            )
            for name, section in sections.items()
            if name.startswith("consumer.")
        )
        members = parse_scenario(text).members
        assert tuple(members) == by_hand
        assert by_hand == tuple(members)
        assert all(type(m) is PortfolioMember for m in members)
        assert all(type(m.call_probability) is float for m in members)
        assert tuple(members) != by_hand[:-1]

    def test_portfolio_is_the_members(self):
        scenario = parse_scenario(mixed_scenario_text(consumers=4))
        assert scenario.portfolio() is scenario.members
        assert scenario.members.prices is scenario.prices

    def test_prices_are_the_members_own(self):
        scenario = load_scenario(None)
        assert "prices" not in Scenario._fields
        with pytest.raises(ValueError):
            scenario._replace(prices=Prices(0.1, 0.2))

    def test_columns_are_read_only(self):
        members = parse_scenario(mixed_scenario_text(consumers=4)).members
        for column in (
            members.params.baseline, members.params.marginal_utility,
            members.params.max_consumption, members.call_probabilities,
        ):
            assert column.shape == (4,)
            with pytest.raises(ValueError):
                column[0] = 1.0
        assert isinstance(members.consumer_ids, tuple)
        for name in (*type(members)._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(members, name, None)
            with pytest.raises(AttributeError):
                delattr(members, name)
        assert members.prices == Prices(0.26, 0.30)

    def test_replace_checks_again(self):
        members = parse_scenario(mixed_scenario_text(consumers=4)).members
        probabilities = np.array([0.5, 0.25, 0.0, 1.0])
        changed = members._replace(call_probabilities=probabilities)
        assert type(changed) is Portfolio
        assert changed.call_probabilities is probabilities
        assert changed.consumer_ids == members.consumer_ids
        assert changed.params is members.params and changed.prices is members.prices
        for column in (changed.call_probabilities, changed.params.baseline):
            with pytest.raises(ValueError):
                column[0] = 0.1
        assert changed != members
        assert [m.call_probability for m in changed] == [0.5, 0.25, 0.0, 1.0]
        with pytest.raises(ValueError, match="call probability"):
            members._replace(call_probabilities=np.array([0.5, 0.25, 0.0, 1.5]))
        with pytest.raises(ValueError, match="consumer ids must be unique"):
            members._replace(consumer_ids=("a", "b", "a", "c"))
        with pytest.raises(ValueError, match="saturation point"):
            members._replace(prices=Prices(100.0, 100.0))
        with pytest.raises(TypeError):
            members._replace(behaviors=())

    def test_prints_as_a_record(self):
        members = parse_scenario(mixed_scenario_text(consumers=2)).members
        assert repr(members).startswith("Portfolio(consumer_ids=('m000', 'm001'), ")
        assert repr(members).endswith(f"prices={members.prices!r})")
