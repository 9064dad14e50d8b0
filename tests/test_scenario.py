import configparser
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drcontract
from drcontract import Behavior, ScenarioError, load_scenario
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
        with pytest.raises(ScenarioError, match="trials"):
            parse_scenario(text)


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


def test_importing_the_cli_leaves_configparser_unloaded():
    src = str(Path(drcontract.__file__).parents[1])
    code = "import drcontract.cli, sys; assert 'configparser' not in sys.modules"
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
