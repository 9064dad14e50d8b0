import hashlib
import re

import numpy as np
import pytest

from drcontract import ConsumerParams, Prices, Report, cli, load_scenario, oracle
from drcontract.cli import main, run_verification
from drcontract.scenario import _read_flat
from mixed_scenario import mixed_scenario_text

BAD_SCENARIO = """
[prices]
price_usd_per_kwh = 0.26
incentive_usd_per_kwh = 0.30

[consumer.a]
baseline_kwh = 8.0
marginal_utility_usd_per_kwh2 = 0.05
max_consumption_kwh = 13.0
call_probability = 0.1
"""
# The same consumer with a cap above its saturation point.
GOOD_SCENARIO = BAD_SCENARIO.replace("= 13.0", "= 16.0")

# Two consumers under prices whose call threshold 0.2/0.55 lies off every
# probability k/10 that verify's two-stage check solves at.
TWO_CONSUMERS = """
[prices]
price_usd_per_kwh = 0.2
incentive_usd_per_kwh = 0.35

[consumer.a]
baseline_kwh = 10.0
marginal_utility_usd_per_kwh2 = 0.1
max_consumption_kwh = 15.0
call_probability = 0.1

[consumer.b]
baseline_kwh = 4.0
marginal_utility_usd_per_kwh2 = 0.05
max_consumption_kwh = 12.0
call_probability = 0.1
"""


def read(path):
    return path.read_bytes().decode()


class TestSweepCommand:
    def test_default_call_probability_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        lines = read(out).splitlines()
        assert lines[0] == (
            "swept_param,value,b_hat_star,q_hat_star,q_star_r0,q_star_r1,"
            "expected_profit,normalized_baseline,regime"
        )
        assert len(lines) == 102
        first = lines[1].split(",")
        assert first[0] == "p_r"
        assert float(first[1]) == 0.0
        assert float(first[7]) == 1.0  # truthful at zero probability
        assert float(first[6]) == 1.6
        assert first[8] == "below_threshold"
        # regime flips just above the threshold and the report jumps to the cap
        rows = {float(line.split(",")[1]): line.split(",") for line in lines[1:]}
        assert rows[0.46][8] == "below_threshold"
        assert rows[0.47][8] == "above_threshold"
        assert float(rows[0.47][2]) == 16.0
        # the committed consumption never moves
        assert all(abs(float(r[3]) - 2.0) < 1e-9 for r in rows.values())

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--out", str(a)]) == 0
        assert main(["sweep", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_gamma_sweep(self, tmp_path):
        out = tmp_path / "gamma.csv"
        assert main(
            ["sweep", "--param", "gamma", "--from", "0.04", "--to", "0.2",
             "--steps", "33", "--out", str(out)]
        ) == 0
        lines = read(out).splitlines()
        assert len(lines) == 34
        rows = [line.split(",") for line in lines[1:]]
        overshoot = [float(r[7]) for r in rows]
        # reported baseline approaches the true one as the preference grows
        assert all(b <= a + 1e-12 for a, b in zip(overshoot, overshoot[1:]))
        assert overshoot[-1] < overshoot[0]
        # consumption when not called equals the reported baseline
        assert all(r[2] == r[4] for r in rows)

    def test_gamma_sweep_violating_cap_is_rejected(self, tmp_path, capsys):
        code = main(
            ["sweep", "--param", "gamma", "--from", "0.01", "--to", "0.2",
             "--steps", "20", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "saturation" in capsys.readouterr().err

    def test_out_of_range_probability_rejected(self, tmp_path):
        code = main(
            ["sweep", "--from", "0.5", "--to", "1.5", "--steps", "3",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--from", "-0.5"],
             "swept call probability -0.5: call probability must lie in [0, 1], "
             "got -0.5"),
            (["--param", "gamma", "--from", "0", "--to", "0.1"],
             "swept marginal utility 0.0: marginal_utility must be > 0, got 0.0"),
            (["--param", "gamma", "--from", "0.001"],
             "swept marginal utility 0.001: max_consumption=16.0 must exceed "
             "the saturation point baseline + p/gamma = 268.0"),
            (["--param", "gamma", "--from", "0.5", "--to", "0.2"],
             "sweep range must have stop >= start"),
        ],
    )
    def test_bad_point_rejected_before_the_run(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"drcontract: {message}\n"
        assert "scenario_hash=" not in err
        assert not out.exists()

    def test_unknown_sweep_param_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--param", "q_max", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1

    @pytest.mark.parametrize("steps", ["0", "100001", "1000000000"])
    def test_steps_out_of_range_rejected(self, tmp_path, capsys, steps):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--steps", steps, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument --steps: must lie in [1, 100000], got {steps}" in err
        assert not (tmp_path / "x.csv").exists()

    def test_scenario_steps_out_of_range_rejected(self, tmp_path, capsys):
        path = tmp_path / "long.ini"
        path.write_text(GOOD_SCENARIO + "[sweep]\nsteps = 100001\n")
        assert main(["sweep", "--scenario", str(path)]) == 1
        assert "[sweep]: steps must lie in [1, 100000]" in capsys.readouterr().err

    def test_logs_scenario_hash_and_seed(self, tmp_path, capsys):
        main(["sweep", "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert "scenario_hash=" in err
        assert "seed=42" in err
        assert "version=" in err


class TestVerifyCommand:
    def test_default_scenario_passes(self, tmp_path, capsys):
        code = main(
            ["verify", "--draws", "60", "--grid-step", "0.02",
             "--out", str(tmp_path / "verify.txt")]
        )
        assert code == 0
        report = read(tmp_path / "verify.txt")
        assert "VERIFY PASS" in report
        assert report.count("PASS") >= 4

    def test_literal_variant_fails_continuity(self, tmp_path):
        code = main(
            ["verify", "--draws", "5", "--grid-step", "0.05",
             "--literal-above-threshold", "--out", str(tmp_path / "verify.txt")]
        )
        assert code == 2
        report = read(tmp_path / "verify.txt")
        assert "continuity" in report
        assert "FAIL" in report

    def test_too_fine_grid_is_validation_error(self, tmp_path, capsys):
        code = main(
            ["verify", "--grid-step", "1e-4", "--draws", "1",
             "--out", str(tmp_path / "v.txt")]
        )
        assert code == 1
        assert "coarser grid step" in capsys.readouterr().err

    def test_too_fine_grid_is_refused_before_any_draw(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_draws(rng, draws):
            raise AssertionError("a stage-2 draw ran before the grid check")

        monkeypatch.setattr(cli, "_draw_instances", no_draws)
        code = main(
            ["verify", "--grid-step", "1e-4", "--out", str(tmp_path / "v.txt")]
        )
        assert code == 1
        assert "coarser grid step" in capsys.readouterr().err
        assert not (tmp_path / "v.txt").exists()

    def test_stage2_work_is_bounded(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_STAGE2_POINTS", 1000)
        out = tmp_path / "v.txt"
        code = main(
            ["verify", "--draws", "5", "--grid-step", "0.05", "--out", str(out)]
        )
        assert code == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert re.fullmatch(
            r"drcontract: the stage-2 grid search would evaluate \d+ points over "
            r"5 rows, over the limit of 1000; use a coarser grid step",
            last,
        )
        assert not out.exists()

    def test_stage2_bound_comes_before_the_two_stage_search(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_search(*args):
            raise AssertionError("the two-stage search ran before the stage-2 bound")

        monkeypatch.setattr(oracle, "_best_commitments", no_search)
        monkeypatch.setattr(oracle, "_MAX_STAGE2_POINTS", 1000)
        out = tmp_path / "v.txt"
        code = main(
            ["verify", "--draws", "5", "--grid-step", "0.05", "--out", str(out)]
        )
        assert code == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("drcontract: the stage-2 grid search would evaluate")
        assert not out.exists()

    def test_invalid_scenario_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(BAD_SCENARIO)
        code = main(["verify", "--scenario", str(bad)])
        assert code == 1
        assert "saturation" in capsys.readouterr().err

    @pytest.mark.parametrize("draws", ["0", "100001"])
    def test_draws_out_of_range_rejected_before_the_run(self, tmp_path, capsys, draws):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--draws", draws, "--out", str(tmp_path / "v.txt")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument --draws: must lie in [1, 100000], got {draws}" in err
        assert "scenario_hash=" not in err

    def test_two_stage_check_solves_the_first_consumer(self, tmp_path):
        # The continuity check loops over every consumer; the two-stage
        # check that follows it must still compare the first one.
        path = tmp_path / "two.ini"
        path.write_text(TWO_CONSUMERS)
        first_only = tmp_path / "one.ini"
        first_only.write_text(TWO_CONSUMERS[: TWO_CONSUMERS.index("[consumer.b]")])
        lines = {}
        for name in (path, first_only):
            echoed = []
            scenario = load_scenario(str(name))
            assert run_verification(scenario, 0.05, 1, 42, echo=echoed.append)
            lines[name] = [line for line in echoed if line.startswith("two-stage")]
        assert lines[path] == lines[first_only]
        assert "(11 call probabilities, a)" in lines[path][0]

    def test_kernel_runs_twice_whatever_the_draw_count(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return cli_solve(*args, **kwargs)

        cli_solve = cli.solve
        monkeypatch.setattr(cli, "solve", counted)
        for draws in ("3", "40"):
            calls.clear()
            assert main(
                ["verify", "--draws", draws, "--grid-step", "0.05",
                 "--out", str(tmp_path / "v.txt")]
            ) == 0
            assert len(calls) == 2


    def test_offending_draw_is_the_first_worst_one(self, tmp_path, monkeypatch):
        # 1e-3 added to both closed-form payoffs of draws 3 and 7 gives four
        # equal worst deviations at seed 33; the first, draw 3 not called,
        # is named. Recorded from the per-draw loop.
        def skewed(*args, **kwargs):
            solution = cli_solve(*args, **kwargs)
            if "report" not in kwargs:
                return solution
            payoff = solution.payoff.copy()
            payoff[[3, 7]] += 1e-3
            return solution._replace(payoff=payoff)

        cli_solve = cli.solve
        monkeypatch.setattr(cli, "solve", skewed)
        out = tmp_path / "v.txt"
        assert main(
            ["verify", "--draws", "10", "--grid-step", "0.05", "--seed", "33",
             "--out", str(out)]
        ) == 2
        assert read(out) == OFFENDING_DRAW_REPORT

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (6, 1e3, "report must satisfy 0 <= committed <= baseline"),
            (4, 0.01, "incentive_price must be >= energy_price"),
            (0, float("nan"), "baseline must be finite"),
        ],
    )
    def test_bad_draw_raises_its_constructors_error(
        self, tmp_path, capsys, monkeypatch, column, value, message
    ):
        def one_bad_row(rng, draws):
            drawn = draw_instances(rng, draws)
            drawn[1, column] = value
            return drawn

        draw_instances = cli._draw_instances
        monkeypatch.setattr(cli, "_draw_instances", one_bad_row)
        code = main(
            ["verify", "--draws", "3", "--grid-step", "0.05",
             "--out", str(tmp_path / "v.txt")]
        )
        assert code == 1
        assert message in capsys.readouterr().err


def reference_draw_instance(rng):
    """One verify instance drawn with one rng.uniform call per field, as
    verify drew them one at a time."""
    baseline = rng.uniform(1.0, 20.0)
    gamma = rng.uniform(0.01, 0.2)
    p = rng.uniform(0.05, 0.5)
    p2 = rng.uniform(p, 2 * p)
    params = ConsumerParams(
        baseline=baseline,
        marginal_utility=gamma,
        max_consumption=baseline + p / gamma + rng.uniform(1.0, 10.0),
    )
    prices = Prices(energy_price=p, incentive_price=p2)
    reported = rng.uniform(0.0, params.max_consumption)
    report = Report(baseline=reported, committed=rng.uniform(0.0, reported))
    return params, prices, report


@pytest.mark.parametrize("seed", [1, 7, 42, 401, 8604, 123456])
def test_drawing_all_instances_at_once_keeps_the_stream(seed):
    rng = np.random.default_rng(seed)
    want = [reference_draw_instance(rng) for _ in range(300)]
    drawn = cli._draw_instances(np.random.default_rng(seed), 300)
    assert [cli._instance(row) for row in drawn] == want


class TestSimulateCommand:
    def test_single_trial_is_deterministic(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(
            ["simulate", "--trials", "1", "--seed", "7", "--out", str(out)]
        ) == 0
        lines = read(out).splitlines()
        assert lines[0] == "trial,consumer_id,r,b_hat,q_hat,q_actual,payment,profit"
        assert len(lines) == 2
        again = tmp_path / "again.csv"
        main(["simulate", "--trials", "1", "--seed", "7", "--out", str(again)])
        assert out.read_bytes() == again.read_bytes()

    def test_emits_summaries_and_stats(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(
            ["simulate", "--trials", "20", "--seed", "3", "--out", str(out)]
        ) == 0
        summaries = read(tmp_path / "run.summaries.csv").splitlines()
        assert summaries[0] == (
            "trial,called_count,total_reduction_kwh,total_payout_usd,"
            "under_provisioned"
        )
        assert len(summaries) == 21
        stats = read(tmp_path / "run.stats.csv").splitlines()
        assert stats[0] == (
            "consumer_id,behavior,trials,call_frequency,mean_profit,"
            "profit_variance,mean_payment,mean_reduction_kwh"
        )
        assert stats[1].startswith("household,rational,20,")

    def test_mean_profit_close_to_expected(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(
            ["simulate", "--trials", "1000", "--seed", "13", "--out", str(out)]
        ) == 0
        stats = read(tmp_path / "run.stats.csv").splitlines()[1].split(",")
        mean_profit, variance = float(stats[4]), float(stats[5])
        se = (variance / 1000) ** 0.5
        assert abs(mean_profit - 1.7) <= 3 * se

    def test_mixed_behaviors_rank_as_designed(self, tmp_path):
        scenario = tmp_path / "mixed.ini"
        scenario.write_text(
            """
[prices]
price_usd_per_kwh = 0.26
incentive_usd_per_kwh = 0.30

[consumer.smart]
baseline_kwh = 8.0
marginal_utility_usd_per_kwh2 = 0.05
max_consumption_kwh = 16.0
call_probability = 0.1
behavior = rational

[consumer.honest]
baseline_kwh = 8.0
marginal_utility_usd_per_kwh2 = 0.05
max_consumption_kwh = 16.0
call_probability = 0.1
behavior = truthful

[consumer.gamer]
baseline_kwh = 8.0
marginal_utility_usd_per_kwh2 = 0.05
max_consumption_kwh = 16.0
call_probability = 0.1
behavior = naive_gamer
"""
        )
        out = tmp_path / "mixed.csv"
        assert main(
            ["simulate", "--scenario", str(scenario), "--trials", "500",
             "--seed", "37", "--out", str(out)]
        ) == 0
        rows = [
            line.split(",")
            for line in read(tmp_path / "mixed.stats.csv").splitlines()[1:]
        ]
        means = {r[0]: float(r[4]) for r in rows}
        assert means["gamer"] < means["honest"]
        assert means["gamer"] < means["smart"]

    def test_bad_trials_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--trials", "0", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --trials: must be >= 1, got 0" in err
        assert "scenario_hash=" not in err

    @pytest.mark.parametrize(
        "consumers, trials", [("1", "10000001"), ("120", "100000")]
    )
    def test_too_many_records_rejected_before_the_run(
        self, tmp_path, mixed_ini, capsys, consumers, trials
    ):
        scenario = [] if consumers == "1" else ["--scenario", str(mixed_ini)]
        out = tmp_path / "x.csv"
        code = main(["simulate", *scenario, "--trials", trials, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"--trials = {trials} with {consumers} consumers gives" in err
        assert "over the limit of 10000000; use fewer trials" in err
        assert "scenario_hash=" not in err
        assert not out.exists()

    def test_too_many_scenario_trials_rejected(self, tmp_path, capsys):
        path = tmp_path / "long.ini"
        path.write_text(GOOD_SCENARIO + "[simulation]\ntrials = 10000001\n")
        assert main(["simulate", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert "key 'trials' in [simulation] = 10000001 with 1 consumers" in err

    def test_too_many_default_trials_rejected_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        consumer = GOOD_SCENARIO[GOOD_SCENARIO.index("[consumer.a]"):]
        path = tmp_path / "wide.ini"
        path.write_text(
            GOOD_SCENARIO[:GOOD_SCENARIO.index("[consumer.a]")]
            + "".join(consumer.replace("consumer.a", f"consumer.c{k}")
                      for k in range(10001))
        )

        def run_monte_carlo(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_monte_carlo", run_monte_carlo)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "drcontract: key 'trials' in [simulation] (default 1000) = 1000 with "
            "10001 consumers gives 10001000 event records, over the limit of "
            "10000000; use fewer trials\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("cid", ["a,b", ""])
    def test_consumer_id_that_breaks_the_csv_rejected(self, tmp_path, capsys, cid):
        path = tmp_path / "bad.ini"
        path.write_text(GOOD_SCENARIO.replace("[consumer.a]", f"[consumer.{cid}]"))
        out = tmp_path / "x.csv"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"drcontract: [consumer.{cid}]: consumer id must be non-empty" in err
        assert not out.exists()


class TestFlagValidation:
    """Bad numeric flags exit 1 before the run header, naming the flag."""

    @staticmethod
    def rejected(capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "scenario_hash=" not in err
        return err

    @pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf"])
    def test_grid_step_must_be_finite_and_positive(self, tmp_path, capsys, step):
        err = self.rejected(
            capsys, ["verify", "--grid-step", step, "--out", str(tmp_path / "v.txt")]
        )
        assert f"argument --grid-step: must be a finite number > 0, got {step}" in err

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["--from", "nan"], "--from", "nan"),
            (["--to=-inf"], "--to", "-inf"),
            (["--param", "gamma", "--from", "inf", "--to", "inf"], "--from", "inf"),
        ],
    )
    def test_sweep_range_must_be_finite(self, tmp_path, capsys, argv, flag, value):
        err = self.rejected(
            capsys, ["sweep", *argv, "--out", str(tmp_path / "s.csv")]
        )
        assert f"argument {flag}: must be a finite number, got {value}" in err

    def test_scenario_grid_step_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "step.ini"
        path.write_text(GOOD_SCENARIO + "[simulation]\ngrid_step_kwh = 0\n")
        assert main(["verify", "--scenario", str(path), "--draws", "1"]) == 1
        err = capsys.readouterr().err
        assert "key 'grid_step_kwh' in [simulation] must be > 0, got 0.0" in err
        assert "scenario_hash=" not in err


class TestSeedValidation:
    @pytest.mark.parametrize("command", ["sweep", "verify", "simulate"])
    def test_negative_seed_rejected_before_the_run(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "-1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --seed: must be >= 0, got -1" in err
        assert "scenario_hash=" not in err

    def test_negative_scenario_seed_rejected(self, tmp_path, capsys):
        path = tmp_path / "seed.ini"
        path.write_text(GOOD_SCENARIO + "[simulation]\nseed = -5\n")
        code = main(
            ["simulate", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "key 'seed' in [simulation] must be >= 0, got -5" in err
        assert "scenario_hash=" not in err


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of records, summaries and stats, recorded from the per-record
# implementation that the columnar one replaced.
MIXED_DIGESTS = {
    "8604": (
        "b1a6f46e86abef3785f84ccdb054c7ad3cf57211dd6bfd4d261c9921e88fe339",
        "3f8ddb7bc86f9f1bc66b8f4091d8627ba1f9f8fac6a1361943deaa5dba9446c2",
        "03e0b96a8c7526f898a6b8c2e0ffc29f5119515712f74306d98f326800a6660d",
    ),
    "1": (
        "7a131006ace8ff509f5bcc2e87a3cbfec32eb5511e4b05cbaeffdd42e2d66ea2",
        "e251fd87e8d93b519a56cada3cda8d9de0afb6c5a339730192cefe6d832614d6",
        "6b7ccb1a77576f3a37db3c11f42b4cb4f377a1b731204d73da8a895dcbb71afd",
    ),
}
DEFAULT_SIMULATE_DIGESTS = (
    "a3ec10633ad1c0e6889f325d3343bb4009205c054b88e3b14c088744dc831f81",
    "f1a2f834e6854838173628f05f7165d14cea2a402f4d86b61b6fe5adde7cbe00",
    "a31d444436de289937cf7c7174b7a9874bcbbcbdea119adf103c65a615db5414",
)
DEFAULT_SWEEP_DIGEST = (
    "46badeead19b058ce05565fe348c73abdddb27aa8641f2b4f37b33883d0c4136"
)
# sha256 of verify --draws 300 --grid-step 0.03 on the default scenario,
# recorded from the per-consumer closed form that the array kernel replaced.
# At this size every deviation it prints is the same at all three seeds.
VERIFY_DIGESTS = {
    seed: "987f9cafc908ccf865d0f8c3c7fb4905798f7ee3026daaa48cf6c5794d796cca"
    for seed in ("42", "8604", "401")
}
# sha256 of verify --draws 2000 --grid-step 0.01, the benchmark's size,
# recorded from the per-draw loop that the blocked pass replaced. Both seeds
# print the same bytes.
VERIFY_BENCHMARK_DIGESTS = {
    seed: "4403275f2c4a5883ba70bead07ff3a7025bfabb632958acac66b9a1e12804425"
    for seed in ("1", "8604")
}
# The report of verify --draws 10 --grid-step 0.05 --seed 33 with a 1e-3
# error added to the closed-form payoffs of draws 3 and 7.
OFFENDING_DRAW_REPORT = """\
stage-2 closed form vs grid oracle (10 draws x 2 signals): max payoff dev 0.001, max q dev 0 kWh -> FAIL
analytic case table vs grid oracle: max dev 7.11e-15 -> PASS
offending draw (seed=33): (ConsumerParams(baseline=2.3665442418462592, marginal_utility=0.18862127363256895, max_consumption=7.971445239842927), Prices(energy_price=0.18354990841595203, incentive_price=0.3546607056034675), Report(baseline=1.6705109208905842, committed=0.4194934626039762), 0)
expected-profit continuity at threshold (household): |jump| 0 -> PASS
two-stage oracle vs closed form (11 call probabilities, household): max baseline dev 0.0214 kWh, max profit dev 8.04e-06 -> PASS
VERIFY FAIL
"""  # noqa: E501


@pytest.fixture
def mixed_ini(tmp_path):
    path = tmp_path / "mixed.ini"
    path.write_text(mixed_scenario_text(), encoding="utf-8")
    return path


def simulate_outputs(tmp_path, *argv):
    out = tmp_path / "run.csv"
    assert main(["simulate", *argv, "--out", str(out)]) == 0
    return out, tmp_path / "run.summaries.csv", tmp_path / "run.stats.csv"


class TestSimulateOutputIsStable:
    @pytest.mark.parametrize("seed", sorted(MIXED_DIGESTS))
    def test_mixed_portfolio_digests(self, tmp_path, mixed_ini, seed):
        paths = simulate_outputs(tmp_path, "--scenario", str(mixed_ini), "--seed", seed)
        assert tuple(sha256(p) for p in paths) == MIXED_DIGESTS[seed]

    def test_default_scenario_digests(self, tmp_path):
        paths = simulate_outputs(tmp_path)
        assert tuple(sha256(p) for p in paths) == DEFAULT_SIMULATE_DIGESTS

    @pytest.mark.parametrize("seed", sorted(VERIFY_DIGESTS))
    def test_verify_digests(self, tmp_path, seed):
        out = tmp_path / "verify.txt"
        assert main(
            ["verify", "--draws", "300", "--grid-step", "0.03", "--seed", seed,
             "--out", str(out)]
        ) == 0
        assert sha256(out) == VERIFY_DIGESTS[seed]

    @pytest.mark.parametrize("seed", sorted(VERIFY_BENCHMARK_DIGESTS))
    def test_verify_digests_at_benchmark_size(self, tmp_path, seed):
        out = tmp_path / "verify.txt"
        assert main(
            ["verify", "--draws", "2000", "--grid-step", "0.01", "--seed", seed,
             "--out", str(out)]
        ) == 0
        assert sha256(out) == VERIFY_BENCHMARK_DIGESTS[seed]

    def test_default_sweep_digest(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        assert sha256(out) == DEFAULT_SWEEP_DIGEST

    def test_zero_payment_totals_print_as_zero(self, tmp_path):
        # A truthful consumer under these prices pays exactly 0.0 when
        # called, so each total payout adds -0.0 to +0.0 and prints "0".
        path = tmp_path / "zero.ini"
        path.write_text(
            GOOD_SCENARIO.replace("0.26", "0.25").replace("0.30", "0.5")
            .replace("8.0", "12.0").replace("0.05", "0.125")
            .replace("16.0", "20.0").replace("0.1\n", "1.0\nbehavior = truthful\n")
        )
        out, summaries, _ = simulate_outputs(
            tmp_path, "--scenario", str(path), "--trials", "2"
        )
        assert read(out).splitlines()[1:] == [
            "0,a,1,12,8,8,0,10", "1,a,1,12,8,8,0,10"
        ]
        assert read(summaries).splitlines()[1:] == ["0,1,4,0,false", "1,1,4,0,false"]

    def test_configparser_syntax_writes_the_same_bytes(self, tmp_path, mixed_ini):
        text = mixed_ini.read_text(encoding="utf-8")
        other = tmp_path / "other" / "mixed.ini"
        other.parent.mkdir()
        other.write_text(
            text.replace(" = ", ": ").replace("\n[", "\n    ; next section\n["),
            encoding="utf-8",
        )
        assert _read_flat(other.read_text(encoding="utf-8")) is None
        flat = simulate_outputs(tmp_path, "--scenario", str(mixed_ini))
        fallback = simulate_outputs(other.parent, "--scenario", str(other))
        assert [p.read_bytes() for p in fallback] == [p.read_bytes() for p in flat]

    def test_stdout_is_the_out_files_concatenated(self, tmp_path, mixed_ini, capsys):
        paths = simulate_outputs(tmp_path, "--scenario", str(mixed_ini))
        capsys.readouterr()
        assert main(["simulate", "--scenario", str(mixed_ini)]) == 0
        assert capsys.readouterr().out == "".join(read(p) for p in paths)


class TestUnwritableOutput:
    """An output path that cannot be written is one error line, exit 1."""

    @pytest.mark.parametrize("command", ["sweep", "verify", "simulate"])
    def test_missing_directory_refused_before_the_run(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def run_monte_carlo(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_monte_carlo", run_monte_carlo)
        out = tmp_path / "missing" / "x.csv"
        assert main([command, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"drcontract: cannot write output file {str(out)!r}: no such directory\n"
        )

    @pytest.mark.parametrize("command", ["sweep", "verify", "simulate"])
    def test_directory_refused(self, tmp_path, capsys, command):
        assert main([command, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"drcontract: cannot write output file {str(tmp_path)!r}: "
            "it is a directory\n"
        )

    def test_failed_write_names_the_path(self, tmp_path, capsys):
        # The records file can be written, its summaries sibling cannot.
        (tmp_path / "run.summaries.csv").mkdir()
        out = tmp_path / "run.csv"
        assert main(["simulate", "--trials", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == (
            "drcontract: cannot write output file "
            f"{str(tmp_path / 'run.summaries.csv')!r}: Is a directory"
        )
        assert not any("Traceback" in line for line in err)
