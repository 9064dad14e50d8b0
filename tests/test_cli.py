import hashlib

import pytest

from drcontract import cli, load_scenario
from drcontract.cli import main, run_verification
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
        def no_draws(rng):
            raise AssertionError("a stage-2 draw ran before the grid check")

        monkeypatch.setattr(cli, "_draw_instance", no_draws)
        code = main(
            ["verify", "--grid-step", "1e-4", "--out", str(tmp_path / "v.txt")]
        )
        assert code == 1
        assert "coarser grid step" in capsys.readouterr().err
        assert not (tmp_path / "v.txt").exists()

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

    def test_bad_trials_rejected(self, tmp_path):
        assert main(
            ["simulate", "--trials", "0", "--out", str(tmp_path / "x.csv")]
        ) == 1

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

    def test_default_sweep_digest(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        assert sha256(out) == DEFAULT_SWEEP_DIGEST

    def test_stdout_is_the_out_files_concatenated(self, tmp_path, mixed_ini, capsys):
        paths = simulate_outputs(tmp_path, "--scenario", str(mixed_ini))
        capsys.readouterr()
        assert main(["simulate", "--scenario", str(mixed_ini)]) == 0
        assert capsys.readouterr().out == "".join(read(p) for p in paths)
