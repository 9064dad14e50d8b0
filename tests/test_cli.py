import hashlib

import pytest

from drcontract.cli import main
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

    def test_invalid_scenario_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(BAD_SCENARIO)
        code = main(["verify", "--scenario", str(bad)])
        assert code == 1
        assert "saturation" in capsys.readouterr().err


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

    def test_default_sweep_digest(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        assert sha256(out) == DEFAULT_SWEEP_DIGEST

    def test_stdout_is_the_out_files_concatenated(self, tmp_path, mixed_ini, capsys):
        paths = simulate_outputs(tmp_path, "--scenario", str(mixed_ini))
        capsys.readouterr()
        assert main(["simulate", "--scenario", str(mixed_ini)]) == 0
        assert capsys.readouterr().out == "".join(read(p) for p in paths)
