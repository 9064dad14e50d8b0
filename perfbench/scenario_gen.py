"""Seeded scenario files for the benchmark workloads.

The program under test only ever sees the INI text written here. Every
value is written with ``repr`` so it round-trips exactly, and the generator
uses :class:`random.Random`, whose stream is fixed across Python versions,
so one seed always gives the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BEHAVIORS = ("rational", "truthful", "naive_gamer")

# Share of consumers whose call probability lies above p/(p + p2); those
# that are rational take the ABOVE_THRESHOLD branch and report the cap.
ABOVE_SHARE = 0.2


@dataclass(frozen=True)
class Consumer:
    consumer_id: str
    baseline: float
    gamma: float
    max_consumption: float
    call_probability: float
    behavior: str


@dataclass(frozen=True)
class GeneratedScenario:
    energy_price: float
    incentive_price: float
    consumers: tuple[Consumer, ...]
    trials: int
    seed: int
    reduction_target: float

    @property
    def threshold(self) -> float:
        return self.energy_price / (self.energy_price + self.incentive_price)

    def to_ini(self) -> str:
        lines = [
            "[prices]",
            f"price_usd_per_kwh = {self.energy_price!r}",
            f"incentive_usd_per_kwh = {self.incentive_price!r}",
            "",
        ]
        for c in self.consumers:
            lines += [
                f"[consumer.{c.consumer_id}]",
                f"baseline_kwh = {c.baseline!r}",
                f"marginal_utility_usd_per_kwh2 = {c.gamma!r}",
                f"max_consumption_kwh = {c.max_consumption!r}",
                f"call_probability = {c.call_probability!r}",
                f"behavior = {c.behavior}",
                "",
            ]
        lines += [
            "[simulation]",
            f"trials = {self.trials}",
            f"seed = {self.seed}",
            f"reduction_target_kwh = {self.reduction_target!r}",
        ]
        return "\n".join(lines) + "\n"


def _announced_reduction(c: Consumer, p: float, p2: float, threshold: float) -> float:
    """Reduction a consumer commits to when called: report baseline minus
    committed level, from the paper's closed forms for each behavior."""
    committed = max(c.baseline - p2 / c.gamma, 0.0)
    if c.behavior == "truthful":
        baseline = c.baseline
    elif c.behavior == "naive_gamer" or c.call_probability > threshold:
        baseline = c.max_consumption
    else:
        pr = c.call_probability
        baseline = c.baseline + pr * p2 / (c.gamma * (1 - pr))
    return baseline - committed


def generate(seed: int, consumers: int, trials: int = 1) -> GeneratedScenario:
    """A portfolio of ``consumers`` split 1:1:1 across the behavior models.

    Every cap lies strictly above the saturation point b + p/g, so the file
    passes ``check_consumption_cap``. Consumer 0 is rational and above the
    threshold, and about ``ABOVE_SHARE`` of the rest are too. The reduction
    target is the expected committed reduction of one event, so a fair
    share of the trials come out under-provisioned.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    p = rng.uniform(0.10, 0.30)
    p2 = p * rng.uniform(1.0, 2.0)
    threshold = p / (p + p2)
    members = []
    for k in range(consumers):
        baseline = rng.uniform(2.0, 20.0)
        gamma = rng.uniform(0.02, 0.2)
        cap = baseline + p / gamma + rng.uniform(0.5, 10.0)
        if k == 0 or rng.random() < ABOVE_SHARE:
            pr = rng.uniform(threshold + 0.01, 0.95)
        else:
            pr = rng.uniform(0.01, threshold - 0.01)
        members.append(
            Consumer(f"c{k:05d}", baseline, gamma, cap, pr, BEHAVIORS[k % 3])
        )
    target = sum(
        c.call_probability * _announced_reduction(c, p, p2, threshold)
        for c in members
    )
    return GeneratedScenario(p, p2, tuple(members), trials, seed, target)
