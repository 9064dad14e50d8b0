"""A seeded portfolio of every consumer type, shared by the simulation and
CLI tests."""

import random

MIXED_PRICES = (0.26, 0.30)  # threshold p / (p + p2) = 0.4642857...
MIXED_BEHAVIORS = ("rational", "truthful", "naive_gamer")


def mixed_scenario_text(consumers=120, trials=40, seed=8604, target=500.0):
    """A seeded INI portfolio mixing every behavior model.

    Rational consumers alternate between call probabilities below and above
    p/(p + p2); some consumers have a called optimum clamped at zero, and
    the first two have probability 0 and 1. At the default size the
    reduction target leaves some trials under-provisioned and not others.
    """
    rng = random.Random(seed)
    p, p2 = MIXED_PRICES
    threshold = p / (p + p2)
    lines = [
        "[prices]",
        f"price_usd_per_kwh = {p!r}",
        f"incentive_usd_per_kwh = {p2!r}",
        "",
    ]
    for k in range(consumers):
        baseline = rng.uniform(1.0, 20.0)
        gamma = rng.uniform(0.01, 0.2)
        cap = baseline + p / gamma + rng.uniform(0.5, 10.0)
        if k < 2:
            pr = float(k)
        elif (k // 3) % 2:
            pr = rng.uniform(threshold + 0.01, 0.95)
        else:
            pr = rng.uniform(0.01, threshold - 0.01)
        behavior = MIXED_BEHAVIORS[k % 3]
        lines += [
            f"[consumer.m{k:03d}]",
            f"baseline_kwh = {baseline!r}",
            f"marginal_utility_usd_per_kwh2 = {gamma!r}",
            f"max_consumption_kwh = {cap!r}",
            f"call_probability = {pr!r}",
            f"behavior = {behavior}",
            "",
        ]
    lines += [
        "[simulation]",
        f"trials = {trials}",
        f"seed = {seed}",
        f"reduction_target_kwh = {target!r}",
    ]
    return "\n".join(lines) + "\n"
