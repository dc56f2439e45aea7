"""Seeded inputs the benchmark hands to the program.

serve_replay_day is a bursty open-loop day: a two-state
Markov-modulated Poisson process (calm, and bursts at a multiple of
the calm rate), uniform over the eight paper networks, with a
dispatch deadline on every request. It is written in the trace-file
format `bitfusion_serve --trace` reads (docs/serving.md), with
shortest round-trip decimals, so the program parses exactly the
doubles generated here. The generator is independent of the library,
so a change to the library's own trace generator cannot change the
input.
"""

import random

NETWORKS = ("AlexNet", "Cifar-10", "LSTM", "LeNet-5", "ResNet-18",
            "RNN", "SVHN", "VGG-7")

REPLAY_DAY = {
    "requests": 1_000_000,
    "mean_gap_us": 1200.0,
    "burst_rate_x": 4.0,
    "mean_burst_us": 20_000.0,
    "mean_calm_us": 200_000.0,
    "max_samples": 4,
    "deadline_slack_us": 20_000.0,
}


def replay_day_lines(seed, requests=None, spec=REPLAY_DAY):
    """Yield the trace lines of the seeded day (header first)."""
    rng = random.Random(seed)
    n = spec["requests"] if requests is None else requests
    rates = (1.0 / spec["mean_gap_us"],
             spec["burst_rate_x"] / spec["mean_gap_us"])
    dwell = (1.0 / spec["mean_calm_us"], 1.0 / spec["mean_burst_us"])
    slack = spec["deadline_slack_us"]
    max_samples = spec["max_samples"]
    expo, choice, randint = rng.expovariate, rng.choice, rng.randint

    yield "# arrival_us network samples [deadline_us]\n"
    t, state = 0.0, 0
    switch_at = expo(dwell[state])
    emitted = 0
    while emitted < n:
        gap = expo(rates[state])
        if t + gap >= switch_at:
            # Memoryless: restart the arrival clock at the switch.
            t = switch_at
            state ^= 1
            switch_at = t + expo(dwell[state])
            continue
        t += gap
        yield (f"{t!r} {choice(NETWORKS)} {randint(1, max_samples)} "
               f"{t + slack!r}\n")
        emitted += 1


def write_replay_day(path, seed, requests=None):
    """Write the seeded day to @p path; returns the request count."""
    with open(path, "w", encoding="ascii") as out:
        out.writelines(replay_day_lines(seed, requests))
    return REPLAY_DAY["requests"] if requests is None else requests
