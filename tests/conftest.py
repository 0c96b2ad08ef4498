"""Shared fixtures.

Full-scale runs on the default task take about 1.6 s each on one core (the
`train_default` median in BENCH_1.json), and the trend checks plus a few
unit tests want the same runs from different angles, so they are memoized
for the whole session. Small-config helpers live here too.
"""

from dataclasses import replace

import pytest

from tailadapt.training import DatasetSpec, RunConfig, run

TREND_SEEDS = (0, 1, 2, 3, 4)


def small_config(**overrides) -> RunConfig:
    """A few-second config that still exercises both phases end to end."""
    base = RunConfig(
        dataset=DatasetSpec(num_classes=8, n_max=40, rho=20.0, feature_dim=10,
                            test_per_class=10),
        epochs_a=6,
        epochs_b=3,
        batch_size=32,
    )
    return replace(base, **overrides)


@pytest.fixture(scope="session")
def cached_run():
    """Memoized run(RunConfig with overrides); key is the override set."""
    cache: dict[tuple, object] = {}

    def get(**overrides):
        key = tuple(sorted(overrides.items()))
        if key not in cache:
            cache[key] = run(replace(RunConfig(), **overrides))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def small_two_phase():
    return run(small_config(seed=3))


@pytest.fixture(scope="session")
def small_phase_a_only():
    return run(small_config(seed=3, mode="phase_a_only"))
