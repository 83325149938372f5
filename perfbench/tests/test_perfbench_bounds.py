"""The certified bounds of ``bounds.py`` against brute force on tiny spaces.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bounds  # noqa: E402
from memnas.predictor import BETA, PredictorModel, feature_length, predict, synthetic_score
from memnas.space import SupernetSpace, config_peak_items, default_space, enumerate_subnets

TINY_SPACES = {
    "depth-1-2": dict(depth_options=(1, 2), kernel_options=(3,), expand_options=(2, 4),
                      resolution_options=(128, 160)),
    "kernel-expand": dict(depth_options=(1,), kernel_options=(3, 5, 7), expand_options=(2, 3),
                          resolution_options=(224,)),
}


def brute_force(space):
    """Every configuration of the space, at every resolution."""
    for config in enumerate_subnets(space):
        for r in space.resolution_options:
            yield replace(config, resolution=r)


@pytest.fixture(scope="module", params=sorted(TINY_SPACES))
def tiny(request):
    space = SupernetSpace(schedule=default_space().schedule, **TINY_SPACES[request.param])
    configs = list(brute_force(space))
    peaks = [config_peak_items(c, space) for c in configs]
    ordered = sorted(peaks)
    # below, at and between the quartiles, and above everything
    caps = [ordered[0], ordered[len(ordered) // 4], ordered[len(ordered) // 2], ordered[-1] + 1]
    return space, configs, peaks, caps


def test_oracle_bound_brackets_the_brute_force_optimum(tiny):
    space, configs, peaks, caps = tiny
    scores = [synthetic_score(c, space) for c in configs]
    for cap in caps:
        best = max(s for s, p in zip(scores, peaks) if p <= cap)
        bound, max_flops = bounds.oracle_bound(space, cap)
        assert config_peak_items(max_flops, space) <= cap
        assert best <= bound <= best + BETA


def test_ridge_optimum_equals_brute_force_maximum(tiny):
    space, configs, peaks, caps = tiny
    rng = random.Random(7)
    model = PredictorModel(
        weights=tuple(rng.gauss(0, 1) for _ in range(feature_length(space))),
        intercept=0.5, l2=1.0, seed=7, rows=0,
    )
    predictions = [predict(model, c, space) for c in configs]
    for cap in caps:
        best = max(v for v, p in zip(predictions, peaks) if p <= cap)
        optimum, argmax = bounds.ridge_optimum(model, space, cap)
        assert config_peak_items(argmax, space) <= cap
        assert optimum == pytest.approx(best, abs=1e-12)


def test_nothing_fits_below_the_smallest_peak(tiny):
    space, _, peaks, _ = tiny
    assert bounds.oracle_bound(space, min(peaks) - 1) is None


def test_minimal_has_the_smallest_peak_and_flops(tiny):
    space, configs, peaks, _ = tiny
    smallest = bounds.minimal(space)
    assert config_peak_items(smallest, space) == min(peaks)
    assert bounds.network_flops(smallest, space) == min(bounds.network_flops(c, space) for c in configs)
