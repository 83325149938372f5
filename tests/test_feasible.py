"""The exact feasible set of a cap (``space.FeasibleSet``) against brute
force on small spaces, and the dataset sampler that draws from it."""

import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest
from scipy.stats import chisquare

from memnas.errors import InfeasibleError, PartialDatasetError, ResolutionError
from memnas.planner import ChannelSchedule
from memnas.predictor import balanced_sample, bucket_edges_from_pilot, bucket_index
from memnas.space import (
    FeasibleSet,
    SubnetConfig,
    SupernetSpace,
    _sample_with,
    config_peak_items,
    enumerate_subnets,
    max_peak_items,
    min_peak_items,
    validate,
)

TWO_STAGES = ChannelSchedule(stem_width=8, stage_widths=(16, 48), head_width=64, divisor=8)
SMALL_SPACES = {
    "one-stage": SupernetSpace(
        schedule=ChannelSchedule(stem_width=8, stage_widths=(24,), head_width=64, divisor=8),
        num_stages=1,
        depth_options=(1, 3),
        resolution_options=(32, 64),
    ),
    # 10 halves to 5, which the second stride stage cannot halve
    "two-stages": SupernetSpace(
        schedule=TWO_STAGES,
        num_stages=2,
        depth_options=(1, 2, 3),
        kernel_options=(3, 5),
        expand_options=(2, 3),
        resolution_options=(10, 16, 40, 64),
    ),
    "max-depth-1": SupernetSpace(
        schedule=TWO_STAGES, num_stages=2, depth_options=(1,), resolution_options=(16, 64)
    ),
    "rational-expands": SupernetSpace(
        schedule=TWO_STAGES,
        num_stages=2,
        depth_options=(1, 2),
        kernel_options=(3, 5),
        expand_options=(1.5, 2.5),
        resolution_options=(16, 64),
    ),
}


def brute_force_peaks(space, include_classifier=False):
    """``(peak, multiplicity)`` of every active-gene assignment at every
    resolution that resolves; the multiplicity counts the inert genes."""
    pairs = len(space.kernel_options) * len(space.expand_options)
    out = []
    for config in enumerate_subnets(space):
        inert = pairs ** sum(space.max_depth - d for d in config.stage_depths)
        for r in space.resolution_options:
            try:
                peak = config_peak_items(
                    replace(config, resolution=r), space, include_classifier=include_classifier
                )
            except ResolutionError:
                continue
            out.append((peak, inert))
    return out


def caps_around(peaks):
    """Caps just below, at and between the distinct peaks."""
    distinct = sorted({p for p, _ in peaks})
    picked = distinct[:: max(1, len(distinct) // 25)] + [distinct[-1]]
    return sorted({c for p in picked for c in (p - 1, p)} | {distinct[-1] + 1})


@pytest.mark.parametrize("name", sorted(SMALL_SPACES))
@pytest.mark.parametrize("include_classifier", [False, True])
def test_count_matches_brute_force(name, include_classifier):
    space = SMALL_SPACES[name]
    peaks = brute_force_peaks(space, include_classifier)
    for cap in caps_around(peaks):
        expected = sum(m for p, m in peaks if p <= cap)
        assert FeasibleSet(space, cap, include_classifier).count == expected, cap


@pytest.mark.parametrize("name", sorted(SMALL_SPACES))
@pytest.mark.parametrize("include_classifier", [False, True])
def test_count_is_zero_exactly_below_the_minimum_peak(name, include_classifier):
    space = SMALL_SPACES[name]
    floor = min_peak_items(space, include_classifier)
    assert FeasibleSet(space, floor - 1, include_classifier).count == 0
    assert FeasibleSet(space, floor, include_classifier).count > 0
    with pytest.raises(InfeasibleError):
        FeasibleSet(space, floor - 1, include_classifier).sample(random.Random(0))


@pytest.mark.parametrize("name", sorted(SMALL_SPACES))
def test_max_peak_matches_brute_force(name):
    space = SMALL_SPACES[name]
    assert max_peak_items(space) == max(p for p, _ in brute_force_peaks(space))


def whole_genomes(space):
    """Every configuration, inert genes included, at every resolution."""
    md = space.max_depth
    stage = [
        (d, genes)
        for d in space.depth_options
        for genes in product(product(space.kernel_options, space.expand_options), repeat=md)
    ]
    for r in space.resolution_options:
        for stages in product(stage, repeat=space.num_stages):
            yield SubnetConfig(
                r,
                tuple(d for d, _ in stages),
                tuple(tuple(k for k, _ in genes) for _, genes in stages),
                tuple(tuple(e for _, e in genes) for _, genes in stages),
            )


CHI_SQUARE_SPACE = SupernetSpace(
    schedule=TWO_STAGES,
    num_stages=2,
    depth_options=(1, 2),
    kernel_options=(3, 5),
    expand_options=(2,),
    resolution_options=(16, 64),
)
# the five distinct peaks of that space; under 50,016 only one of the two
# inner pairs of the second stage fits at resolution 64
CHI_SQUARE_CAPS = (4864, 6912, 31744, 50016, 51552)


@pytest.mark.parametrize("cap", CHI_SQUARE_CAPS)
def test_sample_is_uniform_over_the_members(cap):
    space = CHI_SQUARE_SPACE
    peaks = {c: config_peak_items(c, space) for c in whole_genomes(space)}
    assert sorted(set(peaks.values())) == list(CHI_SQUARE_CAPS)
    members = [c for c, p in peaks.items() if p <= cap]
    feasible = FeasibleSet(space, cap)
    assert feasible.count == len(members)
    rng = random.Random(0)
    drawn = Counter(_sample_with(space, rng, feasible) for _ in range(200 * len(members)))
    assert set(drawn) <= set(members)
    assert chisquare([drawn[c] for c in members]).pvalue > 0.001


@pytest.mark.parametrize("name", sorted(SMALL_SPACES))
@pytest.mark.parametrize("include_classifier", [False, True])
def test_draws_fit_and_validate(name, include_classifier):
    space = SMALL_SPACES[name]
    peaks = brute_force_peaks(space, include_classifier)
    rng = random.Random(1)
    for cap in caps_around(peaks):
        feasible = FeasibleSet(space, cap, include_classifier)
        for _ in range(20 if feasible.count else 0):
            config = feasible.sample(rng)
            assert validate(config, space) == []
            assert config_peak_items(config, space, include_classifier=include_classifier) <= cap


@pytest.mark.parametrize("name", ["one-stage", "two-stages", "rational-expands"])
@pytest.mark.parametrize("num_buckets", [1, 3, 10])
def test_balanced_sample_rows_land_in_their_buckets(name, num_buckets):
    space = SMALL_SPACES[name]
    peaks = {p for p, _ in brute_force_peaks(space)}
    edges = bucket_edges_from_pilot([min(peaks), max(peaks)], num_buckets)
    reached = {bucket_index(p, edges) for p in peaks}
    n = 5 * num_buckets + 2
    try:
        dataset = balanced_sample(space, n, num_buckets, rng_seed=4, scorer=lambda c: 0.0)
    except PartialDatasetError:
        assert reached != set(range(num_buckets))
        return
    assert reached == set(range(num_buckets))
    assert dataset.bucket_edges == edges
    quota = [n // num_buckets + (b < n % num_buckets) for b in range(num_buckets)]
    expected = [b for b, q in enumerate(quota) for _ in range(q)]
    assert [bucket_index(r.peak_items, edges) for r in dataset.rows] == expected
    for row in dataset.rows:
        assert row.peak_items == config_peak_items(row.config, space)
