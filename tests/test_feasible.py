"""The exact feasible set of a cap (``feasible.FeasibleSet``) and the exact
peak band (``feasible.PeakBand``) against brute force on small spaces, the
repair of configs over the cap, and the dataset sampler that draws from the
bands."""

import hashlib
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from itertools import accumulate, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare
from test_space import SEEDS, spaces

from memnas.errors import InfeasibleError
from memnas.feasible import (
    FeasibleSet,
    PeakBand,
    _first_reaching,
    max_peak_items,
    min_peak_items,
)
from memnas.planner import ChannelSchedule
from memnas.predictor import balanced_sample, bucket_edges_from_pilot, bucket_index
from memnas.space import (
    SubnetConfig,
    SupernetSpace,
    _sample_with,
    config_peak_items,
    enumerate_subnets,
    mutate,
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
    "two-stages": SupernetSpace(
        schedule=TWO_STAGES,
        num_stages=2,
        depth_options=(1, 2, 3),
        kernel_options=(3, 5),
        expand_options=(2, 3),
        resolution_options=(16, 40, 64),
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
    resolution; the multiplicity counts the inert genes."""
    pairs = len(space.kernel_options) * len(space.expand_options)
    out = []
    for config in enumerate_subnets(space):
        inert = pairs ** sum(space.max_depth - d for d in config.stage_depths)
        for r in space.resolution_options:
            peak = config_peak_items(
                replace(config, resolution=r), space, include_classifier=include_classifier
            )
            out.append((peak, inert))
    return out


def caps_around(peaks):
    """Caps just below, at and between the distinct peaks, from the smallest
    peak up: the caps ``search`` builds a set for."""
    distinct = sorted({p for p, _ in peaks})
    picked = distinct[:: max(1, len(distinct) // 25)] + [distinct[-1]]
    caps = {c for p in picked for c in (p - 1, p)} | {distinct[-1] + 1}
    return sorted(c for c in caps if c >= distinct[0])


# ``FeasibleSet`` counts peaks without the classifier.  ``search`` refuses a
# cap below ``min_peak_items(space, include_classifier)`` before it builds a
# set, so when the classifier counts it fits under every cap a set is built
# for, and the set is the same; the ``include_classifier`` cases check this
# against peaks counted with the classifier.


@pytest.mark.parametrize("name", sorted(SMALL_SPACES))
@pytest.mark.parametrize("include_classifier", [False, True])
def test_count_matches_brute_force(name, include_classifier):
    space = SMALL_SPACES[name]
    peaks = brute_force_peaks(space, include_classifier)
    for cap in caps_around(peaks):
        assert FeasibleSet(space, cap).count == sum(m for p, m in peaks if p <= cap), cap


@pytest.mark.parametrize("name", sorted(SMALL_SPACES))
@pytest.mark.parametrize("include_classifier", [False, True])
def test_count_is_zero_exactly_below_the_minimum_peak(name, include_classifier):
    space = SMALL_SPACES[name]
    peaks = brute_force_peaks(space, include_classifier)
    floor = min_peak_items(space, include_classifier)
    assert min(p for p, _ in peaks) == floor
    assert FeasibleSet(space, floor).count == sum(m for p, m in peaks if p == floor) > 0
    below = min_peak_items(space) - 1  # the set leaves the classifier out
    assert FeasibleSet(space, below).count == 0
    with pytest.raises(InfeasibleError):
        FeasibleSet(space, below).sample(random.Random(0))


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
        feasible = FeasibleSet(space, cap)
        for _ in range(20):
            config = feasible.sample(rng)
            assert validate(config, space) == []
            assert config_peak_items(config, space, include_classifier=include_classifier) <= cap


# a band gets 20 draws per member, up to this many; one that gets them all
# must see every member drawn, a larger one is judged by its chi-square alone
BAND_DRAWS = 30_000
# digests of each space's draws and of the generator state after them: a
# faster or simpler band must make the same draws in the same order
BAND_DRAW_DIGESTS = {
    "max-depth-1": "c620f098bdc71c86e388a0a20a0f3e98d38564409c5b6564d06d7214ded48139",
    "one-stage": "a45905e8c3ff282a5f2e01fa7243e0fff4df6d7e0de9a57bd25e2b4c769cf68e",
    "rational-expands": "278ddb0687631f1abe8519d43ab9136b4f4878e528e2c15f7264dfcff1af86ae",
    "two-stages": "c717e0a95e7763fd04122b842890e2584b87237e5486128e6909c62a336a6f35",
}


@pytest.mark.parametrize("name", sorted(SMALL_SPACES))
def test_band_against_brute_force(name):
    """Four bands per space: the whole peak range, its middle third, the top
    two peaks and one peak value.  The count is the number of whole genomes
    in the band; draws stay in it and, where the draws allow, reach every
    member, with a chi-square that does not reject uniformity.  The draws
    are pinned."""
    space = SMALL_SPACES[name]
    peaks = {c: config_peak_items(c, space) for c in whole_genomes(space)}
    distinct = sorted(set(peaks.values()))
    n = len(distinct)
    bands = [
        (distinct[0], distinct[-1]),
        (distinct[n // 3], distinct[2 * n // 3]),
        (distinct[-2], distinct[-1]),
        (distinct[n // 2], distinct[n // 2]),
    ]
    rng = random.Random(5)
    lines = []
    for lo, hi in bands:
        members = [c for c, p in peaks.items() if lo <= p <= hi]
        band = PeakBand(space, lo, hi)
        assert band.count == len(members), (lo, hi)
        draws = [_sample_with(space, rng, band) for _ in range(min(20 * len(members), BAND_DRAWS))]
        lines += [c.canonical_json() for c in draws]
        drawn = Counter(draws)
        assert all(lo <= peaks[c] <= hi for c in drawn), (lo, hi)
        if len(draws) == 20 * len(members):
            assert len(drawn) == len(members), (lo, hi)
        if len(members) > 1:
            assert chisquare([drawn[c] for c in members]).pvalue > 0.001, (lo, hi)
    lines.append(repr(rng.getstate()))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BAND_DRAW_DIGESTS[name]
    empty = PeakBand(space, distinct[1], distinct[1] - 1)
    assert empty.count == 0
    with pytest.raises(InfeasibleError):
        empty.sample(rng)


@given(space=spaces(), seed=SEEDS, share=st.floats(0, 1))
def test_band_from_the_floor_draws_as_the_feasible_set(space, seed, share):
    """A band from the smallest peak up to ``hi`` holds the members under
    ``hi``, and its lower set holds none, so it draws every stage as
    ``FeasibleSet.sample`` does: the same configs and generator state."""
    floor = min_peak_items(space)
    hi = floor + int(share * max(0, max_peak_items(space) - floor))
    band, feasible = PeakBand(space, floor, hi), FeasibleSet(space, hi)
    assert band.count == feasible.count
    by_band, by_set = random.Random(seed), random.Random(seed)
    for _ in range(5):
        assert band.sample(by_band) == feasible.sample(by_set)
    assert by_band.getstate() == by_set.getstate()


def reference_first_reaching(below, above):
    """``_first_reaching`` term by term, one product of slices per weight."""
    return list(
        accumulate(
            prod(below[:j]) * (above[j] - below[j]) * prod(above[j + 1 :])
            for j in range(len(above))
        )
    )


@given(
    terms=st.lists(
        st.integers(0, 40).flatmap(lambda a: st.tuples(st.integers(0, a), st.just(a))),
        max_size=8,
    )
)
def test_first_reaching_equals_the_product_form(terms):
    below, above = [b for b, _ in terms], [a for _, a in terms]
    assert _first_reaching(below, above) == reference_first_reaching(below, above)


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
    except InfeasibleError:
        assert reached != set(range(num_buckets))
        return
    assert reached == set(range(num_buckets))
    assert dataset.bucket_edges == edges
    quota = [n // num_buckets + (b < n % num_buckets) for b in range(num_buckets)]
    expected = [b for b, q in enumerate(quota) for _ in range(q)]
    assert [bucket_index(r.peak_items, edges) for r in dataset.rows] == expected
    for row in dataset.rows:
        assert row.peak_items == config_peak_items(row.config, space)


def assert_repaired(feasible, config, rng):
    """``feasible.repair(config, rng)`` fits and validates; a config that
    fits comes back equal with ``rng`` unmoved; otherwise every gene that was
    redrawn had to be: put back alone, it takes the repaired config over the
    cap.  Fit is judged by ``config_peak_items`` alone, not by the set's
    pair lists."""
    space, cap = feasible.space, feasible.cap

    def fits(c):
        return config_peak_items(c, space) <= cap

    state = rng.getstate()
    repaired = feasible.repair(config, rng)
    assert validate(repaired, space) == []
    assert fits(repaired)
    if fits(config):
        assert repaired == config
        assert rng.getstate() == state
        return
    if repaired.resolution != config.resolution:
        assert not fits(replace(repaired, resolution=config.resolution))
    for s, (depth, old_depth) in enumerate(zip(repaired.stage_depths, config.stage_depths)):
        if depth != old_depth:
            depths = repaired.stage_depths[:s] + (old_depth,) + repaired.stage_depths[s + 1 :]
            assert not fits(replace(repaired, stage_depths=depths))
        for j in range(space.max_depth):
            old = (config.kernels[s][j], config.expands[s][j])
            if (repaired.kernels[s][j], repaired.expands[s][j]) == old:
                continue
            assert j < depth, "an inert gene was redrawn"

            def put(genes, value):
                stage = genes[s][:j] + (value,) + genes[s][j + 1 :]
                return genes[:s] + (stage,) + genes[s + 1 :]

            kernels, expands = put(repaired.kernels, old[0]), put(repaired.expands, old[1])
            assert not fits(replace(repaired, kernels=kernels, expands=expands))


@pytest.mark.parametrize("name", sorted(SMALL_SPACES))
def test_repair_against_brute_force(name):
    """Every active-gene assignment at every resolution, at caps across the
    peaks of the space."""
    space = SMALL_SPACES[name]
    distinct = sorted({p for p, _ in brute_force_peaks(space)})
    caps = sorted({distinct[i * (len(distinct) - 1) // 4] for i in range(5)})
    configs = [
        replace(c, resolution=r)
        for c in enumerate_subnets(space)
        for r in space.resolution_options
    ]
    rng = random.Random(2)
    for cap in caps:
        feasible = FeasibleSet(space, cap)
        for config in configs:
            assert_repaired(feasible, config, rng)


@settings(max_examples=150)
@given(space=spaces(), seed=SEEDS, share=st.floats(0, 1))
def test_repair_keeps_every_gene_that_fits(space, seed, share):
    floor = min_peak_items(space)
    cap = floor + int(share * max(0, max_peak_items(space) - floor))
    feasible = FeasibleSet(space, cap)
    rng = random.Random(seed)
    for _ in range(5):
        assert_repaired(feasible, _sample_with(space, rng), rng)
        assert_repaired(feasible, feasible.sample(rng), rng)


class ReferenceFeasibleSet:
    """``FeasibleSet``'s pair lists and ``repair`` without shortcuts: every
    stage is rebuilt from its (kernel, expand) pairs, with list membership.
    The equivalence tests hold ``FeasibleSet`` to it."""

    def __init__(self, space, cap):
        self.space, self.cap = space, cap
        md = space.max_depth
        pairs = self._pairs = tuple(product(space.kernel_options, space.expand_options))
        self._strata, counts = [], []
        for r, (base, _, stages) in space.peak_table.items():
            if base > cap:
                continue
            count, plan = 1, []
            for first, inner in stages:
                F = [(k, e) for k, e in pairs if first[k][e] <= cap]
                I = [(k, e) for k, e in pairs if md > 1 and inner[k][e] <= cap]
                by_depth = [
                    len(F) * len(I) ** (d - 1) * len(pairs) ** (md - d)
                    for d in space.depth_options
                ]
                count *= sum(by_depth)
                plan.append((list(accumulate(by_depth)), F, I))
            if count:
                self._strata.append((r, plan))
                counts.append(count)
        self._by_resolution = {stratum[0]: stratum for stratum in self._strata}
        self._cumulative = list(accumulate(counts))
        self.count = sum(counts)

    def repair(self, config, rng):
        if not self.count:
            raise InfeasibleError(f"no configuration fits under {self.cap} items")
        kept = None if config is None else self._by_resolution.get(config.resolution)
        r, plan = kept or self._strata[bisect_right(self._cumulative, rng.randrange(self.count))]
        depth_options, md, pairs = self.space.depth_options, self.space.max_depth, self._pairs
        depths, kernels, expands = [], [], []
        for s, (cumulative, F, I) in enumerate(plan):
            if config is None:
                d, old = None, [None] * md
            else:
                d, old = config.stage_depths[s], list(zip(config.kernels[s], config.expands[s]))
            if d is None or (d > 1 and not I):
                d = depth_options[bisect_right(cumulative, rng.randrange(cumulative[-1]))]
            genes = (
                [old[0] if old[0] in F else rng.choice(F)]
                + [g if g in I else rng.choice(I) for g in old[1:d]]
                + [rng.choice(pairs) if g is None else g for g in old[d:]]
            )
            depths.append(d)
            kernels.append(tuple(k for k, _ in genes))
            expands.append(tuple(e for _, e in genes))
        return SubnetConfig(r, tuple(depths), tuple(kernels), tuple(expands))


@settings(max_examples=150)
@given(
    space=spaces(),
    seed=SEEDS,
    share=st.floats(0, 1),
    prob=st.floats(0.05, 0.6),
)
def test_repair_equals_the_reference(space, seed, share, prob):
    """Same config and same generator state afterwards as the reference, on
    uniform draws (mostly far over the cap) and on mutated members (mostly a
    few genes over it), and for whole draws: ``sample`` against the
    reference's ``repair`` of ``None``.  A member comes back as itself with
    the generator unused, and each stage that fits keeps the input's own
    slot tuple objects."""
    floor = min_peak_items(space)
    cap = floor + int(share * max(0, max_peak_items(space) - floor))
    feasible = FeasibleSet(space, cap)
    reference = ReferenceFeasibleSet(space, cap)
    assert feasible.count == reference.count
    rng = random.Random(seed)
    for _ in range(5):
        member = feasible.sample(rng)
        for config in (None, _sample_with(space, rng), member, mutate(member, space, prob, rng)):
            state = rng.getstate()
            repaired = feasible.sample(rng) if config is None else feasible.repair(config, rng)
            after = rng.getstate()
            rng.setstate(state)
            assert repaired == reference.repair(config, rng)
            assert rng.getstate() == after
            if config is None:
                continue
            if config_peak_items(config, space) <= cap:
                assert repaired is config and after == state
            stratum = reference._by_resolution.get(config.resolution)
            for s, (_, F, I) in enumerate(stratum[1] if stratum else []):
                d, ks, es = config.stage_depths[s], config.kernels[s], config.expands[s]
                if (ks[0], es[0]) in F and all(g in I for g in zip(ks[1:d], es[1:d])):
                    assert repaired.kernels[s] is ks and repaired.expands[s] is es
