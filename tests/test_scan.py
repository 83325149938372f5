"""Scanning draws in numpy blocks: ``_peek_peaks`` and ``_skip_draws``, and
the search and dataset sampler that use them, against the loops that draw
one configuration at a time."""

import importlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memnas.errors import InfeasibleError, PartialDatasetError, ResolutionError, ValidationError
from memnas.planner import ChannelSchedule
from memnas.predictor import (
    Dataset,
    DatasetRow,
    balanced_sample,
    bucket_edges_from_pilot,
    bucket_index,
)
from memnas.space import (
    SupernetSpace,
    _peek_peaks,
    _sample_with,
    _skip_draws,
    config_peak_items,
    default_space,
    min_peak_items,
)

# ``memnas`` binds the name ``search`` to the function, so the module is
# looked up by its import path
search_module = importlib.import_module("memnas.search")

DEFAULT = default_space()
SCAN_SPACES = {
    "default": DEFAULT,
    "rational-expands": replace(DEFAULT, expand_options=(1.5, 2.5)),
    "max-depth-1": replace(DEFAULT, depth_options=(1,)),
    "one-stage": SupernetSpace(
        schedule=ChannelSchedule(stem_width=8, stage_widths=(24,), head_width=64, divisor=8),
        num_stages=1,
        depth_options=(1, 3),
        resolution_options=(32, 64),
    ),
    # 10 halves to 5, which the second stride stage cannot halve
    "two-stages": SupernetSpace(
        schedule=ChannelSchedule(stem_width=8, stage_widths=(16, 48), head_width=64, divisor=8),
        num_stages=2,
        depth_options=(1, 2, 3),
        kernel_options=(3, 5),
        expand_options=(2, 3),
        resolution_options=(10, 16, 40, 64),
    ),
    # 136 halves to 17 after three stride stages
    "indivisible-resolution": replace(DEFAULT, resolution_options=(128, 136, 224)),
}
SEEDS = st.integers(0, 2 ** 63 - 1)


def scalar_peaks(space, rng, n, include_classifier=False):
    """The reference: draw one at a time; an unresolvable draw reads -1."""
    peaks = []
    for _ in range(n):
        config = _sample_with(space, rng)
        try:
            peaks.append(
                config_peak_items(config, space, include_classifier=include_classifier)
            )
        except ResolutionError:
            peaks.append(-1)
    return peaks


class TestPeekPeaks:
    @settings(max_examples=60)
    @given(
        name=st.sampled_from(sorted(SCAN_SPACES)),
        seed=SEEDS,
        n=st.integers(1, 300),
        include_classifier=st.booleans(),
    )
    def test_matches_drawing_one_at_a_time(self, name, seed, n, include_classifier):
        space = SCAN_SPACES[name]
        rng = random.Random(seed)
        before = rng.getstate()
        peaks = _peek_peaks(space, rng, n, include_classifier)
        assert rng.getstate() == before
        assert peaks.tolist() == scalar_peaks(space, random.Random(seed), n, include_classifier)

    @settings(max_examples=60)
    @given(name=st.sampled_from(sorted(SCAN_SPACES)), seed=SEEDS, n=st.integers(0, 300))
    def test_skip_leaves_the_state_of_drawing(self, name, seed, n):
        space = SCAN_SPACES[name]
        drawn, skipped = random.Random(seed), random.Random(seed)
        for _ in range(n):
            _sample_with(space, drawn)
        _skip_draws(space, skipped, n)
        assert skipped.getstate() == drawn.getstate()
        assert _sample_with(space, skipped) == _sample_with(space, drawn)


def scalar_fresh_feasible(space, ok, rng, constraint, floor):
    """``_fresh_feasible`` as it was before the scan: every draw goes to
    ``ok``, so none is skipped."""
    for _ in range(search_module.INIT_ATTEMPTS_PER_SLOT):
        config = _sample_with(space, rng)
        if ok(config):
            return config, 0
    raise InfeasibleError(
        f"no feasible configuration found in {search_module.INIT_ATTEMPTS_PER_SLOT} "
        f"uniform draws under {constraint.max_peak_items} items "
        f"(smallest achievable peak: {floor})",
        tightest_peak=floor,
    )


def search_outcome(space, constraint, params):
    scorer = lambda c: float(sum(map(sum, c.kernels)) + c.resolution)
    try:
        return search_module.search(space, constraint, scorer, params)
    except (InfeasibleError, ResolutionError) as exc:
        return type(exc), str(exc)


class TestSearchScan:
    """``search`` with the scan returns what it returned when every draw
    went to the peak lookup: the same result, evaluations included."""

    @settings(max_examples=40)
    @given(
        name=st.sampled_from(sorted(SCAN_SPACES)),
        seed=SEEDS,
        quantile=st.floats(0.0, 1.0),
        include_classifier=st.booleans(),
        population=st.integers(2, 12),
        generations=st.integers(1, 3),
    )
    def test_matches_the_scalar_sampler(
        self, name, seed, quantile, include_classifier, population, generations
    ):
        space = SCAN_SPACES[name]
        # caps from the spread of the space's peaks, from its exact minimum up
        peaks = sorted(p for p in scalar_peaks(space, random.Random(0), 400) if p >= 0)
        floor = min_peak_items(space, include_classifier)
        cap = max(floor, peaks[int(quantile * (len(peaks) - 1))])
        constraint = search_module.SearchConstraint(
            cap, exclude_classifier=not include_classifier
        )
        params = search_module.SearchParams(
            population=population, generations=generations, seed=seed
        )
        scanned = search_outcome(space, constraint, params)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(search_module, "_fresh_feasible", scalar_fresh_feasible)
            assert search_outcome(space, constraint, params) == scanned

    def test_exhausted_budget_raises_the_same_error(self, monkeypatch):
        # at the exact minimum peak no draw of the budget fits
        space = DEFAULT
        constraint = search_module.SearchConstraint(min_peak_items(space))
        params = search_module.SearchParams(population=2, generations=1)
        scanned = search_outcome(space, constraint, params)
        assert scanned[0] is InfeasibleError
        monkeypatch.setattr(search_module, "_fresh_feasible", scalar_fresh_feasible)
        assert search_outcome(space, constraint, params) == scanned

    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_draws_and_state_after_each_slot(self, seed):
        space, cap = DEFAULT, 350_000
        constraint = search_module.SearchConstraint(cap)

        def counting(calls):
            return lambda c: calls.append(c) or config_peak_items(c, space) <= cap

        scanned, scalar = random.Random(seed), random.Random(seed)
        for _ in range(3):
            scanned_calls, scalar_calls = [], []
            config, skipped = search_module._fresh_feasible(
                space, counting(scanned_calls), scanned, constraint, 0
            )
            expected, _ = scalar_fresh_feasible(
                space, counting(scalar_calls), scalar, constraint, 0
            )
            assert config == expected
            assert skipped + len(scanned_calls) == len(scalar_calls)
            assert scanned.getstate() == scalar.getstate()


def scalar_balanced_sample(space, n, num_buckets, rng_seed, scorer, pilot, retry_factor):
    """``balanced_sample`` as it was before the scan, one draw at a time."""
    if num_buckets < 1 or n < num_buckets:
        raise ValidationError("need n >= num_buckets >= 1")
    rng = random.Random(rng_seed)
    pilot_draws = [
        (cfg := _sample_with(space, rng), config_peak_items(cfg, space))
        for _ in range(max(pilot, 1))
    ]
    edges = bucket_edges_from_pilot([p for _, p in pilot_draws], num_buckets)
    quota = [n // num_buckets] * num_buckets
    for i in range(n % num_buckets):
        quota[i] += 1
    counts = [0] * num_buckets
    rows = []

    def offer(cfg, peak):
        b = bucket_index(peak, edges)
        if counts[b] < quota[b]:
            counts[b] += 1
            rows.append(DatasetRow(config=cfg, peak_items=peak, score=scorer(cfg)))

    for cfg, peak in pilot_draws:
        offer(cfg, peak)
    budget = retry_factor * n
    drawn = 0
    while len(rows) < n and drawn < budget:
        cfg = _sample_with(space, rng)
        offer(cfg, config_peak_items(cfg, space))
        drawn += 1
    if len(rows) < n:
        raise PartialDatasetError(
            f"filled {len(rows)}/{n} rows within {budget} draws; "
            f"bucket occupancy {counts} of {quota}",
            occupancy={b: c for b, c in enumerate(counts)},
        )
    return Dataset(rows=tuple(rows), bucket_edges=edges)


def sample_outcome(sampler, space, **kwargs):
    calls = []
    scorer = lambda c: calls.append(c) or float(len(calls))
    try:
        outcome = sampler(space, scorer=scorer, **kwargs)
    except PartialDatasetError as exc:
        outcome = str(exc), exc.occupancy
    except ResolutionError as exc:
        outcome = str(exc)
    return outcome, calls


class TestBalancedSampleScan:
    @settings(max_examples=60)
    @given(
        name=st.sampled_from(sorted(SCAN_SPACES)),
        seed=st.integers(0, 10_000),
        num_buckets=st.sampled_from([1, 2, 10]),
        n=st.integers(10, 120),
        pilot=st.integers(1, 200),
        retry_factor=st.integers(1, 40),
    )
    def test_matches_the_scalar_sampler(
        self, name, seed, num_buckets, n, pilot, retry_factor
    ):
        kwargs = dict(
            n=n, num_buckets=num_buckets, rng_seed=seed, pilot=pilot, retry_factor=retry_factor
        )
        space = SCAN_SPACES[name]
        assert sample_outcome(balanced_sample, space, **kwargs) == sample_outcome(
            scalar_balanced_sample, space, **kwargs
        )

    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("num_buckets", [1, 2, 10])
    def test_default_sample_size_matches(self, seed, num_buckets):
        # the size ``memnas sample`` draws by default; at 10 buckets seeds 2
        # and 3 run out of budget
        kwargs = dict(n=1000, num_buckets=num_buckets, rng_seed=seed, pilot=1000, retry_factor=100)
        assert sample_outcome(balanced_sample, DEFAULT, **kwargs) == sample_outcome(
            scalar_balanced_sample, DEFAULT, **kwargs
        )
