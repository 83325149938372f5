"""Constrained evolutionary search."""

import hashlib
import io
import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memnas.errors import InfeasibleError, ValidationError
from memnas.memory import profile_network
from memnas.predictor import synthetic_score
from memnas.search import (
    SearchConstraint,
    SearchParams,
    SearchResult,
    _score_all,
    feasible,
    search,
    sweep,
    write_sweep_csv,
)
from memnas.space import (
    SubnetConfig,
    config_peak_items,
    default_space,
    maximal_config,
    min_peak_items,
    resolve,
    sample_uniform,
)

# a profiled configuration frozen for the constraint examples: its peak is
# 308064 items, between the 300k and 325k levels
MID_CONFIG = SubnetConfig.from_json_dict(
    {
        "resolution": 160,
        "stages": [
            {"depth": 4, "kernels": [5, 7, 3, 3], "expands": [4, 2, 4, 4]},
            {"depth": 2, "kernels": [5, 5, 3, 5], "expands": [4, 2, 3, 2]},
            {"depth": 2, "kernels": [7, 5, 5, 5], "expands": [2, 2, 2, 4]},
            {"depth": 2, "kernels": [3, 7, 5, 5], "expands": [2, 2, 2, 2]},
            {"depth": 3, "kernels": [7, 5, 3, 7], "expands": [2, 2, 2, 2]},
        ],
    }
)


@pytest.fixture(scope="module")
def space():
    return default_space()


def noiseless(space):
    return lambda cfg: synthetic_score(cfg, space)


class TestFeasible:
    def test_vacuous_bound_admits_everything(self, space):
        rng = random.Random(0)
        constraint = SearchConstraint(10 ** 9)
        for _ in range(50):
            assert feasible(sample_uniform(space, rng.randrange(2 ** 63)), space, constraint)

    def test_one_item_admits_nothing(self, space):
        rng = random.Random(1)
        constraint = SearchConstraint(1)
        for _ in range(50):
            assert not feasible(sample_uniform(space, rng.randrange(2 ** 63)), space, constraint)

    def test_frozen_config_between_levels(self, space):
        assert config_peak_items(MID_CONFIG, space) == 308064
        assert feasible(MID_CONFIG, space, SearchConstraint(325_000))
        assert not feasible(MID_CONFIG, space, SearchConstraint(300_000))

    def test_classifier_flag_changes_the_verdict(self, space):
        # head width 344 -> classifier needs 344*1000 + 1344 items
        peak_no_cls = config_peak_items(MID_CONFIG, space)
        peak_cls = config_peak_items(MID_CONFIG, space, include_classifier=True)
        assert peak_cls > peak_no_cls
        between = (peak_no_cls + peak_cls) // 2
        assert feasible(MID_CONFIG, space, SearchConstraint(between))
        assert not feasible(
            MID_CONFIG, space, SearchConstraint(between, exclude_classifier=False)
        )


class TestSearch:
    def test_deterministic(self, space):
        params = SearchParams(population=20, generations=8, seed=5)
        constraint = SearchConstraint(450_000)
        a = search(space, constraint, noiseless(space), params)
        b = search(space, constraint, noiseless(space), params)
        assert a == b

    def test_loose_constraint_recovers_maximal_network(self, space):
        params = SearchParams(generations=150, seed=3)
        result = search(space, SearchConstraint(10 ** 9), noiseless(space), params)
        mx = maximal_config(space)
        assert result.best_score == synthetic_score(mx, space)
        assert resolve(result.best_config, space) == resolve(mx, space)

    def test_result_respects_constraint_and_reprofiles(self, space):
        params = SearchParams(population=24, generations=10, seed=2)
        constraint = SearchConstraint(350_000)
        result = search(space, constraint, noiseless(space), params)
        assert result.best_peak_items <= 350_000
        skeleton = resolve(result.best_config, space)
        assert profile_network(skeleton).peak_items == result.best_peak_items

    def test_history_shape_and_elitism(self, space):
        params = SearchParams(population=20, generations=12, seed=7)
        result = search(space, SearchConstraint(500_000), noiseless(space), params)
        assert len(result.history) == 12
        best = [h.best_score for h in result.history]
        assert all(b >= a for a, b in zip(best, best[1:]))
        assert result.best_score >= best[-1]
        assert [h.generation for h in result.history] == list(range(12))

    def test_impossible_constraint_raises_with_tightest_peak(self, space):
        params = SearchParams(population=4, generations=2, seed=0)
        with pytest.raises(InfeasibleError) as exc:
            search(space, SearchConstraint(1000), noiseless(space), params)
        assert exc.value.tightest_peak is not None
        assert exc.value.tightest_peak > 1000

    def test_cap_below_the_minimum_peak_raises_before_scoring(self, space):
        floor = min_peak_items(space)
        calls = []
        with pytest.raises(InfeasibleError) as exc:
            search(space, SearchConstraint(floor - 1), calls.append, SearchParams())
        assert exc.value.tightest_peak == floor == 253_184
        assert f"smallest achievable peak is {floor}" in str(exc.value)
        assert calls == []

    def test_minimum_peak_counts_the_classifier_when_asked(self, space):
        floor = min_peak_items(space, include_classifier=True)
        constraint = SearchConstraint(floor - 1, exclude_classifier=False)
        with pytest.raises(InfeasibleError) as exc:
            search(space, constraint, noiseless(space), SearchParams())
        assert exc.value.tightest_peak == floor > min_peak_items(space)

    def test_feasible_but_sparse_cap_names_the_minimum_peak(self, space):
        # only about 0.01% of uniform draws fit under the exact minimum peak,
        # but the exact sampler draws only those
        floor = min_peak_items(space)
        params = SearchParams(population=2, generations=1)
        result = search(space, SearchConstraint(floor), noiseless(space), params)
        assert result.best_peak_items == floor
        assert profile_network(resolve(result.best_config, space)).peak_items == floor

    def test_json_roundtrip(self, space):
        params = SearchParams(population=12, generations=4, seed=9)
        result = search(space, SearchConstraint(600_000), noiseless(space), params)
        assert SearchResult.from_json_dict(result.to_json_dict()) == result

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda d: d.pop("evaluations"), "evaluations: missing"),
            (lambda d: d.update(best_config=[]), "best_config: expected a dict"),
            (lambda d: d["best_config"].pop("stages"), "best_config.stages: missing"),
            (lambda d: d["history"][2].pop("mean_score"), "history[2].mean_score: missing"),
            (lambda d: d.update(history={}), "history: expected a list"),
        ],
    )
    def test_malformed_result_names_the_field(self, space, mangle, message):
        params = SearchParams(population=12, generations=4, seed=9)
        d = search(space, SearchConstraint(600_000), noiseless(space), params).to_json_dict()
        mangle(d)
        with pytest.raises(ValidationError, match=re.escape(message)):
            SearchResult.from_json_dict(d)

    @settings(max_examples=20)
    @given(
        seed=st.integers(0, 2 ** 63 - 1),
        cap=st.sampled_from([330_000, 400_000, 800_000]),
        population=st.integers(2, 10),
        generations=st.integers(1, 3),
    )
    def test_same_seed_same_result(self, space, seed, cap, population, generations):
        params = SearchParams(population=population, generations=generations, seed=seed)
        runs = [
            search(space, SearchConstraint(cap), noiseless(space), params) for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            SearchParams(population=1)
        with pytest.raises(ValidationError):
            SearchParams(parent_fraction=0.0)
        with pytest.raises(ValidationError):
            SearchParams(mutation_fraction=1.5)


def result_digest(result: SearchResult) -> str:
    return hashlib.sha256(
        json.dumps(result.to_json_dict(), sort_keys=True).encode()
    ).hexdigest()


class TestScoreReuse:
    """Identical children reuse a score; with a pure scorer that changes no
    result, and the results are pinned."""

    def test_default_search_at_350k_is_pinned_and_scores_fewer_children(self, space):
        calls = []

        def counting(cfg):
            calls.append(cfg)
            return synthetic_score(cfg, space)

        result = search(space, SearchConstraint(350_000), counting, SearchParams(seed=0))
        assert result.best_score == 20.61610055126735
        assert result.evaluations == 5614
        assert result_digest(result) == (
            "e8945ee065f43ed0288d685020f562f0e3a8553662159c0b68f681a148ec610c"
        )
        # 100 initial individuals plus 75 children in each of 50 generations
        assert len(calls) < 100 + 50 * 75

    def test_noisy_oracle_search_reruns_identically(self, space):
        params = SearchParams(seed=1, generations=10)
        scorer = lambda cfg: synthetic_score(cfg, space, noise_seed=3)
        a = search(space, SearchConstraint(400_000), scorer, params)
        b = search(space, SearchConstraint(400_000), scorer, params)
        assert a == b
        assert result_digest(a) == (
            "9a08b3af35a96e258c267ff4bdd0e7595278c6b889f1484bf39ebd0b19a7aaa3"
        )

    def test_reuse_keys_on_the_whole_config_inert_genes_included(self, space):
        base = sample_uniform(space, 3)
        depth = base.stage_depths[0]
        assert depth < space.max_depth
        kernels = list(base.kernels[0])
        kernels[depth] = next(k for k in space.kernel_options if k != kernels[depth])
        inert_variant = replace(base, kernels=(tuple(kernels),) + base.kernels[1:])
        calls = []
        known = {base: 1.0}
        scores = _score_all(
            [base, inert_variant, inert_variant],
            lambda c: calls.append(c) or 2.0,
            known,
        )
        assert scores == [1.0, 2.0, 2.0]
        assert calls == [inert_variant]
        assert known == {base: 1.0, inert_variant: 2.0}


class TestSweep:
    def test_constraints_must_ascend(self, space):
        with pytest.raises(ValidationError):
            sweep(space, [400_000, 350_000], noiseless(space), SearchParams())

    def test_score_nondecreasing_with_budget_and_csv(self, space):
        # needs the full default budget: tiny searches can rank levels out
        # of order even though the optima are ordered
        params = SearchParams(seed=4)
        levels = [350_000, 400_000, 800_000]
        points = sweep(space, levels, noiseless(space), params)
        scores = [p.result.best_score for p in points]
        assert all(b >= a for a, b in zip(scores, scores[1:]))
        for p in points:
            assert p.result.best_peak_items <= p.constraint_items
        buf = io.StringIO()
        write_sweep_csv(points, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "constraint_items,best_score,best_peak_items,evaluations"
        assert len(lines) == 4
        assert lines[1].startswith("350000,")

    def test_infeasible_level_recorded_and_sweep_continues(self, space):
        params = SearchParams(population=8, generations=3, seed=1)
        points = sweep(space, [1000, 500_000], noiseless(space), params)
        assert points[0].result is None and points[0].error
        assert points[1].result is not None
        buf = io.StringIO()
        write_sweep_csv(points, buf)
        assert buf.getvalue().splitlines()[1] == "1000,,,"
