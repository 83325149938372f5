"""Constrained evolutionary search."""

import hashlib
import importlib
import io
import json
import random
import re
import runpy
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_feasible import ReferenceFeasibleSet
from test_space import SEEDS, spaces, tiny_space

from memnas.errors import InfeasibleError, ResolutionError, ValidationError
from memnas.feasible import FeasibleSet, max_peak_items, min_peak_items
from memnas.memory import profile_network
from memnas.predictor import (
    PredictorModel,
    balanced_sample,
    feature_length,
    predict,
    synthetic_score,
)
from memnas.search import (
    GenerationStats,
    SearchConstraint,
    SearchParams,
    SearchResult,
    search,
    sweep,
    write_sweep_csv,
)
from memnas.space import (
    SubnetConfig,
    config_peak_items,
    crossover,
    default_space,
    maximal_config,
    mutate,
    require_valid,
    resolve,
    sample_uniform,
)

# the module; the package's ``search`` attribute is the function
searching = importlib.import_module("memnas.search")
BOUNDS = Path(__file__).resolve().parents[1] / "perfbench" / "bounds.py"
# run_path compiles the source without writing a bytecode cache next to it
oracle_bound = runpy.run_path(str(BOUNDS))["oracle_bound"]

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


# entry points that read every listed resolution through the peak table
UNRESOLVABLE_ENTRY_POINTS = {
    "peak_table": lambda space: space.peak_table,
    "min_peak_items": min_peak_items,
    "max_peak_items": max_peak_items,
    "FeasibleSet": lambda space: FeasibleSet(space, 400_000),
    "config_peak_items": lambda space: config_peak_items(maximal_config(space), space),
    "synthetic_score": lambda space: synthetic_score(maximal_config(space), space),
    "search": lambda space: search(
        space, SearchConstraint(400_000), noiseless(space), SearchParams(population=20)
    ),
    "balanced_sample": lambda space: balanced_sample(space, 20, 2, 0, noiseless(space)),
}


@pytest.mark.parametrize("entry", sorted(UNRESOLVABLE_ENTRY_POINTS))
def test_unresolvable_resolution_is_refused(entry):
    # 136 halves to 68, 34, 17, which the fourth stride stage cannot halve:
    # the space is refused when it is built, so no entry point is handed it,
    # and each one works on the same space without it
    message = "resolution_options[1]: resolution 136 does not divide through the stride stages"
    with pytest.raises(ResolutionError, match=re.escape(message)):
        replace(default_space(), resolution_options=(128, 136, 224))
    UNRESOLVABLE_ENTRY_POINTS[entry](replace(default_space(), resolution_options=(128, 224)))


def fits(config, space, constraint):
    require_valid(config, space)
    return config_peak_items(
        config, space, include_classifier=not constraint.exclude_classifier
    ) <= constraint.max_peak_items


class TestFeasible:
    def test_vacuous_bound_admits_everything(self, space):
        rng = random.Random(0)
        constraint = SearchConstraint(10 ** 9)
        for _ in range(50):
            assert fits(sample_uniform(space, rng.randrange(2 ** 63)), space, constraint)

    def test_one_item_admits_nothing(self, space):
        rng = random.Random(1)
        constraint = SearchConstraint(1)
        for _ in range(50):
            assert not fits(sample_uniform(space, rng.randrange(2 ** 63)), space, constraint)

    def test_frozen_config_between_levels(self, space):
        assert config_peak_items(MID_CONFIG, space) == 308064
        assert fits(MID_CONFIG, space, SearchConstraint(325_000))
        assert not fits(MID_CONFIG, space, SearchConstraint(300_000))

    def test_classifier_flag_changes_the_verdict(self, space):
        # head width 344 -> classifier needs 344*1000 + 1344 items
        peak_no_cls = config_peak_items(MID_CONFIG, space)
        peak_cls = config_peak_items(MID_CONFIG, space, include_classifier=True)
        assert peak_cls > peak_no_cls
        between = (peak_no_cls + peak_cls) // 2
        assert fits(MID_CONFIG, space, SearchConstraint(between))
        assert not fits(
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

    @pytest.mark.parametrize("seed", range(6))
    def test_unresolvable_resolution_is_never_drawn(self, seed):
        # 136 does not divide through the stride stages: a space listing it
        # is refused when it is built, so no search draws it, and the same
        # space without it searches only the resolutions that remain
        params = SearchParams(population=20, generations=5, seed=seed)
        constraint = SearchConstraint(400_000)
        with pytest.raises(ResolutionError, match="resolution 136 does not divide"):
            replace(default_space(), resolution_options=(128, 136, 224))
        space = replace(default_space(), resolution_options=(128, 224))
        result = search(space, constraint, noiseless(space), params)
        assert result.best_config.resolution in (128, 224)
        assert result.best_peak_items <= 400_000

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
            (
                # JSON true would pass as depth 1 and share that config's score
                lambda d: d["best_config"]["stages"][1].update(depth=True),
                "best_config.stages[1].depth: expected a number, got True",
            ),
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

    def test_one_generator_drives_a_search(self, space, monkeypatch):
        # mutation and crossover draw from the search's own generator instead
        # of seeding one per child
        seeded = []
        original = random.Random.seed

        def seed(rng, *args, **kwargs):
            seeded.append(args)
            return original(rng, *args, **kwargs)

        monkeypatch.setattr(random.Random, "seed", seed)
        search(space, SearchConstraint(350_000), noiseless(space), SearchParams(seed=0))
        assert seeded == [(0,)]

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 63 - 1),
        cap=st.sampled_from([253_184, 300_000, 350_000, 800_000]),
        population=st.integers(2, 12),
        generations=st.integers(1, 4),
        parent_fraction=st.floats(0.05, 0.95),
        noise_seed=st.none() | st.integers(0, 3),
    )
    def test_best_is_the_highest_score_ever_returned(
        self, space, seed, cap, population, generations, parent_fraction, noise_seed
    ):
        # the parents are kept, so the last population holds the best ever
        scored = []

        def recording(cfg):
            scored.append((cfg, synthetic_score(cfg, space, noise_seed=noise_seed)))
            return scored[-1][1]

        params = SearchParams(
            population=population, generations=generations,
            parent_fraction=parent_fraction, seed=seed,
        )
        result = search(space, SearchConstraint(cap), recording, params)
        assert result.best_score == max(score for _, score in scored)
        assert (result.best_config, result.best_score) in scored

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            SearchParams(population=1)
        with pytest.raises(ValidationError):
            SearchParams(parent_fraction=0.0)
        with pytest.raises(ValidationError):
            SearchParams(mutation_fraction=1.5)


class TestRepair:
    """Children over the cap are repaired, so every child costs one
    evaluation and children that move to resolution 224 are kept."""

    @pytest.mark.parametrize(
        "cap, max_regret",
        # at 400k the max-FLOPs network itself scores 0.00348 below the bound
        [(325_000, 0.003), (350_000, 0.003), (400_000, 0.0035)],
    )
    def test_reaches_the_certified_bracket_at_resolution_224(self, space, cap, max_regret):
        # the optimum lies between the score of the max-FLOPs network under
        # the cap and the bound ALPHA * ln(max FLOPs) + BETA
        bound, max_flops = oracle_bound(space, cap)
        result = search(space, SearchConstraint(cap), noiseless(space), SearchParams(seed=0))
        assert result.best_config.resolution == 224
        assert result.best_score >= synthetic_score(max_flops, space)
        assert bound - result.best_score <= max_regret

    @pytest.mark.parametrize("cap", [350_000, 800_000])
    @pytest.mark.parametrize(
        "params",
        [
            SearchParams(seed=0),
            SearchParams(population=30, generations=7, parent_fraction=0.3, seed=2),
        ],
        ids=["default", "small"],
    )
    def test_every_child_is_one_evaluation(self, space, cap, params):
        n_parents = max(1, round(params.parent_fraction * params.population))
        result = search(space, SearchConstraint(cap), noiseless(space), params)
        assert result.evaluations == params.population + params.generations * (
            params.population - n_parents
        )


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
        assert result.best_score == 20.91640531518137
        assert result.evaluations == 3850
        assert result_digest(result) == (
            "ff0946924b511328b627455d70c87790bef20e8efc70f455ac68066910d71204"
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
            "5a7a11165aa9594f4e9b8c69b5a2479cd98e979a93c9c004f4da79c49b830267"
        )

    def test_default_model_search_at_800k_is_pinned(self, space):
        # weights drawn, not trained: the bits ``lstsq`` gives depend on the
        # BLAS, while ``predict``'s fixed-order sum gives the same on every
        # machine
        rng = random.Random(0)
        weights = tuple(rng.uniform(-1, 1) for _ in range(feature_length(space)))
        model = PredictorModel(weights, rng.uniform(-1, 1), 1.0, 0, 1)
        scorer = lambda cfg: predict(model, cfg, space)
        result = search(space, SearchConstraint(800_000), scorer, SearchParams(seed=0))
        assert result.best_score == 22.76481547597961
        assert result_digest(result) == (
            "c86f70a7449098dedf8bc406fe3466415c67388e6a13b3e50968bc949c1527ea"
        )

    def test_reuse_keys_on_the_whole_config_inert_genes_included(self, monkeypatch):
        # eight genomes, four of them depth 1 with an inert second kernel:
        # 32 initial draws repeat configs, each scored once, and configs
        # that differ only in an inert gene resolve alike but are scored
        # separately; the draws are scored before any child
        space = tiny_space(depths=(1, 2), kernels=(3, 5), stages=1)
        draws, calls = [], []
        fresh = searching._fresh_feasible
        monkeypatch.setattr(
            searching,
            "_fresh_feasible",
            lambda *args: draws.append(fresh(*args)) or draws[-1],
        )
        search(
            space,
            SearchConstraint(max_peak_items(space)),
            lambda c: calls.append(c) or len(calls),
            SearchParams(population=32, generations=1, seed=0),
        )
        assert len(draws) == 32
        distinct = list(dict.fromkeys(draws))
        assert calls[: len(distinct)] == distinct
        inert_twins = [
            (a, b) for a in distinct for b in distinct
            if a != b and resolve(a, space) == resolve(b, space)
        ]
        assert inert_twins


class TestKnownWork:
    """Work whose answer is known is skipped: equal configs of a generation
    are one object, so equal parents cross as one, and no child's fit is
    checked at a cap that every configuration meets."""

    @staticmethod
    def parent_calls(monkeypatch) -> list:
        """The parents of each ``mutate`` and ``crossover`` call that
        ``search`` makes, in call order."""
        calls = []
        mutate_, crossover_ = searching.mutate, searching.crossover

        def mutating(config, *args):
            calls.append((config,))
            return mutate_(config, *args)

        def crossing(a, b, rng):
            calls.append((a, b))
            return crossover_(a, b, rng)

        monkeypatch.setattr(searching, "mutate", mutating)
        monkeypatch.setattr(searching, "crossover", crossing)
        return calls

    @pytest.mark.parametrize("case", ["default-350k", "tiny"])
    def test_each_generation_holds_one_object_per_config(self, space, monkeypatch, case):
        if case == "tiny":
            # 8 configurations, so initial draws and children repeat
            space = tiny_space(kernels=(3, 5), resolutions=(64, 128))
            cap = max_peak_items(space)
            params = SearchParams(population=12, generations=6, parent_fraction=0.5)
        else:
            cap, params = 350_000, SearchParams(seed=0)
        calls = self.parent_calls(monkeypatch)
        search(space, SearchConstraint(cap), noiseless(space), params)
        n_children = params.population - max(1, round(params.parent_fraction * params.population))
        for g in range(params.generations):
            parents = [p for call in calls[g * n_children:(g + 1) * n_children] for p in call]
            assert len(set(map(id, parents))) == len(set(parents))
        pairs = [call for call in calls if len(call) == 2]
        assert all((a is b) == (a == b) for a, b in pairs)
        # in these searches over a third of the crossovers cross a parent with itself
        assert sum(a is b for a, b in pairs) > len(pairs) / 3

    @pytest.mark.parametrize("cap, walks_children", [
        (800_000, False), (606_816, False), (606_815, True),
    ])
    def test_child_peaks_are_walked_only_below_the_largest_peak(
        self, space, monkeypatch, cap, walks_children
    ):
        # a child's fit is checked by one gate, ``FeasibleSet.repair``, and
        # only at a cap that some configuration breaks
        assert max_peak_items(space) == 606_816
        walked, checked = [], []
        peak, repair = searching.config_peak_items, FeasibleSet.repair

        def counting(config, *args, **kwargs):
            walked.append(config)
            return peak(config, *args, **kwargs)

        def gate(self, config, rng):
            if config is not None:
                checked.append(config)
            return repair(self, config, rng)

        monkeypatch.setattr(searching, "config_peak_items", counting)
        monkeypatch.setattr(FeasibleSet, "repair", gate)
        params = SearchParams(seed=0)
        search(space, SearchConstraint(cap), noiseless(space), params)
        # one walk per initial draw and one for the answer's peak, at every cap
        assert len(walked) == params.population + 1
        # one gate per new child when a child may break the cap
        assert bool(checked) == walks_children


def reference_search(space, constraint, scorer, params):
    """The search loop without shortcuts, for the equivalence test: every
    child's peak is checked, one over the cap is repaired by
    ``ReferenceFeasibleSet``, and all children are scored after the last is
    proposed."""
    cap = constraint.max_peak_items
    include_classifier = not constraint.exclude_classifier
    evaluations = 0

    def ok(config):
        nonlocal evaluations
        evaluations += 1
        return config_peak_items(config, space, include_classifier=include_classifier) <= cap

    def score_all(configs, known):
        for c in configs:
            if c not in known:
                known[c] = scorer(c)
        return [known[c] for c in configs]

    feasible_set = ReferenceFeasibleSet(space, cap)
    rng = random.Random(params.seed)
    population = []
    for _ in range(params.population):
        config = feasible_set.repair(None, rng)
        assert ok(config)
        population.append(config)
    scores = score_all(population, {})
    n_parents = max(1, round(params.parent_fraction * params.population))
    n_children = params.population - n_parents
    n_mutation = round(params.mutation_fraction * n_children)
    history = []
    for gen in range(params.generations):
        order = sorted(range(len(population)), key=lambda i: (-scores[i], i))
        history.append(GenerationStats(gen, scores[order[0]], sum(scores) / len(scores)))
        parents = [population[i] for i in order[:n_parents]]
        parent_scores = [scores[i] for i in order[:n_parents]]
        children = []
        for i in range(n_children):
            if i < n_mutation:
                child = mutate(parents[rng.randrange(n_parents)], space, params.mutation_prob, rng)
            else:
                a = parents[rng.randrange(n_parents)]
                b = parents[rng.randrange(n_parents)]
                child = crossover(a, b, rng)
            if not ok(child):
                child = feasible_set.repair(child, rng)
            children.append(child)
        population = parents + children
        scores = parent_scores + score_all(children, dict(zip(parents, parent_scores)))
    best_config, best_score = max(zip(population, scores), key=lambda cs: cs[1])
    return SearchResult(
        best_config=best_config,
        best_score=best_score,
        best_peak_items=config_peak_items(
            best_config, space, include_classifier=include_classifier
        ),
        history=tuple(history),
        evaluations=evaluations,
    )


@settings(max_examples=60)
@given(
    space=spaces(),
    seed=SEEDS,
    # shares above 1 give caps above every configuration's peak
    share=st.floats(0, 1.5),
    exclude_classifier=st.booleans(),
    population=st.integers(2, 10),
    generations=st.integers(1, 4),
    mutation_prob=st.floats(0.05, 0.9),
    noise_seed=st.none() | st.integers(0, 3),
)
def test_search_equals_the_reference_loop(
    space, seed, share, exclude_classifier, population, generations, mutation_prob, noise_seed
):
    floor = min_peak_items(space, not exclude_classifier)
    cap = floor + int(share * max(0, max_peak_items(space) - floor))
    constraint = SearchConstraint(cap, exclude_classifier=exclude_classifier)
    params = SearchParams(
        population=population, generations=generations, mutation_prob=mutation_prob, seed=seed
    )
    scorer = lambda c: synthetic_score(c, space, noise_seed=noise_seed)
    assert (
        search(space, constraint, scorer, params).to_json_dict()
        == reference_search(space, constraint, scorer, params).to_json_dict()
    )


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
