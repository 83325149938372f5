"""Configuration space: validation, counting, sampling, genome operators,
and resolution into skeletons."""

import hashlib
import json
import math
import pickle
import random
import re
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memnas import predictor
from memnas.errors import FieldError, ResolutionError, ValidationError
from memnas.memory import block_flops, flops_estimate, profile_network
from memnas.planner import MAX_EXTENT, ChannelSchedule, ReferenceConfig, plan_schedule
from memnas.predictor import ALPHA, BETA, synthetic_score
from memnas.space import (
    FeasibleSet,
    SubnetConfig,
    SupernetSpace,
    _below,
    _is_valid,
    _sample_with,
    _violations,
    config_peak_items,
    count_subnets,
    crossover,
    default_space,
    enumerate_subnets,
    max_peak_items,
    maximal_config,
    min_peak_items,
    mutate,
    resolve,
    sample_uniform,
    validate,
)


@pytest.fixture(scope="module")
def space():
    return default_space()


def tiny_space(depths=(1,), kernels=(3,), expands=(2,), stages=2, resolutions=(64,)):
    return SupernetSpace(
        schedule=ChannelSchedule(
            stem_width=8,
            stage_widths=(8,) * stages,
            head_width=8,
            divisor=8,
        ),
        num_stages=stages,
        depth_options=depths,
        kernel_options=kernels,
        expand_options=expands,
        resolution_options=resolutions,
    )


class TestValidate:
    def test_maximal_reference_config_is_valid(self, space):
        assert validate(maximal_config(space), space) == []

    def test_out_of_set_expand_is_cited(self, space):
        c = maximal_config(space)
        bad = SubnetConfig(
            resolution=c.resolution,
            stage_depths=c.stage_depths,
            kernels=c.kernels,
            expands=((6, 4, 4, 4),) + c.expands[1:],
        )
        violations = validate(bad, space)
        assert len(violations) == 1
        assert "expands[0]" in violations[0] and "6" in violations[0]

    def test_out_of_set_depth_is_cited(self, space):
        c = maximal_config(space)
        bad = SubnetConfig(
            resolution=c.resolution,
            stage_depths=(5,) + c.stage_depths[1:],
            kernels=c.kernels,
            expands=c.expands,
        )
        violations = validate(bad, space)
        assert any("depth" in v and "5" in v for v in violations)

    def test_violations_are_exhaustive(self, space):
        c = maximal_config(space)
        bad = SubnetConfig(
            resolution=100,
            stage_depths=(5,) + c.stage_depths[1:],
            kernels=((9, 7, 7, 7),) + c.kernels[1:],
            expands=c.expands,
        )
        violations = validate(bad, space)
        assert len(violations) == 3


class TestCountSubnets:
    def test_standard_space_exact_count(self, space):
        count = count_subnets(space)
        assert count == 7371 ** 5
        assert math.isclose(count, 2.176e19, rel_tol=0.01)
        # per stage: 81 + 729 + 6561 = 7371 active assignments
        assert sum((3 * 3) ** d for d in (2, 3, 4)) == 7371

    def test_single_everything(self):
        assert count_subnets(tiny_space()) == 1

    def test_two_stage_formula(self):
        sp = tiny_space(depths=(1,), kernels=(3, 5), expands=(2,), stages=2)
        assert count_subnets(sp) == 4

    def test_matches_enumeration_on_small_spaces(self):
        sp = tiny_space(depths=(1, 2), kernels=(3, 5), expands=(2, 3), stages=2)
        configs = list(enumerate_subnets(sp))
        per_stage = (2 * 2) ** 1 + (2 * 2) ** 2
        assert count_subnets(sp) == per_stage ** 2 == len(configs)
        assert len(configs) == len({c.canonical_json() for c in configs})

    def test_enumeration_agreement_medium(self):
        sp = tiny_space(depths=(2, 3), kernels=(3, 5), expands=(2,), stages=2)
        assert count_subnets(sp) == len(list(enumerate_subnets(sp)))


class TestSampleUniform:
    def test_deterministic_given_seed(self, space):
        assert sample_uniform(space, 77) == sample_uniform(space, 77)
        assert sample_uniform(space, 77) != sample_uniform(space, 78)

    def test_every_sample_validates(self, space):
        rng = random.Random(1)
        for _ in range(500):
            assert validate(sample_uniform(space, rng.randrange(2 ** 63)), space) == []

    def test_per_option_frequencies_within_3_sigma(self, space):
        n = 100_000
        rng = random.Random(2024)
        res_counts = {r: 0 for r in space.resolution_options}
        depth_counts = {d: 0 for d in space.depth_options}
        kernel_counts = {k: 0 for k in space.kernel_options}
        expand_counts = {e: 0 for e in space.expand_options}
        for _ in range(n):
            c = sample_uniform(space, rng.randrange(2 ** 63))
            res_counts[c.resolution] += 1
            depth_counts[c.stage_depths[0]] += 1
            kernel_counts[c.kernels[2][1]] += 1
            expand_counts[c.expands[4][3]] += 1
        for counts in (res_counts, depth_counts, kernel_counts, expand_counts):
            p = 1 / len(counts)
            sigma = math.sqrt(n * p * (1 - p))
            for option, count in counts.items():
                assert abs(count - n * p) <= 3 * sigma, (option, count)


    def test_draw_order_is_pinned(self, space):
        # digests of 500 draws and of the generator state after them: a
        # faster sampler must keep the draw order and the number of draws
        rng = random.Random(0)
        configs = "\n".join(_sample_with(space, rng).canonical_json() for _ in range(500))
        assert hashlib.sha256(configs.encode()).hexdigest() == (
            "3ee93c87a74a69b74f56e262aea154cacb65ee1a93b4009790d97bd5178ecea5"
        )
        assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == (
            "94954d3d8d68271bac53a282fbfd520d92f25bfbbc0e2ba1df7a814780da5be4"
        )


class TestMutate:
    def test_prob_zero_is_identity(self, space):
        c = sample_uniform(space, 5)
        assert mutate(c, space, 0.0, random.Random(9)) == c

    def test_prob_one_redraws_everything(self, space):
        c = sample_uniform(space, 5)
        m = mutate(c, space, 1.0, random.Random(9))
        assert validate(m, space) == []
        # same seed, same output; overwhelmingly different from the parent
        assert m == mutate(c, space, 1.0, random.Random(9))
        assert m != c

    def test_deterministic(self, space):
        c = sample_uniform(space, 5)
        assert mutate(c, space, 0.3, random.Random(4)) == mutate(c, space, 0.3, random.Random(4))

    @pytest.mark.parametrize("field, count", [
        ("stage_depths", 4), ("stage_depths", 6), ("kernels", 4), ("expands", 6),
    ])
    def test_stage_count_mismatch_rejected(self, space, field, count):
        c = maximal_config(space)
        wrong = replace(c, **{field: (getattr(c, field) * 2)[:count]})
        with pytest.raises(ValidationError, match=f"{count}.*the space has 5 stages"):
            mutate(wrong, space, 0.5, random.Random(0))

    def test_results_validate(self, space):
        rng = random.Random(8)
        c = sample_uniform(space, 1)
        for _ in range(200):
            c = mutate(c, space, 0.2, rng)
            assert validate(c, space) == []


class TestCrossover:
    def test_identical_parents_fixed_point(self, space):
        a = sample_uniform(space, 3)
        assert crossover(a, a, random.Random(1)) == a

    def test_genes_come_from_parents(self, space):
        a = sample_uniform(space, 3)
        b = sample_uniform(space, 4)
        child = crossover(a, b, random.Random(2))
        assert child.resolution in (a.resolution, b.resolution)
        for s in range(space.num_stages):
            assert child.stage_depths[s] in (a.stage_depths[s], b.stage_depths[s])
            for j in range(space.max_depth):
                assert child.kernels[s][j] in (a.kernels[s][j], b.kernels[s][j])
                assert child.expands[s][j] in (a.expands[s][j], b.expands[s][j])
        assert validate(child, space) == []

    def test_deterministic(self, space):
        a, b = sample_uniform(space, 3), sample_uniform(space, 4)
        assert crossover(a, b, random.Random(5)) == crossover(a, b, random.Random(5))

    def test_space_mismatch_rejected(self, space):
        a = sample_uniform(space, 3)
        other = tiny_space(depths=(1, 2), kernels=(3,), expands=(2,), stages=3)
        b = sample_uniform(other, 3)
        with pytest.raises(ValidationError):
            crossover(a, b, random.Random(0))

    @pytest.mark.parametrize("how", ["short-slots", "short-stages"])
    def test_expand_shape_mismatch_rejected(self, space, how):
        # parents that differ only in their expand slot or stage counts used
        # to give a truncated child
        a = sample_uniform(space, 3)
        if how == "short-slots":
            b = corrupt(a, space, how, 2)
        else:
            b = replace(a, expands=a.expands[:-1])
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValidationError, match="parents come from different spaces"):
                crossover(x, y, random.Random(0))

    @pytest.mark.parametrize("n_depths", [4, 6])
    def test_depth_count_mismatch_rejected(self, space, n_depths):
        # two parents that share one malformed shape, 4 depths but 5 kernel
        # and expand stages, used to give a child cut to 4 stages
        a, b = (
            replace(c, stage_depths=(c.stage_depths * 2)[:n_depths])
            for c in (sample_uniform(space, 3), sample_uniform(space, 4))
        )
        with pytest.raises(ValidationError, match=f"{n_depths} depths, 5 kernel and 5 expand"):
            crossover(a, b, random.Random(0))

    @pytest.mark.parametrize("rational", [False, True], ids=["default", "rational"])
    def test_self_crossover_returns_the_parent_after_the_same_draws(self, space, rational):
        if rational:
            space = rational_space()
        for seed in range(20):
            a = sample_uniform(space, seed)
            copy = replace(a)
            assert copy == a and copy is not a
            rng, reference = random.Random(seed), random.Random(seed)
            assert crossover(a, a, rng) is a
            assert crossover(a, copy, reference) == a
            assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("n_depths", [4, 6])
    def test_self_crossover_checks_the_shape(self, space, n_depths):
        c = sample_uniform(space, 3)
        a = replace(c, stage_depths=(c.stage_depths * 2)[:n_depths])
        with pytest.raises(ValidationError, match=f"{n_depths} depths, 5 kernel and 5 expand"):
            crossover(a, a, random.Random(0))


# bounds for ``_below``: every small one, and each power of two with its
# neighbours, where the rejection loop rejects most and least often
BELOW_BOUNDS = sorted(set(range(1, 300)) | {2 ** k + d for k in range(1, 131) for d in (-1, 0, 1)})


class TestBelow:
    """``_below`` against the interpreter's own ``randrange`` and ``choice``."""

    def test_draws_as_randrange_and_choice(self):
        for n in BELOW_BOUNDS:
            fast, reference = random.Random(n), random.Random(n)
            assert [_below(fast.getrandbits, n) for _ in range(5)] == [
                reference.randrange(n) for _ in range(5)
            ]
            assert fast.getstate() == reference.getstate()
            if n <= sys.maxsize:  # a sequence's length is at most that
                options = range(10, 10 + n)
                assert [options[_below(fast.getrandbits, n)] for _ in range(5)] == [
                    reference.choice(options) for _ in range(5)
                ]
                assert fast.getstate() == reference.getstate()

    def test_one_getrandbits_takes_the_words_of_random_calls(self):
        # crossover of a parent with itself replaces m ``random()`` calls
        for m in range(1, 60):
            fast, reference = random.Random(m), random.Random(m)
            fast.getrandbits(64 * m)
            for _ in range(m):
                reference.random()
            assert fast.getstate() == reference.getstate()

    @pytest.mark.parametrize("n", [0, -1, -(2 ** 70)])
    def test_an_empty_range_raises_before_any_draw(self, n):
        def getrandbits(k):
            raise AssertionError(f"drew {k} bits for an empty range")

        with pytest.raises(ValueError, match="empty range"):
            _below(getrandbits, n)


def rational_space() -> SupernetSpace:
    """A planned space whose expand options include non-integers."""
    return SupernetSpace(
        schedule=plan_schedule(ReferenceConfig(depth=3, kernel=5, expand=2.5, resolution=160)),
        expand_options=(1.5, 2.5, 3, 4, 6),
    )


@pytest.mark.parametrize(
    "rational, children, state",
    [
        (False, "0a798467396c3d1197c1431e2de9a137445032363cf5d28dde95037ccb33c199",
         "117d78549fc1e3b84370d3ed0c5c4c64c582f1469583a90e61187d40b2265565"),
        (True, "ff718e3aa93aae556553b9d7e919e325e1c4dfa98af65ef8aeec208f0ce9c0fd",
         "788eb9d7349de911924a93b232ebd1843e1687dd7c097c15b6a7e5ff512e4c7b"),
    ],
)
def test_mutate_and_crossover_draw_streams_are_pinned(space, rational, children, state):
    # digests of 800 children and of the generator state after them: a
    # faster mutate or crossover must make the same draws in the same order
    if rational:
        space = rational_space()
    parents = [sample_uniform(space, s) for s in range(8)]
    rng = random.Random(0)
    lines = []
    for i in range(400):
        a, b = parents[i % 8], parents[(3 * i + 1) % 8]
        lines.append(mutate(a, space, (0.0, 0.1, 0.5, 1.0)[i % 4], rng).canonical_json())
        lines.append(crossover(a, b, rng).canonical_json())
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == children
    assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == state


class TestResolve:
    def test_stage_entry_sizes_halve_from_224(self, space):
        sk = resolve(maximal_config(space), space)
        entries = [b.input_size for b in sk.blocks[:: space.max_depth]]
        assert entries == [112, 56, 28, 14, 7]
        # downsampling transitions are the first block of stages 1-4
        strides = [b.stride for b in sk.blocks]
        assert [strides[s * 4] for s in range(5)] == [2, 2, 2, 2, 1]

    def test_block_count_follows_depths(self, space):
        rng = random.Random(6)
        for _ in range(50):
            c = sample_uniform(space, rng.randrange(2 ** 63))
            sk = resolve(c, space)
            assert len(sk.blocks) == sum(c.stage_depths)

    def test_every_valid_config_profiles(self, space):
        rng = random.Random(12)
        for _ in range(100):
            c = sample_uniform(space, rng.randrange(2 ** 63))
            prof = profile_network(resolve(c, space))
            assert prof.peak_items > 0

    def test_inert_slots_do_not_affect_resolution(self, space):
        rng = random.Random(13)
        for _ in range(100):
            c = sample_uniform(space, rng.randrange(2 ** 63))
            kernels = [list(ks) for ks in c.kernels]
            expands = [list(es) for es in c.expands]
            for s in range(space.num_stages):
                for j in range(c.stage_depths[s], space.max_depth):
                    kernels[s][j] = rng.choice(space.kernel_options)
                    expands[s][j] = rng.choice(space.expand_options)
            scrambled = SubnetConfig(
                resolution=c.resolution,
                stage_depths=c.stage_depths,
                kernels=tuple(tuple(k) for k in kernels),
                expands=tuple(tuple(e) for e in expands),
            )
            assert resolve(scrambled, space) == resolve(c, space)

    def test_invalid_config_rejected(self, space):
        c = maximal_config(space)
        bad = SubnetConfig(128, c.stage_depths, c.kernels, ((9, 4, 4, 4),) + c.expands[1:])
        with pytest.raises(ValidationError):
            resolve(bad, space)

    def test_indivisible_resolution_rejected(self):
        # 20 -> 10 -> 5 -> cannot halve again for the third stage entry; the
        # space is refused when it is built, before anything resolves
        message = "resolution_options[0]: resolution 20 does not divide through the stride stages"
        with pytest.raises(ResolutionError, match=re.escape(message)):
            tiny_space(resolutions=(20,), stages=3, depths=(1,))

    def test_fast_peak_matches_profile(self, space):
        rng = random.Random(14)
        for _ in range(300):
            c = sample_uniform(space, rng.randrange(2 ** 63))
            assert config_peak_items(c, space) == profile_network(resolve(c, space)).peak_items
            assert config_peak_items(c, space, include_classifier=True) == profile_network(
                resolve(c, space, include_classifier=True)
            ).peak_items


PLANNED_SCHEDULES = (
    plan_schedule(ReferenceConfig()),
    plan_schedule(ReferenceConfig(), divisor=1),
    plan_schedule(ReferenceConfig(), stem_width=64, mode="closed-form"),
    plan_schedule(ReferenceConfig(depth=3, kernel=5, expand=2.5, resolution=160)),
)


def option_sets(values, max_size=3):
    return st.lists(
        st.sampled_from(values), min_size=1, max_size=max_size, unique=True
    ).map(lambda v: tuple(sorted(v)))


@st.composite
def custom_schedules(draw):
    divisor = draw(st.sampled_from((1, 8)))
    width = st.integers(1, 12).map(lambda m: m * divisor)
    return ChannelSchedule(
        stem_width=draw(width),
        stage_widths=tuple(draw(width) for _ in range(draw(st.integers(1, 5)))),
        head_width=draw(width),
        divisor=divisor,
    )


@st.composite
def spaces(draw):
    """Planned and hand-made schedules under varied option sets, with
    rational expands whose channel counts round (ties up)."""
    schedule = draw(st.one_of(st.sampled_from(PLANNED_SCHEDULES), custom_schedules()))
    num_stages = len(schedule.stage_widths)
    return SupernetSpace(
        schedule=schedule,
        num_stages=num_stages,
        depth_options=draw(option_sets((1, 2, 3, 4))),
        kernel_options=draw(option_sets((1, 3, 5, 7))),
        expand_options=draw(option_sets((1, 1.5, 2, 2.5, 3, 4, 6))),
        resolution_options=draw(option_sets(tuple(2 ** num_stages * m for m in range(1, 8)))),
    )


SEEDS = st.integers(0, 2 ** 63 - 1)


def reference_uniform_draw(space, rng):
    """``_sample_with``'s uniform draw as a loop over the stages: the
    reference for its flat draw over ``SupernetSpace.uniform_plan``."""
    rnd = rng.random
    d_opts, k_opts, e_opts = space.depth_options, space.kernel_options, space.expand_options
    slots = range(space.max_depth)
    resolution = space.resolution_options[int(rnd() * len(space.resolution_options))]
    depths, kernels, expands = [], [], []
    for _ in range(space.num_stages):
        depths.append(d_opts[int(rnd() * len(d_opts))])
        kernels.append(tuple([k_opts[int(rnd() * len(k_opts))] for _ in slots]))
        expands.append(tuple([e_opts[int(rnd() * len(e_opts))] for _ in slots]))
    return SubnetConfig(resolution, tuple(depths), tuple(kernels), tuple(expands))


@given(space=spaces(), seed=SEEDS)
def test_uniform_draw_equals_the_reference_loop(space, seed):
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(5):
        assert _sample_with(space, fast) == reference_uniform_draw(space, slow)
    assert fast.getstate() == slow.getstate()


def corrupt(config, space, how, where):
    """``config`` with one field moved out of the space, shortened, or held
    in an unhashable list; ``where`` picks the stage and slot."""
    s, j = where % space.num_stages, where % space.max_depth

    def at_stage(lists, stage):
        return tuple(stage if i == s else inner for i, inner in enumerate(lists))

    def at_slot(lists, value):
        return at_stage(lists, tuple(value if i == j else v for i, v in enumerate(lists[s])))

    if how == "resolution":
        return replace(config, resolution=space.resolution_options[-1] + 2)
    if how == "depth":
        depths = tuple(9 if i == s else d for i, d in enumerate(config.stage_depths))
        return replace(config, stage_depths=depths)
    if how == "kernel":
        return replace(config, kernels=at_slot(config.kernels, 9))
    if how == "expand":
        return replace(config, expands=at_slot(config.expands, 5.5))
    if how == "short-slots":
        return replace(config, expands=at_stage(config.expands, config.expands[s][:-1]))
    if how == "short-stages":
        return replace(config, kernels=config.kernels[:-1])
    if how == "short-depths":
        return replace(config, stage_depths=config.stage_depths[:-1])
    if how == "list-slots":
        return replace(config, kernels=at_stage(config.kernels, list(config.kernels[s])))
    if how == "list-resolution":
        return replace(config, resolution=[config.resolution])
    return config


class TestFastValidate:
    """``validate`` answers a valid config by set lookups and walks every
    other one; the walk is the reference for the verdict and the messages."""

    HASHABLE = ("valid", "resolution", "depth", "kernel", "expand", "short-slots",
                "short-stages", "short-depths")

    @settings(max_examples=300)
    @given(space=spaces(), seed=SEEDS, how=st.sampled_from(HASHABLE), where=st.integers(0, 99))
    def test_fast_verdict_matches_the_walk(self, space, seed, how, where):
        config = corrupt(sample_uniform(space, seed), space, how, where)
        assert _is_valid(config, space) == (_violations(config, space) == [])
        assert validate(config, space) == _violations(config, space)

    @given(space=spaces(), seed=SEEDS, how=st.sampled_from(("list-slots", "list-resolution")),
           where=st.integers(0, 99))
    def test_unhashable_values_are_walked(self, space, seed, how, where):
        config = corrupt(sample_uniform(space, seed), space, how, where)
        assert not _is_valid(config, space)
        assert validate(config, space) == _violations(config, space)

    @pytest.mark.parametrize("big", [
        # 17**4 kernel tuples and 4**9 depth tuples: more than 65,536 each
        tiny_space(depths=(1, 2, 3, 4), kernels=tuple(range(11, 45, 2)), stages=2),
        tiny_space(depths=(1, 2, 3, 4), stages=9, resolutions=(512,)),
    ], ids=["kernels", "depths"])
    @settings(max_examples=50)
    @given(seed=SEEDS, how=st.sampled_from(HASHABLE), where=st.integers(0, 99))
    def test_oversized_tuple_sets_are_walked(self, big, seed, how, where):
        # the set of such tuples is left empty, so the fast check accepts
        # nothing and every config, valid or not, is walked
        config = corrupt(sample_uniform(big, seed), big, how, where)
        assert not _is_valid(config, big)
        assert validate(config, big) == _violations(config, big)
        assert (validate(config, big) == []) == (how == "valid")

    def test_messages_name_each_field_in_order(self, space):
        c = maximal_config(space)
        bad = replace(
            c,
            resolution=100,
            stage_depths=(5,) + c.stage_depths[1:],
            kernels=((9, 7, 7),) + c.kernels[1:],
            expands=c.expands[:-1],
        )
        assert validate(bad, space) == [
            "resolution: 100 not in resolution_options [128, 160, 192, 224]",
            "expands: expected 5 stages, got 4",
            "stages[0].depth: 5 not in depth_options [2, 3, 4]",
            "stages[0].kernels: expected 4 slots, got 3",
        ]


class TestFeasibleSet:
    """The exact feasible set of a cap on varied spaces; brute-force checks
    on small spaces are in ``test_feasible.py``."""

    @settings(max_examples=150)
    @given(space=spaces(), seed=SEEDS, share=st.floats(0, 1), include_classifier=st.booleans())
    def test_draws_fit_under_the_cap_and_validate(self, space, seed, share, include_classifier):
        # at a cap at or above the floor that counts the classifier, the
        # classifier fits, so the set's members fit with it counted too
        floor = min_peak_items(space, include_classifier)
        cap = floor + int(share * max(0, max_peak_items(space) - floor))
        feasible = FeasibleSet(space, cap)
        assert feasible.count > 0
        assert FeasibleSet(space, min_peak_items(space) - 1).count == 0
        rng = random.Random(seed)
        for _ in range(5):
            config = _sample_with(space, rng, feasible)
            assert validate(config, space) == []
            assert config_peak_items(config, space, include_classifier=include_classifier) <= cap

    def test_reference_counts(self, space):
        # every whole genome: 4 resolutions, 9 pairs in each of 20 slots, 3
        # depths in each of 5 stages
        assert FeasibleSet(space, max_peak_items(space)).count == 4 * 9 ** 20 * 3 ** 5
        assert FeasibleSet(space, 350_000).count == 16_071_083_493_135_722_532
        assert FeasibleSet(space, 253_184).count == 1_357_028_451_635_831_559
        assert FeasibleSet(space, 253_183).count == 0


class TestPeakTable:
    """``config_peak_items`` reads a table; ``profile_network`` is the
    reference it must agree with."""

    @settings(max_examples=300)
    @given(space=spaces(), seed=SEEDS, include_classifier=st.booleans())
    def test_matches_profile(self, space, seed, include_classifier):
        c = sample_uniform(space, seed)
        skeleton = resolve(c, space, include_classifier=include_classifier)
        assert config_peak_items(
            c, space, include_classifier=include_classifier
        ) == profile_network(skeleton).peak_items

    @given(
        space=spaces(),
        seed=SEEDS,
        gene=st.sampled_from(["resolution", "depth", "kernel", "expand"]),
        data=st.data(),
    )
    def test_out_of_space_gene_raises_what_resolve_raises(self, space, seed, gene, data):
        c = sample_uniform(space, seed)
        s = data.draw(st.integers(0, space.num_stages - 1), label="stage")
        depth = c.stage_depths[s]
        j = data.draw(st.integers(0, depth - 1), label="active slot")

        def put(genes, value):
            stage = genes[s][:j] + (value,) + genes[s][j + 1 :]
            return genes[:s] + (stage,) + genes[s + 1 :]

        if gene == "resolution":
            bad = replace(c, resolution=2 ** space.num_stages * 9)
        elif gene == "depth":
            bad_depth = data.draw(
                st.sampled_from([d for d in range(6) if d not in space.depth_options])
            )
            bad = replace(
                c, stage_depths=c.stage_depths[:s] + (bad_depth,) + c.stage_depths[s + 1 :]
            )
        elif gene == "kernel":
            bad = replace(c, kernels=put(c.kernels, 9))
        else:
            bad = replace(c, expands=put(c.expands, 5))
        with pytest.raises(ValidationError) as by_resolve:
            resolve(bad, space)
        with pytest.raises(ValidationError) as by_peak:
            config_peak_items(bad, space)
        assert str(by_peak.value) == str(by_resolve.value)
        with pytest.raises(ValidationError) as by_score:
            synthetic_score(bad, space)
        assert (type(by_score.value), str(by_score.value)) == (
            type(by_resolve.value), str(by_resolve.value)
        )


class TestScoreTable:
    """``synthetic_score`` reads per-block terms; ``profile_network`` and
    ``flops_estimate`` of the resolved network are the reference it must
    match bit for bit."""

    @settings(max_examples=300)
    @given(space=spaces(), seed=SEEDS)
    def test_matches_the_profiled_network(self, space, seed):
        c = sample_uniform(space, seed)
        sk = resolve(c, space)
        p = profile_network(sk)
        reference = ALPHA * math.log(flops_estimate(sk)) + BETA * (p.avg_items / p.peak_items)
        assert synthetic_score(c, space) == reference

    @given(space=spaces())
    def test_peak_table_covers_every_listed_resolution(self, space):
        assert tuple(space.peak_table) == space.resolution_options

    @given(space=spaces())
    def test_peak_terms_are_those_of_the_peak_table(self, space):
        # one source of peak terms: the score table carries peak_table's
        table = space.score_table
        assert table.keys() == space.peak_table.keys()
        for r, (base, _, peak_stages) in space.peak_table.items():
            assert table[r][2] == base
            for stage, peak_stage in zip(table[r][3], peak_stages, strict=True):
                for terms, peaks in zip(stage, peak_stage, strict=True):
                    assert {
                        k: {e: t[2] for e, t in by_expand.items()} for k, by_expand in terms.items()
                    } == peaks

    @given(space=spaces(), seed=SEEDS)
    def test_flops_are_the_base_plus_the_blocks(self, space, seed):
        c = sample_uniform(space, seed)
        sk = resolve(c, space)
        base_flops = space.score_table[c.resolution][1]
        assert flops_estimate(sk) == base_flops + sum(block_flops(b) for b in sk.blocks)

    def test_built_once_per_space_instance(self, space, monkeypatch):
        built = []
        build = predictor._score_table
        monkeypatch.setattr(predictor, "_score_table", lambda s: built.append(s) or build(s))
        first = replace(space)
        config = maximal_config(first)
        assert synthetic_score(config, first) == synthetic_score(config, first)
        assert len(built) == 1 and built[0] is first
        # an equal space elsewhere builds its own table, the same one
        second = replace(space)
        synthetic_score(config, second)
        assert len(built) == 2 and built[1] is second
        assert second.score_table == first.score_table


def brute_force_min_peak(space, **kwargs):
    """The least ``config_peak_items`` over every configuration of the space
    at every resolution."""
    return min(
        config_peak_items(replace(config, resolution=r), space, **kwargs)
        for config in enumerate_subnets(space)
        for r in space.resolution_options
    )


TWO_STAGES = ChannelSchedule(stem_width=8, stage_widths=(16, 48), head_width=64, divisor=8)
MIN_PEAK_SPACES = {
    "kernels": dict(depth_options=(1,), kernel_options=(3, 5, 7), expand_options=(2,)),
    "expands": dict(depth_options=(1,), kernel_options=(7,), expand_options=(2, 3, 4)),
    "depths-1-2": dict(depth_options=(1, 2), kernel_options=(3,), expand_options=(2,)),
    "inner-options": dict(depth_options=(2,), kernel_options=(3, 5), expand_options=(2,)),
    # the classifier term of an 8-wide head lies below every network peak
    "small-head": dict(
        schedule=replace(default_space().schedule, head_width=8),
        depth_options=(1, 2), kernel_options=(3,), expand_options=(2,),
    ),
    "two-stages-depths-1-3": dict(
        schedule=TWO_STAGES, num_stages=2, depth_options=(1, 2, 3),
        kernel_options=(3, 5), expand_options=(2, 3), resolution_options=(16, 40, 64),
    ),
    "two-stages-depths-2-3": dict(
        schedule=TWO_STAGES, num_stages=2, depth_options=(2, 3),
        kernel_options=(3, 7), expand_options=(2, 4), resolution_options=(16, 40, 64),
    ),
}


class TestMinPeak:
    """``min_peak_items`` is exact: brute force over small spaces agrees."""

    @pytest.mark.parametrize("name", sorted(MIN_PEAK_SPACES))
    @pytest.mark.parametrize("include_classifier", [False, True])
    def test_matches_brute_force(self, space, name, include_classifier):
        small = replace(space, **MIN_PEAK_SPACES[name])
        assert min_peak_items(small, include_classifier) == brute_force_min_peak(
            small, include_classifier=include_classifier
        )

    def test_reference_values(self, space):
        assert min_peak_items(space) == 253_184
        narrow = replace(space, kernel_options=(5, 7), expand_options=(3, 4))
        assert min_peak_items(narrow) == 377_024
        assert min_peak_items(space, include_classifier=True) == 345_344

    def test_no_resolution_resolves(self):
        # neither 6 nor 10 divides by 4; the space is refused when it is
        # built, so there is no peak range to ask for
        with pytest.raises(ResolutionError, match=re.escape("resolution_options[0]: resolution 6")):
            tiny_space(resolutions=(6, 10))


class TestJsonRoundTrip:
    def test_config_schema(self, space):
        c = sample_uniform(space, 42)
        d = c.to_json_dict()
        assert set(d) == {"resolution", "stages"}
        assert len(d["stages"]) == 5
        assert set(d["stages"][0]) == {"depth", "kernels", "expands"}
        assert SubnetConfig.from_json_dict(d) == c

    def test_pickle_round_trip(self, space):
        # the cached tables travel in the pickle, and nothing in them
        # depends on the process that built them
        space = replace(space)
        config = maximal_config(space)
        score = synthetic_score(config, space)
        assert space.peak_table and space.score_table
        back = pickle.loads(pickle.dumps(space))
        assert vars(back).keys() == vars(space).keys()
        assert back == space and hash(back) == hash(space)
        assert synthetic_score(config, back) == score

    def test_default_space_is_one_shared_instance(self):
        # its cached tables are built once per process, not once per call
        assert default_space() is default_space()
        assert default_space().peak_table is default_space().peak_table

    def test_space_roundtrip(self, space):
        d = space.to_json_dict()
        assert SupernetSpace.from_json_dict(d) == space
        assert d["schedule"]["stage_widths"] == [24, 88, 272, 344, 344]

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda d: d.pop("stages"), "stages: missing"),
            (lambda d: d.update(stages={}), "stages: expected a list"),
            (lambda d: d["stages"][1].pop("kernels"), "stages[1].kernels: missing"),
            (lambda d: d["stages"].append(7), "stages[5]: expected an object"),
            (lambda d: d.update(resolution=True), "resolution: expected a number, got True"),
            (
                lambda d: d["stages"][2].update(depth=True),
                "stages[2].depth: expected a number, got True",
            ),
            (
                lambda d: d["stages"][0]["expands"].__setitem__(3, False),
                "stages[0].expands[3]: expected a number, got False",
            ),
            (
                lambda d: d["stages"][4]["kernels"].__setitem__(3, True),
                "stages[4].kernels[3]: expected a number, got True",
            ),
            (
                lambda d: d["stages"][3].update(expands=4),
                "stages[3].expands: expected a list, got 4",
            ),
            (
                lambda d: d["stages"].__setitem__(2, [4, 7, 3]),
                "stages[2]: expected an object, got [4, 7, 3]",
            ),
        ],
    )
    def test_malformed_config_names_the_field(self, space, mangle, message):
        d = sample_uniform(space, 42).to_json_dict()
        mangle(d)
        with pytest.raises(ValidationError, match=re.escape(message)):
            SubnetConfig.from_json_dict(d)

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda d: d.pop("schedule"), "schedule: missing"),
            (lambda d: d.update(schedule=[8]), "schedule: expected a dict"),
            (lambda d: d["schedule"].pop("stage_widths"), "schedule.stage_widths: missing"),
            (lambda d: d["schedule"].pop("divisor"), "schedule.divisor: missing"),
            (
                lambda d: d["schedule"].update(stem_width=12),
                "schedule: width 12 is not a positive multiple of divisor 8",
            ),
            (lambda d: d.pop("kernel_options"), "kernel_options: missing"),
            (
                lambda d: d["schedule"]["stage_widths"].__setitem__(2, "272"),
                "schedule.stage_widths[2]: expected a positive integer, got '272'",
            ),
            (
                lambda d: d.update(expand_options=[2, True]),
                "expand_options[1]: expected a positive number, got True",
            ),
            (
                lambda d: d.update(expand_options=[2, float("inf")]),
                "expand_options[1]: expected a positive number, got inf",
            ),
            (
                lambda d: d.update(resolution_options=[128, 160.0]),
                "resolution_options[1]: expected a positive integer, got 160.0",
            ),
            (
                lambda d: d.update(kernel_options=[3, 3, 5]),
                "kernel_options must be non-empty and strictly ascending",
            ),
        ],
    )
    def test_malformed_space_names_the_field(self, space, mangle, message):
        d = space.to_json_dict()
        mangle(d)
        with pytest.raises(ValidationError, match=re.escape(message)):
            SupernetSpace.from_json_dict(d)


class TestInvariants:
    """Properties that hold for every space and seed."""

    @given(
        space=spaces(),
        seeds=st.tuples(SEEDS, SEEDS, SEEDS),
        prob=st.floats(0, 1),
    )
    def test_mutate_and_crossover_children_validate(self, space, seeds, prob):
        a, b = sample_uniform(space, seeds[0]), sample_uniform(space, seeds[1])
        child = mutate(a, space, prob, random.Random(seeds[2]))
        assert validate(child, space) == []
        assert validate(crossover(a, b, random.Random(seeds[2])), space) == []

    @given(space=spaces(), seed=SEEDS)
    def test_canonical_json_is_sorted_compact_json(self, space, seed):
        config = sample_uniform(space, seed)
        expected = json.dumps(config.to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert config.canonical_json() == expected

    @given(space=spaces(), seed=SEEDS)
    def test_json_round_trips(self, space, seed):
        config = sample_uniform(space, seed)
        assert SubnetConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict()))) == config
        assert SupernetSpace.from_json_dict(json.loads(json.dumps(space.to_json_dict()))) == space


class TestSpaceCheck:
    """Construction is the one check of a space: every way of building one
    refuses the same defects, naming the field, and a space that constructs
    resolves every valid configuration."""

    DEFECTS = {
        "resolution": (
            dict(resolution_options=(128, 136)),
            ResolutionError,
            "resolution_options[1]: resolution 136 does not divide through the stride stages",
        ),
        "kernel": (dict(kernel_options=(3, 4, 7)), ValidationError, "kernel_options[1]: kernel 4"),
        "expand": (dict(expand_options=(0.01, 2, 4)), ValidationError, "expand_options[0]: "),
        # numbers whose layer totals would overflow float arithmetic
        "huge-expand": (
            dict(expand_options=(2, 1e308)),
            FieldError,
            "expand_options[1]: expected a positive number of at most 4194304, got 1e+308",
        ),
        "huge-kernel": (
            dict(kernel_options=(3, MAX_EXTENT + 2)),
            FieldError,
            "kernel_options[1]: expected a positive integer of at most 4194304, got 4194306",
        ),
        "huge-resolution": (
            dict(resolution_options=(128, 2 ** 600)),
            FieldError,
            "resolution_options[1]: expected a positive integer of at most 4194304, "
            "got an integer of 601 bits",
        ),
    }
    ROUTES = {
        "constructor": lambda space, fields: SupernetSpace(schedule=space.schedule, **fields),
        "replace": lambda space, fields: replace(space, **fields),
        "from_json_dict": lambda space, fields: SupernetSpace.from_json_dict(
            {**space.to_json_dict(), **{k: list(v) for k, v in fields.items()}}
        ),
    }

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_every_route_refuses_the_defect(self, space, route, defect):
        fields, error, message = self.DEFECTS[defect]
        with pytest.raises(error, match=re.escape(message)):
            self.ROUTES[route](space, fields)

    def test_a_space_at_the_bounds_profiles_finitely(self):
        wide = MAX_EXTENT
        schedule = ChannelSchedule(
            stem_width=wide, stage_widths=(wide, wide), head_width=wide, divisor=8
        )
        space = SupernetSpace(
            schedule=schedule, num_stages=2, depth_options=(2,),
            kernel_options=(wide - 1,), expand_options=(float(wide),),
            resolution_options=(wide,),
        )
        profile = profile_network(resolve(maximal_config(space), space, include_classifier=True))
        assert profile.peak_items < 2 ** 90
        assert math.isfinite(profile.avg_items) and math.isfinite(profile.std_items)
        assert math.isfinite(synthetic_score(maximal_config(space), space))

    def test_schedule_widths_are_bounded(self, space):
        message = "stage_widths[4]: expected a positive integer of at most 4194304, got 4194312"
        with pytest.raises(FieldError, match=re.escape(message)):
            replace(space.schedule, stage_widths=(24, 88, 272, 344, MAX_EXTENT + 8))
        d = space.to_json_dict()
        d["schedule"]["stage_widths"][4] = 10 ** 300
        message = "schedule.stage_widths[4]: expected a positive integer of at most 4194304, got an"
        with pytest.raises(FieldError, match=re.escape(message)):
            SupernetSpace.from_json_dict(d)

    def test_expands_are_checked_at_the_narrowest_block_input(self, space):
        # a stage narrower than the stem sets the bound; the head is no block
        # input; 1/16 of 8 channels rounds up to one, 0.06 of them to zero
        schedule = ChannelSchedule(
            stem_width=16, stage_widths=(8, 32), head_width=4, divisor=4
        )
        narrow = replace(space, schedule=schedule, num_stages=2, resolution_options=(64,))
        assert replace(narrow, expand_options=(0.0625,)).expand_options == (0.0625,)
        message = "expand_options[0]: expand 0.06 of the narrowest block input, 8 channels"
        with pytest.raises(ValidationError, match=re.escape(message)):
            replace(narrow, expand_options=(0.06,))

    @given(
        space=spaces(),
        seed=SEEDS,
        field=st.sampled_from([None, "kernel_options", "expand_options", "resolution_options"]),
        data=st.data(),
    )
    def test_a_space_that_constructs_resolves(self, space, seed, field, data):
        # one option set may be redrawn from values the check refuses: even
        # kernels, expands that round to zero channels, resolutions that do
        # not divide through the stride stages
        if field is not None:
            pool = {
                "kernel_options": range(1, 9),
                "expand_options": (0.01, 0.04, 0.0625, 0.1, 0.5, 1, 2.5),
                "resolution_options": range(2, 2 ** space.num_stages * 3 + 1, 2),
            }[field]
            try:
                space = replace(space, **{field: data.draw(option_sets(tuple(pool)), label=field)})
            except ValidationError:
                return
        assert set(space.peak_table) == set(space.resolution_options)
        for config in (maximal_config(space), sample_uniform(space, seed)):
            for include_classifier in (False, True):
                profile_network(resolve(config, space, include_classifier=include_classifier))
            synthetic_score(config, space)
