"""Configuration space: validation, counting, sampling, genome operators,
and resolution into skeletons."""

import copy
import hashlib
import json
import math
import pickle
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memnas import predictor
from memnas.errors import FieldError, ResolutionError, ValidationError
from memnas.memory import (
    MBBlockShape,
    NetworkSkeleton,
    block_flops,
    block_memory,
    flops_estimate,
    profile_network,
)
from memnas.planner import (
    MAX_EXTENT,
    ChannelSchedule,
    ReferenceConfig,
    plan_schedule,
    stage_shapes,
)
from memnas.predictor import ALPHA, BETA, PredictorModel, feature_length, synthetic_score
from memnas.feasible import FeasibleSet, max_peak_items, min_peak_items
from memnas.space import (
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
    maximal_config,
    mutate,
    require_valid,
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

    @pytest.mark.parametrize("depth", [4.0, Fraction(4)], ids=["float", "fraction"])
    def test_a_depth_that_is_not_an_int_is_cited(self, space, depth):
        # 4.0 equals the option 4, yet cannot count the blocks of a stage
        bad = replace(maximal_config(space), stage_depths=(4, 4, depth, 4, 4))
        message = f"stages[2].depth: expected an integer, got {depth!r}"
        assert validate(bad, space) == [message]
        for call in (require_valid, synthetic_score, resolve):
            with pytest.raises(ValidationError) as exc:
                call(bad, space)
            assert str(exc.value) == message


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


def reference_mutate(config, space, prob, rng):
    """``mutate`` with every slot tuple built anew by a list comprehension,
    a resampled gene drawn with ``rng.choice``; also the set of ``(stage,
    "kernels" or "expands")`` whose slot tuple had no gene resampled."""

    def redraw(value, options):
        return (rng.choice(options), True) if rng.random() < prob else (value, False)

    resolution, _ = redraw(config.resolution, space.resolution_options)
    depths, kernels, expands, untouched = [], [], [], set()
    for s, (d, ks, es) in enumerate(zip(config.stage_depths, config.kernels, config.expands)):
        depths.append(redraw(d, space.depth_options)[0])
        for kind, slots, options, out in (
            ("kernels", ks, space.kernel_options, kernels),
            ("expands", es, space.expand_options, expands),
        ):
            drawn = [redraw(g, options) for g in slots]
            out.append(tuple([g for g, _ in drawn]))
            if not any(hit for _, hit in drawn):
                untouched.add((s, kind))
    return SubnetConfig(resolution, tuple(depths), tuple(kernels), tuple(expands)), untouched


def reference_crossover(a, b, rng):
    """``crossover`` gene by gene, one ``rng.random()`` each and every slot
    tuple built anew, with no shortcut for shared parents or tuples."""

    def pick(x, y):
        return x if rng.random() < 0.5 else y

    resolution = pick(a.resolution, b.resolution)
    depths, kernels, expands = [], [], []
    for da, db, ka, kb, ea, eb in zip(
        a.stage_depths, b.stage_depths, a.kernels, b.kernels, a.expands, b.expands
    ):
        depths.append(pick(da, db))
        kernels.append(tuple([pick(x, y) for x, y in zip(ka, kb)]))
        expands.append(tuple([pick(x, y) for x, y in zip(ea, eb)]))
    return SubnetConfig(resolution, tuple(depths), tuple(kernels), tuple(expands))


def same_draws(fast, reference, rng, *args):
    """``fast(*args, rng)`` after asserting that it returns what
    ``reference(*args, rng)`` does and leaves ``rng`` in the same state."""
    state = rng.getstate()
    child = fast(*args, rng)
    after = rng.getstate()
    rng.setstate(state)
    expected = reference(*args, rng)
    assert rng.getstate() == after
    return child, expected


@settings(max_examples=60)
@given(space=spaces(), seed=SEEDS, prob=st.floats(0, 1))
def test_mutate_and_crossover_pass_untouched_slot_tuples_through(space, seed, prob):
    rng = random.Random(seed)
    a, b = _sample_with(space, rng), _sample_with(space, rng)
    for _ in range(10):
        child, (expected, untouched) = same_draws(
            lambda c, r: mutate(c, space, prob, r), lambda c, r: reference_mutate(c, space, prob, r),
            rng, a,
        )
        assert child == expected
        for s, kind in untouched:
            assert getattr(child, kind)[s] is getattr(a, kind)[s]
        # a parent and its mutant share the mutant's untouched slot tuples
        for x, y in ((b, b), (a, child), (child, b)):
            crossed, expected = same_draws(crossover, reference_crossover, rng, x, y)
            assert crossed.canonical_json() == expected.canonical_json()
            for kind in ("kernels", "expands"):
                for p, q, c in zip(getattr(x, kind), getattr(y, kind), getattr(crossed, kind)):
                    # one tuple object, or distinct tuples of the same gene objects
                    if p is q or all(g is h for g, h in zip(p, q)):
                        assert c is p
        a, b = child, crossed


def int_and_float_configs(space):
    """Two equal configs whose stage-0 expand tuples are distinct objects,
    one holding the float 2.0 where the other holds the int 2, so that they
    serialize differently; their kernel tuples are one object."""
    a = sample_uniform(space, 3)
    a = replace(a, expands=((2, 3, 4, 2),) + a.expands[1:])
    return a, replace(a, expands=((2.0, 3, 4, 2.0),) + a.expands[1:])


def test_crossover_of_equal_but_distinct_slot_tuples_follows_the_draws(space):
    # the equal parents serialize differently; the kernel tuples they share
    # as one object are passed through
    a, b = int_and_float_configs(space)
    assert a == b and a.canonical_json() != b.canonical_json()
    kinds = set()
    for seed in range(40):
        rng = random.Random(seed)
        child, expected = same_draws(crossover, reference_crossover, rng, a, b)
        assert child.canonical_json() == expected.canonical_json()
        assert [type(g) for g in child.expands[0]] == [type(g) for g in expected.expands[0]]
        assert all(c is k for c, k in zip(child.kernels, a.kernels))
        kinds.add(tuple(type(g) for g in child.expands[0][::3]))
    # every mix of int and float in the two differing slots was drawn
    assert len(kinds) == 4


class ScriptedWords:
    """A generator that hands out one list of 32-bit words as CPython's
    ``random.Random`` hands out its own: ``getrandbits(k)`` fills ``k`` bits
    a word at a time from the least significant end, keeping the high bits
    of a short last word, and ``random()`` builds its float from the top 27
    and 26 bits of two words.  ``used`` counts the words read."""

    def __init__(self, words):
        self.words, self.used = list(words), 0

    def _word(self):
        self.used += 1
        return self.words[self.used - 1]

    def getrandbits(self, k):
        return sum(self._word() >> max(0, shift + 32 - k) << shift for shift in range(0, k, 32))

    def random(self):
        high, low = self._word() >> 5, self._word() >> 6
        return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


# a gene's two words: ``random()`` just below 0.5 keeps the first parent's
# gene, exactly 0.5 takes the second's
COIN_WORDS = ((0x7FFFFFFF, 0xFFFFFFFF), (0x80000000, 0))


def test_scripted_words_draw_as_the_interpreter():
    assert ScriptedWords(COIN_WORDS[0]).random() == 0.5 - 2 ** -53
    assert ScriptedWords(COIN_WORDS[1]).random() == 0.5
    for seed in range(5):
        source, reference = random.Random(seed), random.Random(seed)
        scripted = ScriptedWords(source.getrandbits(32) for _ in range(2000))
        for k in (1, 31, 32, 33, 64, 100, 64 * 46):
            assert scripted.random() == reference.random()
            assert scripted.getrandbits(k) == reference.getrandbits(k)
        assert scripted.getrandbits(32) == reference.getrandbits(32)  # in step


def crossed_by_coins(a, b, coins):
    """``crossover(a, b)`` and ``reference_crossover(a, b)`` on words that
    make gene ``g`` the second parent's exactly when ``coins[g]`` is 1,
    each after asserting that it read every word."""
    words = [w for c in coins for w in COIN_WORDS[c]]
    children = []
    for cross in (crossover, reference_crossover):
        rng = ScriptedWords(words)
        children.append(cross(a, b, rng))
        assert rng.used == len(words)
    return children


def test_crossover_reads_each_gene_from_its_coin(space):
    # every mask of a 4-slot kernel tuple and of a 4-slot expand tuple
    a, b = sample_uniform(space, 3), sample_uniform(space, 4)
    ka, kb, ea, eb = (3, 5, 3, 5), (7, 7, 7, 7), (3, 4, 6, 3), (1, 2, 2, 1)
    a = replace(a, kernels=(ka,) + a.kernels[1:], expands=a.expands[:-1] + (ea,))
    b = replace(b, kernels=(kb,) + b.kernels[1:], expands=b.expands[:-1] + (eb,))
    n_genes = 1 + space.num_stages * (1 + 2 * space.max_depth)
    for mask in range(16):
        bits = [mask >> i & 1 for i in range(4)]
        coins = [random.Random(mask).getrandbits(1) for _ in range(n_genes)]
        coins[2:6], coins[-4:] = bits, bits[::-1]
        child, expected = crossed_by_coins(a, b, coins)
        assert child == expected and child.canonical_json() == expected.canonical_json()
        assert child.kernels[0] == tuple(y if c else x for c, x, y in zip(bits, ka, kb))
        assert child.expands[-1] == tuple(y if c else x for c, x, y in zip(bits[::-1], ea, eb))


def test_crossover_of_slot_lengths_outside_the_spaces(space):
    # one slot, and five or more, where every gene of the two parents differs
    def genome(offset):
        genes = iter(range(offset, offset + 100))
        return SubnetConfig(
            next(genes),
            tuple(next(genes) for _ in range(3)),
            tuple(tuple(next(genes) for _ in range(n)) for n in (1, 5, 8)),
            tuple(tuple(next(genes) for _ in range(n)) for n in (6, 1, 1)),
        )

    a, b = genome(0), genome(1000)
    rng, singles = random.Random(0), set()
    for _ in range(200):
        coins = [rng.getrandbits(1) for _ in range(1 + 3 + 14 + 8)]
        child, expected = crossed_by_coins(a, b, coins)
        assert child == expected and child.canonical_json() == expected.canonical_json()
        assert all(type(slots) is tuple for slots in child.kernels + child.expands)
        singles.add((child.kernels[0], child.expands[1]))
    assert singles == {
        (k, e) for k in (a.kernels[0], b.kernels[0]) for e in (a.expands[1], b.expands[1])
    }


def test_a_shape_mismatch_draws_nothing(space):
    def shape(c):
        return len(c.stage_depths), tuple(map(len, c.kernels)), tuple(map(len, c.expands))

    a = sample_uniform(space, 3)
    stages = replace(
        a, stage_depths=a.stage_depths[:2], kernels=a.kernels[:2], expands=a.expands[:3]
    )
    split = replace(stages, kernels=a.kernels[:3], expands=a.expands[:2])
    for x, y in (
        (a, corrupt(a, space, "short-slots", 2)),
        (a, replace(a, expands=a.expands[:-1])),
        (stages, split),  # the same lengths in all, split otherwise
    ):
        message = f"parents come from different spaces: genome shapes {shape(x)} and {shape(y)}"
        for rng in (random.Random(0), ScriptedWords([])):
            state = rng.getstate() if isinstance(rng, random.Random) else None
            with pytest.raises(ValidationError) as caught:
                crossover(x, y, rng)
            assert str(caught.value) == message
            assert (rng.getstate() == state) if state else rng.used == 0
    for x in (stages, replace(a, stage_depths=a.stage_depths[:4])):
        rng = ScriptedWords([])
        with pytest.raises(ValidationError, match="depths, .* kernel and .* expand stages"):
            crossover(x, x, rng)
        assert rng.used == 0


def test_canonical_text_is_built_once_and_never_stale(space):
    # each config keeps the text it built first; a replaced config, a copy
    # and a pickle round trip, made before or after that text was built,
    # and an equal config of the other gene types each give their own
    def dumps(config):
        return json.dumps(config.to_json_dict(), sort_keys=True, separators=(",", ":"))

    a, b = int_and_float_configs(space)
    derived = [replace(a, expands=b.expands), copy.copy(a), pickle.loads(pickle.dumps(b))]
    assert a.canonical_json() is a.canonical_json()
    assert b.canonical_json() is b.canonical_json()
    derived += [
        replace(a, expands=b.expands), replace(b, expands=a.expands), replace(a),
        copy.copy(a), copy.copy(b), pickle.loads(pickle.dumps(a)), pickle.loads(pickle.dumps(b)),
    ]
    for config in [a, b] + derived:
        assert config == a and config.canonical_json() == dumps(config)
    assert a.canonical_json() != b.canonical_json()


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
    if how == "float-depth":
        depths = tuple(float(d) if i == s else d for i, d in enumerate(config.stage_depths))
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
    if how == "list-stages":
        return replace(config, expands=list(config.expands))
    if how == "list-depths":
        return replace(config, stage_depths=list(config.stage_depths))
    if how == "list-resolution":
        return replace(config, resolution=[config.resolution])
    return config


class TestFastValidate:
    """``validate`` answers a valid config by set lookups and walks every
    other one; the walk is the reference for the verdict and the messages."""

    HASHABLE = ("valid", "resolution", "depth", "float-depth", "kernel", "expand",
                "short-slots", "short-stages", "short-depths")

    @settings(max_examples=300)
    @given(space=spaces(), seed=SEEDS, how=st.sampled_from(HASHABLE), where=st.integers(0, 99))
    def test_fast_verdict_matches_the_walk(self, space, seed, how, where):
        config = corrupt(sample_uniform(space, seed), space, how, where)
        assert _is_valid(config, space) == (_violations(config, space) == [])
        assert validate(config, space) == _violations(config, space)

    UNHASHABLE = ("list-slots", "list-stages", "list-depths", "list-resolution")

    @given(space=spaces(), seed=SEEDS, how=st.sampled_from(UNHASHABLE), where=st.integers(0, 99))
    def test_unhashable_values_are_walked(self, space, seed, how, where):
        config = corrupt(sample_uniform(space, seed), space, how, where)
        assert not _is_valid(config, space)
        assert validate(config, space) == _violations(config, space)
        violation = {
            "list-slots": f"stages[{where % space.num_stages}].kernels: expected a tuple, got list",
            "list-stages": "expands: expected a tuple, got list",
            "list-depths": "stage_depths: expected a tuple, got list",
            "list-resolution": f"resolution: {config.resolution!r} not in resolution_options "
            f"{list(space.resolution_options)}",
        }[how]
        assert violation in validate(config, space)

    @pytest.mark.parametrize("field", ["kernels", "expands", "stage_depths", "slots"])
    @pytest.mark.parametrize("call", ["encode", "predict", "resolve", "synthetic_score"])
    def test_lists_in_place_of_tuples_raise_validation_error(self, space, field, call):
        # each caller of require_valid names the list, where a table lookup
        # or a search's reuse table would raise TypeError
        c = maximal_config(space)
        if field == "slots":
            bad = replace(c, kernels=(c.kernels[0], list(c.kernels[1])) + c.kernels[2:])
            message = "stages[1].kernels: expected a tuple, got list"
        else:
            bad = replace(c, **{field: list(getattr(c, field))})
            message = f"{field}: expected a tuple, got list"
        model = PredictorModel((0.0,) * feature_length(space), 0.0, 0.0, 0, 0)
        run = {
            "encode": lambda: predictor.encode(bad, space),
            "predict": lambda: predictor.predict(model, bad, space),
            "resolve": lambda: resolve(bad, space),
            "synthetic_score": lambda: synthetic_score(bad, space),
        }[call]
        with pytest.raises(ValidationError) as exc:
            run()
        assert str(exc.value) == message

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


def reference_resolve(config, space, include_classifier=False):
    """``resolve`` laid out afresh on every call, each stage by
    ``planner.stage_shapes``: the reference for the shapes ``resolve``
    reads from ``block_table``."""
    require_valid(config, space)
    sched = space.schedule
    blocks, labels = [], []
    prev_width = sched.stem_width
    for s, (width, depth) in enumerate(zip(sched.stage_widths, config.stage_depths)):
        genes = zip(config.kernels[s][:depth], config.expands[s][:depth])
        downsample = s < space.num_stages - 1
        blocks += stage_shapes(prev_width, width, config.resolution >> (s + 1), downsample, genes)
        labels += [f"stage{s + 1}.block{j}" for j in range(1, depth + 1)]
        prev_width = width
    return NetworkSkeleton(
        resolution=config.resolution,
        stem_width=sched.stem_width,
        blocks=tuple(blocks),
        head_width=sched.head_width,
        include_classifier=include_classifier,
        block_labels=tuple(labels),
    )


def reference_flops(skeleton):
    """The FLOPs formula of ``flops_estimate``, each block counted afresh
    by ``block_flops``."""
    half = skeleton.resolution // 2
    last = skeleton.blocks[-1]
    o = last.output_size
    macs = 9 * 3 * skeleton.stem_width * half * half + last.c_out * skeleton.head_width * o * o
    if skeleton.include_classifier:
        macs += skeleton.head_width * skeleton.num_classes
    return 2 * macs + sum(block_flops(b) for b in skeleton.blocks)


def table_shapes(space):
    """Every shape of the space's block table."""
    return [
        shape
        for stages in space.block_table.values()
        for first, inner, _ in stages
        for shapes in (first, inner)
        for by_expand in shapes.values()
        for shape in by_expand.values()
    ]


class TestBlockTable:
    """``resolve`` reads shared shapes from ``SupernetSpace.block_table``;
    laying the stages out on every call is the reference."""

    @settings(max_examples=300)
    @given(space=spaces(), seed=SEEDS, include_classifier=st.booleans())
    def test_resolve_equals_the_per_call_layout(self, space, seed, include_classifier):
        config = sample_uniform(space, seed)
        fast = resolve(config, space, include_classifier)
        slow = reference_resolve(config, space, include_classifier)
        assert fast == slow
        assert profile_network(fast) == profile_network(slow)
        # the reference's shapes are built afresh, so their FLOPs are counted
        # on this call, by the formula
        assert flops_estimate(fast) == flops_estimate(slow) == reference_flops(slow)

    INVALID = [h for h in TestFastValidate.HASHABLE if h != "valid"]

    @given(space=spaces(), seed=SEEDS,
           how=st.sampled_from(INVALID + list(TestFastValidate.UNHASHABLE)),
           where=st.integers(0, 99))
    def test_an_invalid_config_raises_the_reference_error(self, space, seed, how, where):
        config = corrupt(sample_uniform(space, seed), space, how, where)
        with pytest.raises(ValidationError) as by_reference:
            reference_resolve(config, space)
        with pytest.raises(ValidationError) as by_table:
            resolve(config, space)
        assert str(by_table.value) == str(by_reference.value)

    def test_a_space_of_depth_one_has_no_inner_shapes(self):
        space = tiny_space(depths=(1,), kernels=(3, 5), expands=(2, 3))
        for s, (first, inner, labels) in enumerate(space.block_table[64]):
            assert inner == {} and labels == {1: (f"stage{s + 1}.block1",)}
            assert [list(by_expand) for by_expand in first.values()] == [[2, 3], [2, 3]]

    @given(space=spaces())
    def test_a_cached_count_leaves_the_shape_as_it_was(self, space):
        for shape in table_shapes(space):
            fresh = MBBlockShape(
                shape.c_in, shape.c_out, shape.expand, shape.kernel, shape.stride,
                shape.input_size,
            )
            assert shape.flops == block_flops(fresh)
            assert "flops" in vars(shape) and "flops" not in vars(fresh)
            copy = pickle.loads(pickle.dumps(shape))
            for twin in (shape, replace(shape), copy):
                assert twin == fresh
                assert (hash(twin), repr(twin)) == (hash(fresh), repr(fresh))
            assert "flops" not in vars(replace(shape))
            assert copy.flops == fresh.flops

    @given(space=spaces())
    def test_tables_read_the_memory_terms_of_block_memory(self, space):
        # memory.py alone reduces layer records: each shape keeps the peak
        # and the sum of its block_memory totals, and the peak table reads
        # them, and memory's stem and head records, without profiling
        for shape in table_shapes(space):
            totals = [m.total_items for m in block_memory(shape)]
            assert (shape.peak_items, shape.layer_sum) == (max(totals), sum(totals))
            assert {"peak_items", "layer_sum"} <= set(vars(shape))
        widest = maximal_config(space)
        for r, (base, _, stages) in space.peak_table.items():
            records = profile_network(resolve(replace(widest, resolution=r), space)).records
            assert base == max(records[0].total_items, records[-1].total_items)
            for (first, inner, _), peaks in zip(space.block_table[r], stages, strict=True):
                for shapes, terms in zip((first, inner), peaks, strict=True):
                    assert terms == {
                        k: {e: b.peak_items for e, b in by_expand.items()}
                        for k, by_expand in shapes.items()
                    }

    def test_equal_blocks_share_one_shape(self, space):
        # the maximal config's later blocks in a stage are all one object
        skeleton = resolve(maximal_config(space), space)
        md = space.max_depth
        for s in range(space.num_stages):
            inner = skeleton.blocks[s * md + 1 : (s + 1) * md]
            assert all(b is inner[0] for b in inner)
        assert resolve(maximal_config(space), space).blocks[0] is skeleton.blocks[0]


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
        with pytest.raises(ValidationError) as by_repair:
            FeasibleSet(space, max_peak_items(space)).repair(bad, random.Random(seed))
        assert str(by_repair.value) == str(by_resolve.value)


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


# what a mangled config's JSON may hold in place of a field or a gene
JSON_STAND_INS = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(1, 9), max_size=4),
    st.dictionaries(st.sampled_from(["depth", "kernels", "expands", "x"]), st.integers(1, 9)),
)


def json_paths(value, path=()):
    """The path of ``value`` and of every field and list element in it."""
    yield path
    if isinstance(value, (dict, list)):
        for key, inner in value.items() if isinstance(value, dict) else enumerate(value):
            yield from json_paths(inner, path + (key,))


@st.composite
def mangled_config_json(draw):
    """A drawn config's parsed JSON with one to three fields or genes deleted
    or replaced by a stand-in of another JSON type, or left as it is."""
    d = json.loads(json.dumps(sample_uniform(draw(spaces()), draw(SEEDS)).to_json_dict()))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(json_paths(d))))
        value = draw(JSON_STAND_INS)
        if not path:
            d = value
            continue
        holder = reduce(getitem, path[:-1], d)
        if draw(st.booleans()):
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
    return d


class TestJsonRoundTrip:
    @settings(max_examples=300)
    @given(d=mangled_config_json())
    def test_one_pass_read_is_the_field_walk(self, d):
        # the one-pass reader returns the walk's config, or raises its error
        try:
            expected = SubnetConfig._from_json_walk(d)
        except FieldError as exc:
            with pytest.raises(FieldError) as raised:
                SubnetConfig.from_json_dict(d)
            assert str(raised.value) == str(exc)
            return
        config = SubnetConfig.from_json_dict(d)
        assert config == expected and repr(config) == repr(expected)

    def test_an_integral_float_expand_reads_as_its_int(self, space):
        # 4.0 equals the option 4: read as the int, the config writes the
        # text of the config that holds 4, and so gets its noisy score
        config = maximal_config(space)
        d = config.to_json_dict()
        d["stages"][1]["expands"][2] = 4.0
        for read in (SubnetConfig.from_json_dict, SubnetConfig._from_json_walk):
            got = read(d)
            assert got == config and got.canonical_json() == config.canonical_json()
            assert synthetic_score(got, space, 7) == synthetic_score(config, space, 7)
        d["stages"][1]["expands"][2] = 2.5
        assert SubnetConfig.from_json_dict(d).expands[1][2] == 2.5

    def test_a_space_of_integral_float_expands_reads_them_as_ints(self, space):
        # a config drawn from the space read back writes the same text
        d = space.to_json_dict()
        d["expand_options"] = [2.0, 3.0, 4.0]
        read = SupernetSpace.from_json_dict(json.loads(json.dumps(d)))
        assert read == space and list(map(type, read.expand_options)) == [int] * 3
        config = sample_uniform(read, 5)
        text = config.canonical_json()
        assert SubnetConfig.from_json_dict(json.loads(text)).canonical_json() == text

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
