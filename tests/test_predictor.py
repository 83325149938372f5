"""Feature encoding, balanced datasets, the ridge surrogate, and the
synthetic scoring oracle."""

import gc
import hashlib
import io
import json
import math
import random
import re
import weakref
from dataclasses import replace
from operator import getitem

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import spearmanr
from test_space import SEEDS, spaces, tiny_space

import memnas.predictor as predictor_module
from memnas.errors import InfeasibleError, ValidationError
from memnas.predictor import (
    ALPHA,
    BETA,
    Dataset,
    DatasetRow,
    PredictorModel,
    _hot_positions,
    balanced_sample,
    bucket_index,
    encode,
    feature_length,
    predict,
    synthetic_score,
    train,
)
from memnas.feasible import FeasibleSet, max_peak_items
from memnas.planner import ChannelSchedule
from memnas.space import (
    SubnetConfig,
    SupernetSpace,
    config_peak_items,
    default_space,
    maximal_config,
    require_valid,
    sample_uniform,
    _sample_with,
)


@pytest.fixture(scope="module")
def space():
    return default_space()


def replace_gene(config, *, kernels=None, expands=None, depths=None, resolution=None):
    return SubnetConfig(
        resolution=resolution or config.resolution,
        stage_depths=depths or config.stage_depths,
        kernels=kernels or config.kernels,
        expands=expands or config.expands,
    )


def reference_encode(config, space):
    """The one-hot vector built slot by slot with ``tuple.index``."""
    vec = np.zeros(feature_length(space))
    pos = 0
    vec[pos + space.resolution_options.index(config.resolution)] = 1.0
    pos += len(space.resolution_options)
    for s in range(space.num_stages):
        depth = config.stage_depths[s]
        vec[pos + space.depth_options.index(depth)] = 1.0
        pos += len(space.depth_options)
        for j in range(space.max_depth):
            if j < depth:
                vec[pos + space.kernel_options.index(config.kernels[s][j])] = 1.0
            pos += len(space.kernel_options)
            if j < depth:
                vec[pos + space.expand_options.index(config.expands[s][j])] = 1.0
            pos += len(space.expand_options)
    return vec


class TestEncode:
    @given(space=spaces(), seed=SEEDS)
    def test_matches_the_reference(self, space, seed):
        config = sample_uniform(space, seed)
        vec, ref = encode(config, space), reference_encode(config, space)
        assert vec.dtype == ref.dtype and vec.shape == ref.shape
        assert vec.tobytes() == ref.tobytes()

    def test_length_and_block_structure(self, space):
        vec = encode(maximal_config(space), space)
        assert len(vec) == feature_length(space) == 139
        assert vec.sum() == 1 + 5 * (1 + 4 * 2)  # one hot per active block

    def test_one_kernel_slot_changes_one_block(self, space):
        c = maximal_config(space)
        kernels = [list(k) for k in c.kernels]
        kernels[2][1] = 3
        c2 = replace_gene(c, kernels=tuple(tuple(k) for k in kernels))
        diff = np.flatnonzero(encode(c, space) != encode(c2, space))
        # both one-hots live inside the same kernel block
        assert len(diff) == 2
        assert diff[1] - diff[0] < len(space.kernel_options)

    def test_inert_slot_is_invisible(self, space):
        rng = random.Random(0)
        for _ in range(50):
            c = sample_uniform(space, rng.randrange(2 ** 63))
            kernels = [list(k) for k in c.kernels]
            expands = [list(e) for e in c.expands]
            changed = False
            for s in range(space.num_stages):
                for j in range(c.stage_depths[s], space.max_depth):
                    kernels[s][j] = rng.choice(space.kernel_options)
                    expands[s][j] = rng.choice(space.expand_options)
                    changed = True
            c2 = replace_gene(
                c,
                kernels=tuple(tuple(k) for k in kernels),
                expands=tuple(tuple(e) for e in expands),
            )
            if changed:
                assert np.array_equal(encode(c, space), encode(c2, space))

    def test_injective_on_active_genes(self, space):
        rng = random.Random(1)
        seen = {}
        for _ in range(500):
            c = sample_uniform(space, rng.randrange(2 ** 63))
            key = encode(c, space).tobytes()
            # different encodings imply different active genomes; same active
            # genome must encode identically
            active = (
                c.resolution,
                c.stage_depths,
                tuple(k[: d] for k, d in zip(c.kernels, c.stage_depths)),
                tuple(e[: d] for e, d in zip(c.expands, c.stage_depths)),
            )
            if key in seen:
                assert seen[key] == active
            seen[key] = active

    def test_maximal_config_hits_last_option_indices(self, space):
        vec = encode(maximal_config(space), space)
        assert vec[len(space.resolution_options) - 1] == 1.0
        assert vec[: len(space.resolution_options) - 1].sum() == 0


def reference_train(dataset, space, l2):
    """Ridge least squares on the stacked ``reference_encode`` vectors, with
    the intercept column and the ridge block joined by ``np.hstack`` and
    ``np.vstack``: the reference for ``train``'s system built in place."""
    phi = np.stack([reference_encode(row.config, space) for row in dataset.rows])
    y = np.array([row.score for row in dataset.rows])
    n_feat = phi.shape[1]
    design = np.hstack([phi, np.ones((phi.shape[0], 1))])
    if l2 > 0:
        reg = np.zeros((n_feat, n_feat + 1))
        reg[:, :n_feat] = math.sqrt(l2) * np.eye(n_feat)
        design = np.vstack([design, reg])
        y = np.concatenate([y, np.zeros(n_feat)])
    solution, *_ = np.linalg.lstsq(design, y, rcond=None)
    return tuple(float(w) for w in solution[:n_feat]), float(solution[n_feat])


class TestHotIndices:
    """``train``'s system, each row's features written in place from
    ``encode``, against the one stacked from the reference encoding."""

    SPACES = {
        "default": {},
        "rational expands": dict(expand_options=(1.5, 2, 2.5)),
        "depth 1": dict(depth_options=(1,), kernel_options=(3, 5)),
    }

    @pytest.mark.parametrize("name", sorted(SPACES))
    @pytest.mark.parametrize("l2", [0.0, 0.3, 1.0])
    def test_train_equals_the_reference(self, space, name, l2):
        small = replace(space, **self.SPACES[name])
        ds = balanced_sample(
            small, 200, 2, rng_seed=5, scorer=lambda c: synthetic_score(c, small, noise_seed=5)
        )
        model = train(ds, small, l2=l2)
        assert (model.weights, model.intercept) == reference_train(ds, small, l2)

    def test_an_invalid_row_raises_encodes_error(self, space):
        good = maximal_config(space)
        bad = replace_gene(good, resolution=200)
        with pytest.raises(ValidationError) as expected:
            encode(bad, space)
        with pytest.raises(ValidationError, match=re.escape(str(expected.value))):
            train(Dataset((DatasetRow(good, 0, 1.0), DatasetRow(bad, 0, 2.0)), ()), space, 1.0)


def reference_hot_positions(config, space):
    """Every active gene mapped through its own slot's map of
    ``one_hot_positions``, gene by gene: the reference for the slot tables."""
    require_valid(config, space)
    resolution_at, stages, _ = space.one_hot_positions
    hot = [resolution_at[config.resolution]]
    for (depth_at, kernel_at, expand_at, _), depth, ks, es in zip(
        stages, config.stage_depths, config.kernels, config.expands
    ):
        hot.append(depth_at[depth])
        hot += map(getitem, kernel_at[:depth], ks)
        hot += map(getitem, expand_at[:depth], es)
    return hot


def slot_tables(space):
    """Each slot table of ``space`` with the option count of its kind."""
    for _, _, _, by_depth in space.one_hot_positions[1]:
        for kernel_table, expand_table in by_depth.values():
            yield kernel_table, len(space.kernel_options)
            yield expand_table, len(space.expand_options)


class TestSlotTables:
    """``_hot_positions`` reads whole slot tuples from per-stage tables that
    fill on first use; the gene-by-gene walk is the reference."""

    @given(space=spaces(), seed=SEEDS)
    def test_a_miss_and_a_hit_equal_the_walk(self, space, seed):
        config = _sample_with(space, random.Random(seed))
        reference = reference_hot_positions(config, space)
        assert not any(table for table, _ in slot_tables(space))  # so the first call misses
        assert _hot_positions(config, space) == reference
        for (_, _, _, by_depth), depth, ks, es in zip(
            space.one_hot_positions[1], config.stage_depths, config.kernels, config.expands
        ):
            kernel_table, expand_table = by_depth[depth]
            assert ks in kernel_table and es in expand_table
        assert _hot_positions(config, space) == reference  # a hit

    @pytest.mark.parametrize("name", sorted(TestHotIndices.SPACES))
    def test_tables_stay_within_their_bound(self, space, name):
        small = replace(space, **TestHotIndices.SPACES[name])
        rng = random.Random(7)
        for _ in range(3000):
            config = _sample_with(small, rng)
            assert _hot_positions(config, small) == reference_hot_positions(config, small)
        for table, options in slot_tables(small):
            assert 0 < len(table) <= options ** small.max_depth

    def test_an_out_of_space_inert_gene_raises_after_a_hit(self, space):
        config = replace_gene(maximal_config(space), depths=(2,) * space.num_stages)
        encode(config, space)  # fills the tables for its slot tuples
        inert = tuple((*ks[:-1], 9) for ks in config.kernels)
        bad = replace_gene(config, kernels=inert)
        with pytest.raises(ValidationError, match=re.escape("stages[0].kernels[3]: 9 not in")):
            _hot_positions(bad, space)
        with pytest.raises(ValidationError, match=re.escape("stages[0].kernels[3]: 9 not in")):
            encode(bad, space)

    def test_an_oversized_slot_tuple_set_stores_nothing(self):
        # 17 kernel options at max depth 4 make 83,521 kernel slot tuples,
        # past the 65,536 that ``_valid_genes`` holds; one expand option
        # makes one expand slot tuple
        big = tiny_space(depths=(1, 2, 3, 4), kernels=tuple(range(11, 45, 2)), stages=2)
        assert not big._valid_genes[2] and big._valid_genes[3]
        rng = random.Random(11)
        for _ in range(200):
            config = _sample_with(big, rng)
            assert _hot_positions(config, big) == reference_hot_positions(config, big)
        for table, options in slot_tables(big):
            assert len(table) == (0 if options == 17 else 1)


class TestBalancedSample:
    def test_single_bucket_is_plain_uniform(self, space):
        ds = balanced_sample(space, 40, 1, rng_seed=3, scorer=lambda c: 1.5)
        assert len(ds.rows) == 40
        assert all(r.score == 1.5 for r in ds.rows)
        # one bucket spans every peak, so its rows are the stream of exact
        # uniform draws from the whole space, none rejected
        everything = FeasibleSet(space, max_peak_items(space))
        assert everything.count == len(space.resolution_options) * 9 ** (4 * 5) * 3 ** 5
        rng = random.Random(3)
        expected = [_sample_with(space, rng, everything) for _ in range(40)]
        assert [r.config for r in ds.rows] == expected

    def test_bucket_occupancy_within_one(self, space):
        ds = balanced_sample(space, 205, 10, rng_seed=5, scorer=lambda c: 0.0)
        occ = [0] * 10
        for r in ds.rows:
            occ[bucket_index(r.peak_items, ds.bucket_edges)] += 1
        assert max(occ) - min(occ) <= 1
        assert sum(occ) == 205
        # a peak on an edge opens the bucket above it; the span's ends clamp
        edges = ds.bucket_edges
        assert [bucket_index(e, edges) for e in edges] == list(range(10)) + [9]
        assert bucket_index(edges[0] - 1, edges) == 0
        assert bucket_index(edges[-1] + 1, edges) == 9

    def test_low_bucket_grows_versus_unbalanced(self, space):
        ds = balanced_sample(space, 400, 10, rng_seed=11, scorer=lambda c: 0.0)
        occ = [0] * 10
        for r in ds.rows:
            occ[bucket_index(r.peak_items, ds.bucket_edges)] += 1
        rng = random.Random(11)
        unbalanced = [0] * 10
        for _ in range(400):
            c = _sample_with(space, rng)
            unbalanced[bucket_index(config_peak_items(c, space), ds.bucket_edges)] += 1
        assert occ[0] > unbalanced[0]

    def test_one_draw_per_row(self, space, monkeypatch):
        draws, sample_with = [], predictor_module._sample_with

        def counted(*args):
            draws.append(args)
            return sample_with(*args)

        monkeypatch.setattr(predictor_module, "_sample_with", counted)
        ds = balanced_sample(space, 1000, 10, rng_seed=0, scorer=lambda c: 0.0)
        assert len(ds.rows) == len(draws) == 1000

    def test_rows_carry_fresh_peaks(self, space):
        ds = balanced_sample(space, 50, 5, rng_seed=7, scorer=lambda c: 0.0)
        for r in ds.rows:
            assert r.peak_items == config_peak_items(r.config, space)

    def test_empty_buckets_raise_before_drawing(self, monkeypatch):
        # one option per gene: the two resolutions give the only two peaks,
        # so the eight buckets between the lowest and the highest hold none
        tiny = SupernetSpace(
            schedule=ChannelSchedule(stem_width=8, stage_widths=(8, 8), head_width=8, divisor=8),
            num_stages=2,
            depth_options=(1,),
            kernel_options=(3,),
            expand_options=(2,),
            resolution_options=(32, 64),
        )
        draws = []
        monkeypatch.setattr(predictor_module, "_sample_with", lambda *a: draws.append(a))
        empty = re.escape("bucket(s) [1, 2, 3, 4, 5, 6, 7, 8]")
        with pytest.raises(InfeasibleError, match=empty):
            balanced_sample(tiny, 100, 10, rng_seed=1, scorer=lambda c: 0.0)
        assert draws == []

    def test_jsonl_roundtrip(self, space):
        ds = balanced_sample(space, 20, 2, rng_seed=9, scorer=lambda c: 0.25)
        buf = io.StringIO()
        ds.write_jsonl(buf)
        buf.seek(0)
        back = Dataset.read_jsonl(buf)
        assert back.rows == ds.rows

    @pytest.mark.parametrize(
        "buckets, noise_seed, digest",
        [
            # what ``memnas sample --n 1000 --buckets 2 --seed 0`` writes
            (2, 0, "dcd7aa03657ae3a6de99d4ace9a19fa3e35183e5230e68f5108a54a97346af81"),
            (10, None, "925846f4a1edf42dcdab0315dc39f6d7920970f64e68815d456b5232213055f2"),
        ],
    )
    def test_oracle_datasets_are_pinned(self, space, buckets, noise_seed, digest):
        ds = balanced_sample(
            space, 1000, buckets, rng_seed=0,
            scorer=lambda c: synthetic_score(c, space, noise_seed=noise_seed),
        )
        buf = io.StringIO()
        ds.write_jsonl(buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


@st.composite
def dataset_rows(draw):
    """Rows of any space, rational expands included, with a resolution,
    ``peak_items`` and a score up to 2**80 and a score that may be NaN or
    infinite."""
    config = sample_uniform(draw(spaces()), draw(SEEDS))
    big = st.integers(-(2 ** 80), 2 ** 80)
    config = replace(config, resolution=draw(st.one_of(st.just(config.resolution), big)))
    score = draw(st.one_of(st.floats(), big, st.sampled_from([math.nan, math.inf, -math.inf])))
    return DatasetRow(config, draw(st.integers(0, 2 ** 80)), score)


class TestDatasetJsonl:
    """``write_jsonl``, which builds each line directly, against the
    ``json.dumps`` it replaces, and ``read_jsonl`` on undecodable bytes."""

    @given(rows=st.lists(dataset_rows(), max_size=4))
    def test_lines_are_json_dumps(self, rows):
        # each row is written fresh, and again with its config's canonical
        # text built first, as the noisy oracle builds it
        expected = [json.dumps(row.to_json_dict(), sort_keys=True) for row in rows] + [""]
        fresh = tuple(replace(row, config=replace(row.config)) for row in rows)
        for row in rows:
            row.config.canonical_json()
        for written in (fresh, tuple(rows)):
            buf = io.StringIO()
            Dataset(written, ()).write_jsonl(buf)
            assert buf.getvalue().split("\n") == expected

    def test_training_on_the_round_trip_gives_the_same_model(self, space):
        ds = balanced_sample(
            space, 300, 3, rng_seed=4, scorer=lambda c: synthetic_score(c, space, noise_seed=4)
        )
        buf = io.StringIO()
        ds.write_jsonl(buf)
        buf.seek(0)
        back = Dataset.read_jsonl(buf)
        assert train(back, space, l2=1.0) == train(ds, space, l2=1.0)

    @pytest.mark.parametrize("bad_line", [1, 3, 250, 300])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, space, bad_line):
        # 300 rows span several of the text reader's 8 KiB chunks, so the
        # line is found past the lines already read
        ds = balanced_sample(space, 300, 1, rng_seed=0, scorer=lambda c: 0.5)
        buf = io.StringIO()
        ds.write_jsonl(buf)
        lines = buf.getvalue().encode().splitlines(keepends=True)
        lines[bad_line - 1] = lines[bad_line - 1][:20] + b"\xff" + lines[bad_line - 1][20:]
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"".join(lines))
        message = f"line {bad_line}: not UTF-8: invalid start byte, byte 0xff"
        with open(path, encoding="utf-8") as fh:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                Dataset.read_jsonl(fh)


def linear_rows(space, n, seed):
    """Rows whose scores are an exact affine function of the encoding."""
    rng = random.Random(seed)
    rows = []
    w = None
    for _ in range(n):
        c = sample_uniform(space, rng.randrange(2 ** 63))
        vec = encode(c, space)
        if w is None:
            w = np.linspace(-1, 1, len(vec))
        rows.append(DatasetRow(c, 0, float(vec @ w + 0.5)))
    return Dataset(tuple(rows), ())


class TestTrain:
    def test_exact_linear_target_fits_to_tolerance(self, space):
        ds = linear_rows(space, 300, seed=2)
        model = train(ds, space, l2=0.0)
        for row in ds.rows[:50]:
            assert abs(predict(model, row.config, space) - row.score) <= 1e-6

    def test_large_l2_collapses_to_mean(self, space):
        ds = linear_rows(space, 200, seed=3)
        model = train(ds, space, l2=1e6)
        mean = sum(r.score for r in ds.rows) / len(ds.rows)
        spread = max(abs(r.score - mean) for r in ds.rows)
        for row in ds.rows[:40]:
            assert abs(predict(model, row.config, space) - mean) < 0.05 * spread

    def test_deterministic_weights(self, space):
        ds = linear_rows(space, 150, seed=4)
        m1 = train(ds, space, l2=0.5)
        m2 = train(ds, space, l2=0.5)
        assert m1.weights == m2.weights and m1.intercept == m2.intercept

    def test_identical_rows_without_ridge_is_singular(self, space):
        c = maximal_config(space)
        ds = Dataset(tuple(DatasetRow(c, 0, 1.0) for _ in range(10)), ())
        with pytest.raises(ValidationError, match="singular"):
            train(ds, space, l2=0.0)
        # a ridge term makes it well-posed again
        train(ds, space, l2=0.1)

    def test_empty_dataset_rejected(self, space):
        with pytest.raises(ValidationError):
            train(Dataset((), ()), space, l2=1.0)

    def test_holdout_rank_correlation(self, space):
        rng = random.Random(6)
        rows = []
        for _ in range(2000):
            c = sample_uniform(space, rng.randrange(2 ** 63))
            rows.append(
                DatasetRow(c, 0, synthetic_score(c, space, noise_seed=1))
            )
        model = train(Dataset(tuple(rows[:1600]), ()), space, l2=1.0)
        preds = [predict(model, r.config, space) for r in rows[1600:]]
        rho = spearmanr(preds, [r.score for r in rows[1600:]]).statistic
        assert rho >= 0.8


def random_model(space, rng, integral):
    """A model of ``space`` with weights drawn from ``rng``: integers in
    [-9, 9] if ``integral``, else floats in [-1e3, 1e3]."""
    draw = (lambda: rng.randint(-9, 9)) if integral else (lambda: rng.uniform(-1e3, 1e3))
    weights = tuple(draw() for _ in range(feature_length(space)))
    return PredictorModel(weights, rng.uniform(-5, 5), 1.0, 0, 1)


def reference_predict(model, config, space):
    """``predict``'s documented sum, from ``model.weights`` at the positions
    of ``reference_hot_positions``: the resolution's weight; per stage
    ``(depth weight + kernel sum) + expand sum``, each slot sum added left
    to right from 0.0; then the intercept."""
    hot = reference_hot_positions(config, space)
    assert sorted(hot) == np.flatnonzero(encode(config, space)).tolist()
    weights = [float(w) for w in model.weights]
    total, at = weights[hot[0]], 1
    for depth in config.stage_depths:
        kernel_sum = expand_sum = 0.0
        for p in hot[at + 1 : at + 1 + depth]:
            kernel_sum += weights[p]
        for p in hot[at + 1 + depth : at + 1 + 2 * depth]:
            expand_sum += weights[p]
        total += weights[hot[at]] + kernel_sum + expand_sum
        at += 1 + 2 * depth
    return total + model.intercept


def assert_predicts_the_documented_sum(model, config, space):
    """``predict`` equals ``reference_predict`` bit for bit, and ``np.dot``
    over the one-hot vector within 1e-12 of the sum of the absolute terms."""
    got = predict(model, config, space)
    assert got.hex() == reference_predict(model, config, space).hex()
    vec = encode(config, space)
    dot = float(np.dot(np.array(model.weights), vec) + model.intercept)
    scale = abs(model.intercept) + float(np.dot(np.abs(np.array(model.weights)), vec))
    assert abs(got - dot) <= 1e-12 * scale


def slot_sums(model, space):
    """Each slot-sum table of the model's table for ``space``."""
    for _, _, _, by_depth in predictor_module._weight_table(model, space)[1]:
        for kernel_sums, expand_sums in by_depth.values():
            yield kernel_sums
            yield expand_sums


#: spaces built on call: rational expands, and so many kernel and expand
#: slot tuples (17 options each at max depth 4: 83,521) that
#: ``_valid_genes`` holds none and no slot sum is stored
ODD_SPACES = {
    "rational expands": lambda: replace(default_space(), expand_options=(1.5, 2, 2.5)),
    "no slot tuple stored": lambda: tiny_space(
        depths=(1, 2, 3, 4), kernels=tuple(range(11, 45, 2)), expands=tuple(range(1, 18)),
        stages=2,
    ),
}


class TestPredict:
    def test_affine_superposition(self, space):
        ds = linear_rows(space, 200, seed=5)
        model = train(ds, space, l2=0.01)
        w = np.array(model.weights)
        rng = random.Random(7)
        for _ in range(20):
            a = sample_uniform(space, rng.randrange(2 ** 63))
            b = sample_uniform(space, rng.randrange(2 ** 63))
            va, vb = encode(a, space), encode(b, space)
            mix = 0.3 * va + 0.7 * vb
            assert float(mix @ w + model.intercept) == pytest.approx(
                0.3 * (va @ w + model.intercept) + 0.7 * (vb @ w + model.intercept)
            )

    def test_deterministic_and_matches_batch(self, space):
        ds = linear_rows(space, 100, seed=8)
        model = train(ds, space, l2=0.1)
        configs = [r.config for r in ds.rows[:30]]
        batch = [predict(model, c, space) for c in configs]
        for c, expected in zip(configs, batch):
            assert predict(model, c, space) == expected

    def test_feature_length_mismatch_rejected(self, space):
        ds = linear_rows(space, 50, seed=9)
        model = train(ds, space, l2=0.1)
        clipped = model.__class__(
            weights=model.weights[:-1],
            intercept=model.intercept,
            l2=model.l2,
            seed=model.seed,
            rows=model.rows,
        )
        message = "model has 138 weights but the space encodes 139 features"
        with pytest.raises(ValidationError, match=message):
            predict(clipped, maximal_config(space), space)

    @given(space=spaces(), seed=SEEDS, integral=st.booleans())
    def test_equals_the_documented_sum(self, space, seed, integral):
        rng = random.Random(seed)
        model = random_model(space, rng, integral)
        config = sample_uniform(space, seed)
        for _ in range(2):  # the first call builds the model's table, the second reads it
            assert_predicts_the_documented_sum(model, config, space)

    @pytest.mark.parametrize("name", sorted(ODD_SPACES))
    def test_equals_the_documented_sum_on_odd_spaces(self, name):
        odd = ODD_SPACES[name]()
        model = random_model(odd, random.Random(1), integral=False)
        rng = random.Random(2)
        for _ in range(300):
            assert_predicts_the_documented_sum(model, _sample_with(odd, rng), odd)
        stored = [len(t) for t in slot_sums(model, odd)]
        assert all(stored) if name == "rational expands" else not any(stored)

    def test_one_model_on_two_spaces_in_turn(self, space):
        # the same feature length, laid out differently: a table kept for
        # one space and served for the other gives other sums
        a = replace(space, kernel_options=(3, 5), expand_options=(2, 3, 4))
        b = replace(space, kernel_options=(3, 5, 7), expand_options=(2, 3))
        both = replace(space, kernel_options=(3, 5), expand_options=(2, 3))
        assert feature_length(a) == feature_length(b)
        model = random_model(a, random.Random(3), integral=False)
        rng = random.Random(4)
        configs = [_sample_with(both, rng) for _ in range(50)]
        for turn in (a, b, a, b):
            for config in configs:
                assert_predicts_the_documented_sum(model, config, turn)

    def test_the_table_holds_no_reference_to_the_space(self, space):
        fresh = replace(space)
        model = random_model(fresh, random.Random(5), integral=False)
        predict(model, maximal_config(fresh), fresh)
        gone = weakref.ref(fresh)
        del fresh
        gc.collect()
        assert gone() is None

    def test_an_invalid_config_raises_before_the_table_is_built(self, space):
        fresh = replace(space)
        model = random_model(fresh, random.Random(6), integral=False)
        bad = replace_gene(maximal_config(fresh), resolution=200)
        with pytest.raises(ValidationError, match=re.escape("resolution: 200 not in")):
            predict(model, bad, fresh)
        assert "_weight_table" not in vars(model)

    def test_batch_predict_throughput(self, space):
        import time

        ds = linear_rows(space, 100, seed=10)
        model = train(ds, space, l2=0.1)
        rng = random.Random(11)
        configs = [sample_uniform(space, rng.randrange(2 ** 63)) for _ in range(10_000)]
        start = time.perf_counter()
        out = [predict(model, c, space) for c in configs]
        elapsed = time.perf_counter() - start
        assert len(out) == 10_000
        # comfortably implies 1e5 within seconds
        assert elapsed < 3.0


class TestSyntheticScore:
    def test_deterministic_per_config_and_seed(self, space):
        c = sample_uniform(space, 12)
        assert synthetic_score(c, space, noise_seed=5) == synthetic_score(
            c, space, noise_seed=5
        )
        assert synthetic_score(c, space, noise_seed=5) != synthetic_score(
            c, space, noise_seed=6
        )

    def test_noiseless_strictly_monotone_in_active_genes(self, space):
        rng = random.Random(13)
        checked = 0
        while checked < 300:
            c = sample_uniform(space, rng.randrange(2 ** 63))
            base = synthetic_score(c, space)
            s = rng.randrange(space.num_stages)
            j = rng.randrange(c.stage_depths[s])
            options = space.expand_options
            idx = options.index(c.expands[s][j])
            if idx + 1 >= len(options):
                continue
            expands = [list(e) for e in c.expands]
            expands[s][j] = options[idx + 1]
            bumped = replace_gene(c, expands=tuple(tuple(e) for e in expands))
            assert synthetic_score(bumped, space) > base
            checked += 1

    def test_resolution_and_depth_grow_score(self, space):
        rng = random.Random(14)
        for _ in range(100):
            c = sample_uniform(space, rng.randrange(2 ** 63))
            if c.resolution != space.resolution_options[-1]:
                idx = space.resolution_options.index(c.resolution)
                up = replace_gene(c, resolution=space.resolution_options[idx + 1])
                assert synthetic_score(up, space) > synthetic_score(c, space)
            s = rng.randrange(space.num_stages)
            if c.stage_depths[s] != space.depth_options[-1]:
                idx = space.depth_options.index(c.stage_depths[s])
                depths = list(c.stage_depths)
                depths[s] = space.depth_options[idx + 1]
                up = replace_gene(c, depths=tuple(depths))
                assert synthetic_score(up, space) > synthetic_score(c, space)

    def test_inert_gene_does_not_move_score(self, space):
        c = maximal_config(space)
        shallow = replace_gene(c, depths=(2,) * space.num_stages)
        kernels = [list(k) for k in shallow.kernels]
        kernels[0][3] = 3
        other = replace_gene(shallow, kernels=tuple(tuple(k) for k in kernels))
        assert synthetic_score(other, space) == synthetic_score(shallow, space)

    def test_score_moments_reproducible_and_finite(self, space):
        rng = random.Random(15)
        scores = [
            synthetic_score(sample_uniform(space, rng.randrange(2 ** 63)), space, noise_seed=2)
            for _ in range(2000)
        ]
        mean = sum(scores) / len(scores)
        var = sum((s - mean) ** 2 for s in scores) / len(scores)
        assert math.isfinite(mean) and math.isfinite(var)
        assert 0 < var < 10
        rng = random.Random(15)
        again = [
            synthetic_score(sample_uniform(space, rng.randrange(2 ** 63)), space, noise_seed=2)
            for _ in range(2000)
        ]
        assert again == scores


MODEL_SPACE = tiny_space(depths=(1, 2), kernels=(3, 5), expands=(2, 3))


class TestModelJson:
    @given(
        weights=st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=feature_length(MODEL_SPACE),
            max_size=feature_length(MODEL_SPACE),
        ),
        intercept=st.floats(allow_nan=False, allow_infinity=False),
        l2=st.floats(0, 1e6),
        seed=st.integers(0, 2 ** 63 - 1),
        rows=st.integers(1, 10 ** 6),
    )
    def test_round_trip(self, weights, intercept, l2, seed, rows):
        model = PredictorModel(tuple(weights), intercept, l2, seed, rows)
        fresh = PredictorModel(tuple(weights), intercept, l2, seed, rows)
        # the table a prediction keeps on the model is not a field: it
        # leaves equality, hash, repr and JSON as they are
        predict(model, maximal_config(MODEL_SPACE), MODEL_SPACE)
        assert "_weight_table" in vars(model)
        assert model == fresh and hash(model) == hash(fresh) and repr(model) == repr(fresh)
        assert model.to_json_dict() == fresh.to_json_dict()
        text = json.dumps(model.to_json_dict())
        assert PredictorModel.from_json_dict(json.loads(text)) == model
