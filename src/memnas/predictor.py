"""Configuration encoding, balanced dataset construction, and the linear
ridge surrogate used as the search objective.

The synthetic scoring oracle stands in for trained-network accuracy at desk
scale.  It is a fixed monotone function of network capacity::

    score = ALPHA * ln(FLOPs) + BETA * (avg_items / peak_items) + noise

with ``noise ~ N(0, SIGMA^2)`` derived deterministically from the noise seed
and the configuration (pass ``noise_seed=None`` for the noiseless oracle).
Growing any active gene strictly increases the noiseless score.

numpy is imported only by ``encode`` and ``train``, and ``hashlib`` only by
the noisy oracle, each on first use: ``predict`` adds weights read from
tables and needs no numpy, so a run that scores with the noiseless oracle or
with a trained model loads neither.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import reduce
from itertools import count
from operator import add, attrgetter, getitem
from typing import TYPE_CHECKING

from .errors import InfeasibleError, ValidationError, json_field, require_number
from .memory import flops_estimate, profile_network
from .feasible import PeakBand, max_peak_items, min_peak_items
from .space import (
    SubnetConfig,
    SupernetSpace,
    _block_terms,
    _sample_with,
    config_peak_items,
    maximal_config,
    require_valid,
    resolve,
)

if TYPE_CHECKING:
    import numpy as np

ALPHA = 1.0
BETA = 0.01
SIGMA = 0.05


def feature_length(space: SupernetSpace) -> int:
    return space.one_hot_positions[2]


def encode(config: SubnetConfig, space: SupernetSpace) -> np.ndarray:
    """One-hot feature vector in ``_layout``'s order: resolution block, then
    per stage a depth block followed by per-slot kernel and expand blocks.
    Slots beyond the active depth encode as all-zero blocks.

    The ones are set at ``_hot_positions`` with one ``ndarray.put``.  numpy
    is imported here, not with the module (see its docstring)."""
    import numpy as np

    vec = np.zeros(space.one_hot_positions[2])
    vec.put(_hot_positions(config, space), 1.0)
    return vec


def _hot_positions(config: SubnetConfig, space: SupernetSpace) -> list[int]:
    """The positions of the ones in ``encode(config, space)``, read from the
    space's ``_layout`` of positions (``one_hot_positions``): the resolution's,
    then per stage the depth's and one entry each of the stage's kernel and
    expand slot tables at that depth, keyed by the whole slot tuple.  An
    invalid config raises ValidationError before any table is read."""
    require_valid(config, space)
    resolution_at, stages, _ = space.one_hot_positions
    hot = [resolution_at[config.resolution]]
    for (depth_at, _, _, slot_tables), depth, ks, es in zip(
        stages, config.stage_depths, config.kernels, config.expands
    ):
        kernel_table, expand_table = slot_tables[depth]
        hot.append(depth_at[depth])
        hot += kernel_table[ks]
        hot += expand_table[es]
    return hot


def _score_table(space: SupernetSpace) -> dict:
    """Map each resolution of ``space.peak_table``, every listed one, to
    ``(layer_sum, flops, peak, stages)``; cached as ``space.score_table``.

    ``layer_sum`` is the stem total plus the head total, ``flops`` the FLOPs
    outside the blocks and ``peak`` is ``peak_table``'s base; ``stages`` holds
    per stage ``(first, inner)``, where ``first[k][e]`` and ``inner[k][e]``
    are the ``(layer_sum, flops, peak_items)`` of the ``block_table`` shapes
    of the transition block and of a later block with kernel ``k`` and
    expand ``e``.  The stem and head terms come from profiling and counting
    a resolved maximal configuration, so a network's sums are those of
    ``profile_network`` and ``flops_estimate``.
    """
    widest = maximal_config(space)
    table = {}
    for r, (peak, _, _) in space.peak_table.items():
        skeleton = resolve(replace(widest, resolution=r), space)
        records = profile_network(skeleton).records
        flops = flops_estimate(skeleton) - sum(b.flops for b in skeleton.blocks)
        stages = _block_terms(space.block_table[r], attrgetter("layer_sum", "flops", "peak_items"))
        table[r] = (records[0].total_items + records[-1].total_items, flops, peak, stages)
    return table


def synthetic_score(
    config: SubnetConfig, space: SupernetSpace, noise_seed: int | None = None
) -> float:
    """Deterministic capacity proxy; see the module docstring for the form
    and constants.

    The noiseless part is read from the space's table of per-block terms
    (``space.score_table``) in one walk over the stem, the head and the active
    blocks: the FLOPs and the sum of the layer totals add up, and the peak
    is the largest of their peak terms, those of ``config_peak_items``.
    With ``n`` layers the average is the integer sum over ``n``, as
    ``statistics.fmean`` gives it for sums below 2**53, so the score equals
    the one computed from ``profile_network`` and ``flops_estimate`` of the
    resolved network bit for bit (tested).
    """
    require_valid(config, space)
    layer_sum, flops, peak, stages = space.score_table[config.resolution]
    for (first, inner), depth, ks, es in zip(
        stages, config.stage_depths, config.kernels, config.expands
    ):
        s, f, p = first[ks[0]][es[0]]
        layer_sum += s
        flops += f
        if p > peak:
            peak = p
        for j in range(1, depth):
            s, f, p = inner[ks[j]][es[j]]
            layer_sum += s
            flops += f
            if p > peak:
                peak = p
    layers = 2 + 3 * sum(config.stage_depths)
    score = ALPHA * math.log(flops) + BETA * ((layer_sum / layers) / peak)
    if noise_seed is not None:
        import hashlib

        digest = hashlib.sha256(
            f"{noise_seed}|{config.canonical_json()}".encode()
        ).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        score += SIGMA * rng.gauss(0.0, 1.0)
    return score


@dataclass(frozen=True)
class DatasetRow:
    config: SubnetConfig
    peak_items: int
    score: float

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "peak_items": self.peak_items,
            "score": self.score,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DatasetRow":
        config = json_field(d, "config", dict)
        try:
            config = SubnetConfig.from_json_dict(config)
        except ValidationError as exc:
            raise ValidationError(f"config.{exc}") from None
        peak_items, score = json_field(d, "peak_items"), json_field(d, "score")
        require_number("peak_items", peak_items, int, "non-negative")
        require_number("score", score)
        return cls(config=config, peak_items=peak_items, score=score)


@dataclass(frozen=True)
class Dataset:
    rows: tuple[DatasetRow, ...]
    bucket_edges: tuple[float, ...]

    def write_jsonl(self, fh) -> None:
        """One line per row, ``json.dumps(row.to_json_dict(), sort_keys=True)``,
        built directly (property-tested): each config as its
        ``canonical_json`` and each number as ``json.dumps`` writes it, with
        the compact separators then widened to the default ``", "`` and
        ``": "``.  That is exact because no key, and no text of an int or a
        float, holds a comma or a colon.  A config the noisy oracle scored
        has built its text already."""
        text = "".join(
            [
                f'{{"config":{row.config.canonical_json()},"peak_items":'
                f'{_json_number(row.peak_items)},"score":{_json_number(row.score)}}}\n'
                for row in self.rows
            ]
        )
        fh.write(text.replace(",", ", ").replace(":", ": "))

    @classmethod
    def read_jsonl(cls, fh) -> "Dataset":
        """The rows of a JSONL dataset; the file holds no bucket edges."""
        return cls(rows=tuple(row for _, row in cls.numbered_rows(fh)), bucket_edges=())

    @staticmethod
    def numbered_rows(fh):
        """Each row of a JSONL dataset with its line number, counted from 1;
        a blank line holds none.  A line that is not a row raises
        ValidationError naming it."""
        number = 0
        try:
            for number, line in enumerate(fh, start=1):
                if line.strip():
                    try:
                        d = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ValidationError(
                            f"line {number}: malformed JSON: {exc.msg} at column {exc.colno}"
                        ) from None
                    except (ValueError, RecursionError) as exc:
                        # an integer of more than 4,300 digits, or nesting
                        # deeper than the interpreter's recursion limit
                        raise ValidationError(f"line {number}: malformed JSON: {exc}") from None
                    try:
                        row = DatasetRow.from_json_dict(d)
                    except ValidationError as exc:
                        raise ValidationError(f"line {number}: {exc}") from None
                    yield number, row
        except UnicodeDecodeError as exc:
            # a text file decodes a chunk at a time, and the failing chunk
            # starts within the first line not yet read: the bad byte's line
            # is that one plus the newlines before the byte
            number += 1 + exc.object[: exc.start].count(b"\n")
            raise ValidationError(
                f"line {number}: not UTF-8: {exc.reason}, byte 0x{exc.object[exc.start]:02x}"
            ) from None


def _json_number(x) -> str:
    """``json.dumps(x)`` for an int or a float: ``repr`` if finite, else
    ``NaN``, ``Infinity`` or ``-Infinity``."""
    return repr(x) if -math.inf < x < math.inf else json.dumps(x)


def bucket_index(peak: float, edges: tuple[float, ...]) -> int:
    """Bucket of a peak value; values outside the edge span clamp to the
    first/last bucket."""
    return min(max(bisect_right(edges, peak) - 1, 0), len(edges) - 2)


def bucket_edges_from_pilot(peaks, num_buckets: int) -> tuple[float, ...]:
    """Equal-width edges over the range of ``peaks``; ``balanced_sample``
    passes the exact peak range of the space."""
    lo, hi = min(peaks), max(peaks)
    if hi == lo:
        hi = lo + 1
    step = (hi - lo) / num_buckets
    return tuple(lo + i * step for i in range(num_buckets + 1))


def balanced_sample(
    space: SupernetSpace, n: int, num_buckets: int, rng_seed: int, scorer
) -> Dataset:
    """Draw configs so that every peak-memory bucket holds n/num_buckets rows
    (plus one for the first ``n % num_buckets`` buckets), each row uniform
    over the configs whose peak lies in its bucket.

    Bucket edges are equal-width over the exact peak range of the space,
    ``min_peak_items`` to ``max_peak_items``, with ``bucket_index``'s
    boundaries: bucket ``b`` holds ``edges[b] <= peak < edges[b + 1]`` and
    the last bucket also holds the largest peak.  The buckets are filled in
    order, one exact uniform draw per row from the ``PeakBand`` of the
    integer peaks the bucket holds.  A bucket that no config reaches, by the
    band's exact count, raises InfeasibleError before anything is drawn.
    """
    if num_buckets < 1 or n < num_buckets:
        raise ValidationError("need n >= num_buckets >= 1")
    low, top = min_peak_items(space), max_peak_items(space)
    edges = bucket_edges_from_pilot([low, top], num_buckets)
    quota = [n // num_buckets] * num_buckets
    for i in range(n % num_buckets):
        quota[i] += 1
    # per bucket, the least and the largest integer peak it holds
    bounds = [
        (math.ceil(edges[b]), math.ceil(edges[b + 1]) - 1) for b in range(num_buckets - 1)
    ] + [(math.ceil(edges[-2]), top)]
    bands = [PeakBand(space, lo, hi) for lo, hi in bounds]
    empty = [b for b, band in enumerate(bands) if not band.count]
    if empty:
        raise InfeasibleError(
            f"no configuration has its peak in bucket(s) {empty} of edges "
            f"{[round(e, 1) for e in edges]}"
        )
    rng = random.Random(rng_seed)
    rows: list[DatasetRow] = []
    for band, size in zip(bands, quota):
        for _ in range(size):
            cfg = _sample_with(space, rng, band)
            rows.append(
                DatasetRow(config=cfg, peak_items=config_peak_items(cfg, space), score=scorer(cfg))
            )
    return Dataset(rows=tuple(rows), bucket_edges=edges)


@dataclass(frozen=True)
class PredictorModel:
    """Affine surrogate: score = weights . features + intercept."""

    weights: tuple[float, ...]
    intercept: float
    l2: float
    seed: int
    rows: int

    def to_json_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "intercept": self.intercept,
            "l2": self.l2,
            "seed": self.seed,
            "rows": self.rows,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PredictorModel":
        weights = json_field(d, "weights", list)
        intercept, l2, seed, rows = (json_field(d, k) for k in ("intercept", "l2", "seed", "rows"))
        for i, w in enumerate(weights):
            require_number(f"weights[{i}]", w)
        require_number("intercept", intercept)
        require_number("l2", l2, sign="non-negative")
        require_number("seed", seed, int)
        require_number("rows", rows, int, "non-negative")
        return cls(tuple(weights), intercept, l2, seed, rows)


def train(
    dataset: Dataset, space: SupernetSpace, l2: float, seed: int = 0
) -> PredictorModel:
    """Ridge least squares on encoded features; the intercept column is not
    penalized, so for very large l2 predictions collapse to the score mean.

    Solved as an augmented least-squares system (the one-hot blocks are
    collinear with the intercept, so plain normal equations would be
    singular); the minimum-norm solution is deterministic.  The system is
    built in one array, each row's features written in place from
    ``encode``.
    """
    import numpy as np

    if not dataset.rows:
        raise ValidationError("dataset is empty")
    require_number("l2", l2, sign="non-negative")
    n, n_feat = len(dataset.rows), feature_length(space)
    # the augmented system [phi, 1; sqrt(l2) * I, 0], each block set in place
    design = np.zeros((n + n_feat if l2 > 0 else n, n_feat + 1))
    for i, row in enumerate(dataset.rows):
        design[i, :n_feat] = encode(row.config, space)
    design[:n, n_feat] = 1.0
    if l2 == 0 and n > 1 and np.ptp(design[:n, :n_feat], axis=0).max() == 0:
        raise ValidationError(
            "all rows encode identically and l2 is zero; the problem is singular"
        )
    # an integer score of 2**64 or more would make an object array
    y = np.array([float(row.score) for row in dataset.rows])
    if l2 > 0:
        diagonal = np.arange(n_feat)
        design[n + diagonal, diagonal] = math.sqrt(l2)
        y = np.concatenate([y, np.zeros(n_feat)])
    solution, *_ = np.linalg.lstsq(design, y, rcond=None)
    return PredictorModel(
        weights=tuple(float(w) for w in solution[:n_feat]),
        intercept=float(solution[n_feat]),
        l2=float(l2),
        seed=seed,
        rows=len(dataset.rows),
    )


def _layout(space: SupernetSpace, value, combine) -> tuple:
    """``(resolution_at, stages, length)``: the one-hot feature layout of
    ``space``, with ``value(position)`` in place of each position, for
    ``encode``'s positions and ``predict``'s weights alike.

    ``resolution_at`` maps each resolution option to its value; ``stages``
    holds per stage ``(depth_at, kernel_at, expand_at, slot_tables)``: a map
    for the depth block, one map per slot for the kernel and the expand
    blocks, and per depth ``d`` a pair of ``_SlotTable``s for the kernel and
    the expand slots.  ``length`` is the feature vector's length."""
    positions = count()

    def block(options) -> dict:
        return {v: value(next(positions)) for v in options}

    _, _, kernel_tuples, expand_tuples = space._valid_genes
    kernels, expands = space.kernel_options, space.expand_options
    resolution_at = block(space.resolution_options)
    stages = []
    for _ in range(space.num_stages):
        depth_at = block(space.depth_options)
        slots = [(block(kernels), block(expands)) for _ in range(space.max_depth)]
        kernel_at, expand_at = zip(*slots)
        slot_tables = {
            d: (
                _SlotTable(kernel_at[:d], combine, bool(kernel_tuples)),
                _SlotTable(expand_at[:d], combine, bool(expand_tuples)),
            )
            for d in space.depth_options
        }
        stages.append((depth_at, kernel_at, expand_at, slot_tables))
    return resolution_at, tuple(stages), next(positions)


class _SlotTable(dict):
    """Maps a whole slot tuple to ``combine`` of the values of its first
    ``len(slot_at)`` slots, one map of ``slot_at`` per slot.  It fills as
    tuples are looked up, up to ``|options|**max_depth`` entries, unless
    ``store`` is false: ``_valid_genes`` holds no tuple of its kind."""

    def __init__(self, slot_at: tuple[dict, ...], combine, store: bool):
        super().__init__()
        self.slot_at, self.combine, self.store = slot_at, combine, store

    def __missing__(self, slots: tuple):
        combined = self.combine(map(getitem, self.slot_at, slots))
        if self.store:
            self[slots] = combined
        return combined


def left_sum(values) -> float:
    """``values`` added left to right from ``0.0``; the built-in ``sum``
    compensates on Python 3.12 and later, which changes the bits."""
    return reduce(add, values, 0.0)


def _weight_table(model: PredictorModel, space: SupernetSpace) -> tuple:
    """``model.weights`` laid out as ``space.one_hot_positions``, by
    ``_layout``: each position's weight in its place, and each slot table
    mapping a slot tuple to the ``left_sum`` of its slots' weights.

    Built on the first call for a space and kept on the model, beside the
    ``one_hot_positions`` object it was laid out from, so that it is never
    served for another space and holds no reference to the space; not a
    field, so the model's equality, hash, repr and JSON are unchanged.  A
    model whose weight count is not the space's feature length raises
    ValidationError."""
    positions = space.one_hot_positions
    kept = model.__dict__.get("_weight_table")
    if kept is not None and kept[0] is positions:
        return kept[1]
    length = positions[2]
    if len(model.weights) != length:
        raise ValidationError(
            f"model has {len(model.weights)} weights but the space encodes {length} features"
        )
    table = _layout(space, tuple(map(float, model.weights)).__getitem__, left_sum)
    model.__dict__["_weight_table"] = (positions, table)
    return table


def predict(model: PredictorModel, config: SubnetConfig, space: SupernetSpace) -> float:
    """``weights . encode(config) + intercept``, added as plain floats in
    one fixed order: the resolution's weight; then per stage, in order,
    ``(depth weight + kernel sum) + expand sum``, where each slot sum adds
    the weights of the stage's active slots left to right from ``0.0``;
    then the intercept.  So a prediction has the same bits on every
    machine, which ``np.dot``, adding in its BLAS kernel's order, does not
    promise; the two differ by at most 1e-12 of the sum of the absolute
    terms (property-tested).

    The weights are read from the model's ``_layout`` of them for the space
    (``_weight_table``), each slot sum by the whole slot tuple.  An invalid
    config raises ValidationError before any table is read."""
    require_valid(config, space)
    resolution_weight, stages, _ = _weight_table(model, space)
    total = resolution_weight[config.resolution]
    for (depth_weight, _, _, slot_sums), depth, ks, es in zip(
        stages, config.stage_depths, config.kernels, config.expands
    ):
        kernel_sums, expand_sums = slot_sums[depth]
        total += depth_weight[depth] + kernel_sums[ks] + expand_sums[es]
    return total + model.intercept
