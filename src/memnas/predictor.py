"""Configuration encoding, balanced dataset construction, and the linear
ridge surrogate used as the search objective.

The synthetic scoring oracle stands in for trained-network accuracy at desk
scale.  It is a fixed monotone function of network capacity::

    score = ALPHA * ln(FLOPs) + BETA * (avg_items / peak_items) + noise

with ``noise ~ N(0, SIGMA^2)`` derived deterministically from the noise seed
and the configuration (pass ``noise_seed=None`` for the noiseless oracle).
Growing any active gene strictly increases the noiseless score.

numpy is imported only by the surrogate (``encode``, ``train`` and
``PredictorModel.weight_array``) and ``hashlib`` only by the noisy oracle,
each on first use, so a run that scores with the noiseless oracle loads
neither.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING

from .errors import InfeasibleError, ValidationError, json_field, require_number
from .memory import MBBlockShape, block_flops, block_memory, flops_estimate, profile_network
from .space import (
    PeakBand,
    SubnetConfig,
    SupernetSpace,
    _sample_with,
    _stage_terms,
    config_peak_items,
    max_peak_items,
    maximal_config,
    min_peak_items,
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
    """One-hot feature vector: resolution block, then per stage a depth
    block followed by per-slot kernel and expand blocks.  Slots beyond the
    active depth encode as all-zero blocks, so inert genes never show.

    The ones are set at ``_hot_positions`` with one ``ndarray.put``.  numpy
    is imported here, not with the module (see its docstring)."""
    import numpy as np

    vec = np.zeros(space.one_hot_positions[2])
    vec.put(_hot_positions(config, space), 1.0)
    return vec


def _hot_positions(config: SubnetConfig, space: SupernetSpace) -> list[int]:
    """The positions of the ones in ``encode(config, space)``, read from the
    space's tables (``SupernetSpace.one_hot_positions``): the resolution's,
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


def _hot_indices(configs, space: SupernetSpace) -> tuple:
    """``(rows, columns)``: the positions of the ones in
    ``np.stack([encode(c, space) for c in configs])``, as two index arrays,
    so that one assignment sets them all."""
    import numpy as np

    hot = [_hot_positions(config, space) for config in configs]
    counts = [len(h) for h in hot]
    return (
        np.repeat(np.arange(len(hot)), counts),
        np.fromiter(chain.from_iterable(hot), np.intp, sum(counts)),
    )


def _score_table(space: SupernetSpace) -> dict:
    """Map each resolution of ``space.peak_table``, every listed one, to
    ``(layer_sum, flops, peak, stages)``; cached as ``space.score_table``.

    ``layer_sum`` is the stem total plus the head total, ``flops`` the FLOPs
    outside the blocks and ``peak`` the larger of the stem and head totals;
    ``stages`` holds per stage ``(first, inner)``, where ``first[k][e]`` and
    ``inner[k][e]`` are the layer-total sum, the FLOPs and the peak term of
    the transition block and of a later block with kernel ``k`` and expand
    ``e``.  The sums and FLOPs come from profiling and counting a resolved
    maximal configuration, on the block shapes ``peak_table`` uses
    (``_stage_terms``), so a network's sums are those of
    ``profile_network`` and ``flops_estimate``; the peak terms are
    ``peak_table``'s own.
    """

    def sums(shape: MBBlockShape) -> tuple[int, int]:
        return sum(m.total_items for m in block_memory(shape)), block_flops(shape)

    def with_peaks(terms: dict, peaks: dict) -> dict:
        return {
            k: {e: (*sf, peaks[k][e]) for e, sf in by_expand.items()}
            for k, by_expand in terms.items()
        }

    widest = maximal_config(space)
    table = {}
    for r, (peak, _, peak_stages) in space.peak_table.items():
        skeleton = resolve(replace(widest, resolution=r), space)
        records = profile_network(skeleton).records
        flops = flops_estimate(skeleton) - sum(block_flops(b) for b in skeleton.blocks)
        stages = tuple(
            (with_peaks(first, peak_first), with_peaks(inner, peak_inner))
            for (first, inner), (peak_first, peak_inner) in zip(
                _stage_terms(space, skeleton, sums), peak_stages
            )
        )
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
        built directly (property-tested): the config by
        ``SubnetConfig.json_text`` and each number as ``json.dumps`` writes
        it."""
        fh.write(
            "".join(
                [
                    f'{{"config": {row.config.json_text(", ", ": ")}, "peak_items": '
                    f'{_json_number(row.peak_items)}, "score": {_json_number(row.score)}}}\n'
                    for row in self.rows
                ]
            )
        )

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

    @cached_property
    def weight_array(self) -> np.ndarray:
        """``weights`` as the read-only array that ``np.dot`` would build
        from the tuple, made once per model, on the first ``predict``; not a
        field, so equality, hash, repr and JSON are those of the fields, and
        a model read from JSON imports no numpy until it is used."""
        import numpy as np

        array = np.array(self.weights)
        array.flags.writeable = False
        return array

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
    built in one array, with every row's ones set in one assignment.
    """
    import numpy as np

    if not dataset.rows:
        raise ValidationError("dataset is empty")
    require_number("l2", l2, sign="non-negative")
    n, n_feat = len(dataset.rows), feature_length(space)
    # the augmented system [phi, 1; sqrt(l2) * I, 0], each block set in place
    design = np.zeros((n + n_feat if l2 > 0 else n, n_feat + 1))
    design[_hot_indices([row.config for row in dataset.rows], space)] = 1.0
    design[:n, n_feat] = 1.0
    if l2 == 0 and n > 1 and np.ptp(design[:n, :n_feat], axis=0).max() == 0:
        raise ValidationError(
            "all rows encode identically and l2 is zero; the problem is singular"
        )
    y = np.array([row.score for row in dataset.rows])
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


def predict(model: PredictorModel, config: SubnetConfig, space: SupernetSpace) -> float:
    """``weights . encode(config) + intercept``: the dot product over the
    whole one-hot vector with the model's cached ``weight_array``, so the
    sum is the one ``np.dot`` of the weight tuple gives, bit for bit
    (``ndarray.dot`` and ``np.dot`` make the same call)."""
    vec = encode(config, space)
    if len(model.weights) != len(vec):
        raise ValidationError(
            f"model has {len(model.weights)} weights but the space encodes "
            f"{len(vec)} features"
        )
    return float(model.weight_array.dot(vec) + model.intercept)

