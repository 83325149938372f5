"""Configuration encoding, balanced dataset construction, and the linear
ridge surrogate used as the search objective.

The synthetic scoring oracle stands in for trained-network accuracy at desk
scale.  It is a fixed monotone function of network capacity::

    score = ALPHA * ln(FLOPs) + BETA * (avg_items / peak_items) + noise

with ``noise ~ N(0, SIGMA^2)`` derived deterministically from the noise seed
and the configuration (pass ``noise_seed=None`` for the noiseless oracle).
Growing any active gene strictly increases the noiseless score.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import PartialDatasetError, TrainingError, ValidationError
from .memory import flops_estimate, profile_network
from .space import (
    SubnetConfig,
    SupernetSpace,
    _sample_with,
    config_peak_items,
    json_field,
    require_valid,
    resolve,
)

ALPHA = 1.0
BETA = 0.01
SIGMA = 0.05

DEFAULT_PILOT = 1000
DEFAULT_RETRY_FACTOR = 100


def feature_length(space: SupernetSpace) -> int:
    per_slot = len(space.kernel_options) + len(space.expand_options)
    return (
        len(space.resolution_options)
        + space.num_stages * (len(space.depth_options) + space.max_depth * per_slot)
    )


def encode(config: SubnetConfig, space: SupernetSpace) -> np.ndarray:
    """One-hot feature vector: resolution block, then per stage a depth
    block followed by per-slot kernel and expand blocks.  Slots beyond the
    active depth encode as all-zero blocks, so inert genes never show."""
    require_valid(config, space)
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


def synthetic_score(
    config: SubnetConfig, space: SupernetSpace, noise_seed: int | None = None
) -> float:
    """Deterministic capacity proxy; see the module docstring for the form
    and constants."""
    skeleton = resolve(config, space)
    profile = profile_network(skeleton)
    score = ALPHA * math.log(flops_estimate(skeleton)) + BETA * (
        profile.avg_items / profile.peak_items
    )
    if noise_seed is not None:
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
        return cls(
            config=config,
            peak_items=json_field(d, "peak_items"),
            score=json_field(d, "score"),
        )


@dataclass(frozen=True)
class Dataset:
    rows: tuple[DatasetRow, ...]
    bucket_edges: tuple[float, ...]

    def write_jsonl(self, fh) -> None:
        for row in self.rows:
            fh.write(json.dumps(row.to_json_dict(), sort_keys=True) + "\n")

    @classmethod
    def read_jsonl(cls, fh, bucket_edges=()) -> "Dataset":
        rows = []
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    rows.append(DatasetRow.from_json_dict(json.loads(line)))
                except ValidationError as exc:
                    raise ValidationError(f"line {number}: {exc}") from None
        return cls(rows=tuple(rows), bucket_edges=tuple(bucket_edges))


def bucket_index(peak: float, edges: tuple[float, ...]) -> int:
    """Bucket of a peak value; values outside the edge span clamp to the
    first/last bucket."""
    if peak <= edges[0]:
        return 0
    if peak >= edges[-1]:
        return len(edges) - 2
    lo, hi = 0, len(edges) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if peak < edges[mid]:
            hi = mid
        else:
            lo = mid
    return lo


def bucket_edges_from_pilot(peaks, num_buckets: int) -> tuple[float, ...]:
    lo, hi = min(peaks), max(peaks)
    if hi == lo:
        hi = lo + 1
    step = (hi - lo) / num_buckets
    return tuple(lo + i * step for i in range(num_buckets + 1))


def balanced_sample(
    space: SupernetSpace,
    n: int,
    num_buckets: int,
    rng_seed: int,
    scorer,
    pilot: int = DEFAULT_PILOT,
    retry_factor: int = DEFAULT_RETRY_FACTOR,
) -> Dataset:
    """Draw uniform configs and keep them only while their peak-memory
    bucket still has room, so every bucket ends up with n/num_buckets rows
    (plus one for the first ``n % num_buckets`` buckets).

    Bucket edges are equal-width over the peak range of a pilot draw; pilot
    configs are recycled as the first candidates.  Raises
    PartialDatasetError with the achieved occupancy if the retry budget of
    ``retry_factor * n`` draws runs out.
    """
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
    rows: list[DatasetRow] = []

    def offer(cfg, peak) -> None:
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
        return cls(
            weights=tuple(d["weights"]),
            intercept=d["intercept"],
            l2=d["l2"],
            seed=d["seed"],
            rows=d["rows"],
        )


def train(
    dataset: Dataset, space: SupernetSpace, l2: float, seed: int = 0
) -> PredictorModel:
    """Ridge least squares on encoded features; the intercept column is not
    penalized, so for very large l2 predictions collapse to the score mean.

    Solved as an augmented least-squares system (the one-hot blocks are
    collinear with the intercept, so plain normal equations would be
    singular); the minimum-norm solution is deterministic.
    """
    if not dataset.rows:
        raise ValidationError("dataset is empty")
    if l2 < 0:
        raise ValidationError(f"l2 must be non-negative, got {l2}")
    phi = np.stack([encode(row.config, space) for row in dataset.rows])
    y = np.array([row.score for row in dataset.rows])
    if l2 == 0 and len(dataset.rows) > 1 and np.ptp(phi, axis=0).max() == 0:
        raise TrainingError(
            "all rows encode identically and l2 is zero; the problem is singular"
        )
    n_feat = phi.shape[1]
    design = np.hstack([phi, np.ones((phi.shape[0], 1))])
    if l2 > 0:
        reg = np.zeros((n_feat, n_feat + 1))
        reg[:, :n_feat] = math.sqrt(l2) * np.eye(n_feat)
        design = np.vstack([design, reg])
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
    vec = encode(config, space)
    if len(model.weights) != len(vec):
        raise ValidationError(
            f"model has {len(model.weights)} weights but the space encodes "
            f"{len(vec)} features"
        )
    return float(np.dot(model.weights, vec) + model.intercept)


def predict_batch(
    model: PredictorModel, configs, space: SupernetSpace
) -> np.ndarray:
    phi = np.stack([encode(c, space) for c in configs])
    if phi.shape[1] != len(model.weights):
        raise ValidationError("feature length mismatch")
    return phi @ np.array(model.weights) + model.intercept
