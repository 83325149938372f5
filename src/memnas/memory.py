"""Exact per-layer memory accounting for mobile-inverted-bottleneck networks.

Counts are tensor-element ("item") counts for a batch-size-1 forward pass in
which each layer's weights are streamed into RAM, used, and unloaded before
the next layer runs.  A layer therefore occupies input + weight + output
items at its peak.  Normalization parameters, biases, and activation scratch
are excluded; all arithmetic is exact integer arithmetic.

An MB block is the expansion (1x1) / depthwise (KxK) / projection (1x1)
convolution triple.  The depthwise layer applies the block's stride, so the
expansion layer sees the full input resolution and the projection layer the
strided one.

Shapes and skeletons are checked once, when they are built: a stride-2
``MBBlockShape`` needs an even ``input_size`` and a ``NetworkSkeleton`` a
chained stem and blocks.  ``profile_network`` and ``flops_estimate`` take them
as valid, so memory and FLOPs are counted for the same networks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import ChainError, ResolutionError, ValidationError

#: bytes per element for the supported precisions
PRECISION_BYTES = {
    "float64": 8,
    "float32": 4,
    "float16": 2,
    "bfloat16": 2,
    "int8": 1,
}

#: classes of the classifier a skeleton may end with
NUM_CLASSES = 1000


def expanded_channels(c_in: int, expand: float) -> int:
    """Channel count after the expansion layer: expand * c_in rounded to the
    nearest integer, ties rounding up.  Integer ratios stay in integer
    arithmetic; rational ones round once here and nowhere else."""
    if isinstance(expand, int):
        return expand * c_in
    return int(math.floor(expand * c_in + 0.5))


@dataclass(frozen=True)
class MBBlockShape:
    """A fully resolved MB block: the unit of memory accounting.

    ``input_size`` is the side length of the (square) input feature map.
    """

    c_in: int
    c_out: int
    expand: float
    kernel: int
    stride: int
    input_size: int

    def __post_init__(self):
        for name in ("c_in", "c_out", "kernel", "input_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ValidationError(f"{name} must be a positive integer, got {v!r}")
        if not 0 < self.expand < math.inf:
            # NaN fails both comparisons; rounding would raise on it or on inf
            raise ValidationError(f"expand must be a positive finite number, got {self.expand!r}")
        if self.stride not in (1, 2):
            raise ValidationError(f"stride must be 1 or 2, got {self.stride!r}")
        if self.kernel % 2 == 0:
            raise ValidationError(f"kernel must be odd, got {self.kernel}")
        if self.stride == 2 and self.input_size % 2:
            raise ResolutionError(f"input_size {self.input_size} is not divisible by stride 2")
        if expanded_channels(self.c_in, self.expand) < 1:
            raise ValidationError(
                f"expand {self.expand} * c_in {self.c_in} rounds to zero channels"
            )

    @property
    def expanded(self) -> int:
        return expanded_channels(self.c_in, self.expand)

    @property
    def output_size(self) -> int:
        return self.input_size // self.stride


@dataclass(frozen=True)
class LayerMemory:
    """Item counts for one layer; total is the RAM occupied while it runs."""

    label: str
    input_items: int
    weight_items: int
    output_items: int

    @property
    def total_items(self) -> int:
        return self.input_items + self.weight_items + self.output_items


def expansion_memory(shape: MBBlockShape, label: str = "exp") -> LayerMemory:
    """Pointwise expansion: c_in -> expanded channels at full resolution."""
    i2 = shape.input_size * shape.input_size
    e_ch = shape.expanded
    return LayerMemory(
        label=label,
        input_items=shape.c_in * i2,
        weight_items=shape.c_in * e_ch,
        output_items=e_ch * i2,
    )


def depthwise_memory(shape: MBBlockShape, label: str = "dw") -> LayerMemory:
    """Depthwise KxK convolution; applies the block stride."""
    i2 = shape.input_size * shape.input_size
    o = shape.output_size
    e_ch = shape.expanded
    return LayerMemory(
        label=label,
        input_items=e_ch * i2,
        weight_items=e_ch * shape.kernel * shape.kernel,
        output_items=e_ch * o * o,
    )


def projection_memory(shape: MBBlockShape, label: str = "proj") -> LayerMemory:
    """Pointwise projection: expanded channels -> c_out at strided resolution."""
    o = shape.output_size
    o2 = o * o
    e_ch = shape.expanded
    return LayerMemory(
        label=label,
        input_items=e_ch * o2,
        weight_items=e_ch * shape.c_out,
        output_items=shape.c_out * o2,
    )


def block_memory(shape: MBBlockShape, prefix: str = "block") -> list[LayerMemory]:
    """The three layer records of a block, in execution order."""
    return [
        expansion_memory(shape, f"{prefix}.exp"),
        depthwise_memory(shape, f"{prefix}.dw"),
        projection_memory(shape, f"{prefix}.proj"),
    ]


@dataclass(frozen=True)
class NetworkSkeleton:
    """A whole network ready for profiling.

    The stem is a 3x3 stride-2 full convolution from 3 input channels to
    ``stem_width``; the head is a pointwise convolution from the last block's
    output to ``head_width``; the optional classifier is a linear layer from
    globally pooled head features to ``num_classes``.
    """

    resolution: int
    stem_width: int
    blocks: tuple[MBBlockShape, ...]
    head_width: int
    include_classifier: bool = False
    num_classes: int = NUM_CLASSES
    block_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        for name in ("resolution", "stem_width", "head_width", "num_classes"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ValidationError(f"{name} must be a positive integer, got {v!r}")
        if self.resolution % 2 != 0:
            raise ResolutionError(
                f"resolution {self.resolution} is odd; the stem halves it"
            )
        if not self.blocks:
            raise ValidationError("skeleton has no blocks")
        if self.block_labels is not None and len(self.block_labels) != len(self.blocks):
            raise ValidationError("block_labels length does not match blocks")
        # channel and spatial chaining: a ChainError names the first broken boundary
        first = self.blocks[0]
        if first.c_in != self.stem_width:
            raise ChainError(
                f"stem->block0: stem_width {self.stem_width} != block c_in {first.c_in}"
            )
        if first.input_size != self.resolution // 2:
            raise ChainError(
                f"stem->block0: stem output size {self.resolution // 2} != block "
                f"input_size {first.input_size}"
            )
        for i, (cur, nxt) in enumerate(zip(self.blocks, self.blocks[1:])):
            if cur.c_out != nxt.c_in:
                raise ChainError(f"block{i}->block{i + 1}: c_out {cur.c_out} != c_in {nxt.c_in}")
            if cur.output_size != nxt.input_size:
                raise ChainError(
                    f"block{i}->block{i + 1}: output size {cur.output_size} != "
                    f"input_size {nxt.input_size}"
                )


@dataclass(frozen=True)
class MemoryProfile:
    """Ordered per-layer records with peak and distribution statistics.

    When ``classifier_excluded`` is true the record list simply carries no
    classifier entry; statistics always cover exactly the records listed.
    ``avg_items`` is ``math.fsum`` of the totals over their count, which is
    what ``statistics.fmean`` computes, so ``statistics`` (and the
    ``decimal`` and ``fractions`` it loads) is imported only by
    ``std_items``.
    """

    records: tuple[LayerMemory, ...]
    peak_items: int
    peak_index: int
    avg_items: float
    classifier_excluded: bool

    @classmethod
    def from_records(
        cls, records: Sequence[LayerMemory], classifier_excluded: bool
    ) -> "MemoryProfile":
        totals = [r.total_items for r in records]
        peak = max(totals)
        return cls(
            records=tuple(records),
            peak_items=peak,
            peak_index=totals.index(peak),
            avg_items=math.fsum(totals) / len(totals),
            classifier_excluded=classifier_excluded,
        )

    @cached_property
    def std_items(self) -> float:
        """Population standard deviation of the layer totals, computed on
        first use: the exact-fraction ``pstdev`` is about a fifth of the cost
        of ``profile_network``, and scoring never reads it."""
        import statistics

        return statistics.pstdev([r.total_items for r in self.records])

    def to_json_dict(self) -> dict:
        return {
            "records": [
                {
                    "index": i,
                    "label": r.label,
                    "input_items": r.input_items,
                    "weight_items": r.weight_items,
                    "output_items": r.output_items,
                    "total_items": r.total_items,
                }
                for i, r in enumerate(self.records)
            ],
            "peak_items": self.peak_items,
            "peak_index": self.peak_index,
            "avg_items": self.avg_items,
            "std_items": self.std_items,
            "classifier_excluded": self.classifier_excluded,
        }

    def csv_rows(self) -> list[list]:
        rows = [["index", "label", "input_items", "weight_items", "output_items", "total_items"]]
        for i, r in enumerate(self.records):
            rows.append(
                [i, r.label, r.input_items, r.weight_items, r.output_items, r.total_items]
            )
        return rows

    def write_csv(self, fh) -> None:
        csv.writer(fh).writerows(self.csv_rows())


def _stem_memory(skeleton: NetworkSkeleton) -> LayerMemory:
    r = skeleton.resolution
    out = r // 2
    return LayerMemory(
        label="stem",
        input_items=3 * r * r,
        weight_items=3 * skeleton.stem_width * 9,
        output_items=skeleton.stem_width * out * out,
    )


def _head_memory(skeleton: NetworkSkeleton) -> LayerMemory:
    last = skeleton.blocks[-1]
    o = last.output_size
    return LayerMemory(
        label="head",
        input_items=last.c_out * o * o,
        weight_items=last.c_out * skeleton.head_width,
        output_items=skeleton.head_width * o * o,
    )


def classifier_memory(head_width: int, num_classes: int) -> LayerMemory:
    """Linear classifier on the globally pooled head feature vector."""
    return LayerMemory(
        label="classifier",
        input_items=head_width,
        weight_items=head_width * num_classes,
        output_items=num_classes,
    )


def profile_network(skeleton: NetworkSkeleton) -> MemoryProfile:
    """Profile every layer of the skeleton in execution order.

    The classifier record is emitted (and counted in the statistics) only
    when the skeleton includes a classifier; by convention constrained
    comparisons leave it out.
    """
    records = [_stem_memory(skeleton)]
    labels = skeleton.block_labels or tuple(
        f"block{i + 1}" for i in range(len(skeleton.blocks))
    )
    for shape, label in zip(skeleton.blocks, labels):
        records.extend(block_memory(shape, prefix=label))
    records.append(_head_memory(skeleton))
    if skeleton.include_classifier:
        records.append(classifier_memory(skeleton.head_width, skeleton.num_classes))
    return MemoryProfile.from_records(
        records, classifier_excluded=not skeleton.include_classifier
    )


def items_to_bytes(items: int, precision: str = "float32") -> int:
    """Convert an item count to bytes at the given element precision."""
    if items < 0:
        raise ValidationError(f"items must be non-negative, got {items}")
    try:
        return items * PRECISION_BYTES[precision]
    except KeyError:
        raise ValidationError(
            f"unknown precision {precision!r}; options: {sorted(PRECISION_BYTES)}"
        ) from None


def flops_estimate(skeleton: NetworkSkeleton) -> int:
    """FLOPs for one forward pass, counted as 2 x multiply-accumulates.

    Pointwise/full convolutions contribute K^2 * C_in * C_out * H_out * W_out
    MACs, depthwise ones K^2 * C * H_out * W_out.  The classifier counts only
    if the skeleton includes it.
    """
    half = skeleton.resolution // 2
    macs = 9 * 3 * skeleton.stem_width * half * half
    last = skeleton.blocks[-1]
    o = last.output_size
    macs += last.c_out * skeleton.head_width * o * o
    if skeleton.include_classifier:
        macs += skeleton.head_width * skeleton.num_classes
    return 2 * macs + sum(block_flops(b) for b in skeleton.blocks)


def block_flops(shape: MBBlockShape) -> int:
    """FLOPs of one MB block: 2 x the multiply-accumulates of its expansion,
    depthwise and projection layers."""
    e_ch = shape.expanded
    o = shape.output_size
    macs = shape.c_in * e_ch * shape.input_size * shape.input_size
    macs += shape.kernel * shape.kernel * e_ch * o * o
    macs += e_ch * shape.c_out * o * o
    return 2 * macs


def flops_millions(flops: int) -> float:
    """FLOPs in millions, rounded to 3 significant digits."""
    m = flops / 1e6
    if m == 0:
        return 0.0
    digits = 2 - int(math.floor(math.log10(abs(m))))
    return round(m, digits)

