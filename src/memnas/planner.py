"""Channel-schedule planning for memory-constant stage transitions.

Two planning routes are provided:

* ``closed_form`` evaluates the three published transition formulas exactly
  as printed (depthwise-dominated ratio, depthwise-to-expansion quadratic,
  expansion-dominated quadratic) and picks between them by the current
  stage's dominant layer.  The printed depthwise-dominated ratio is < 1 for
  every positive input, so this route shrinks channels at each transition;
  it is kept verbatim and flagged in the CLI rather than corrected.
* ``numeric`` balances stages against the memory model directly: each stage
  width is the largest integer whose instantiated stage peak stays at or
  below the previous stage's peak.  This is the self-consistent route and
  the one used to build the default search space.

A stage is laid out by ``stage_shapes``, the one stage builder, which also
lays out the block shapes a space caches for ``space.resolve``.  Its
within-stage blocks are identical, so a planned stage is its transition
block and at most one of them: a plan costs the same at any depth.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import FieldError, InfeasibleError, ValidationError, json_field, require_number
from .memory import MBBlockShape, block_memory

#: channel widths of the original memory-constant supernet configuration,
#: listed stem first; used for side-by-side deviation reports only
REFERENCE_WIDTHS = (8, 24, 96, 288, 360, 384, 392, 392)

NUM_STAGES = 5
MODES = ("numeric", "closed-form")

#: the widest channel count the numeric planner balances to, and the bound on
#: every width of a schedule and every kernel, expand and resolution of a
#: space or a reference configuration: layer item counts then stay below
#: 2**90, so float arithmetic on them (``math.fsum``, the mean and deviation
#: of a profile, the closed-form roots) stays finite
MAX_EXTENT = 1 << 22


@dataclass(frozen=True)
class ReferenceConfig:
    """Uniform per-stage settings used while planning; defaults are the
    option-set maxima."""

    depth: int = 4
    kernel: int = 7
    expand: float = 4
    resolution: int = 224

    def __post_init__(self):
        require_number("depth", self.depth, int, "positive")
        for name in ("kernel", "resolution"):
            require_number(name, getattr(self, name), int, "positive", MAX_EXTENT)
        require_number("expand", self.expand, sign="positive", limit=MAX_EXTENT)
        if self.kernel % 2 == 0 or self.resolution < 2 ** (NUM_STAGES + 1):
            raise ValidationError(
                f"kernel must be odd and resolution >= {2 ** (NUM_STAGES + 1)}, "
                f"got kernel {self.kernel} and resolution {self.resolution}"
            )


@dataclass(frozen=True)
class ChannelSchedule:
    """Planner output: stem width, one width per stage, and head width."""

    stem_width: int
    stage_widths: tuple[int, ...]
    head_width: int
    divisor: int
    mode: str = "numeric"

    def __post_init__(self):
        if self.mode not in MODES:
            raise FieldError(f"mode: expected one of {list(MODES)}, got {self.mode!r}")
        require_number("divisor", self.divisor, int, "positive")
        if not self.stage_widths:
            raise ValidationError("stage_widths is empty")
        widths = (
            ("stem_width", self.stem_width),
            *((f"stage_widths[{i}]", w) for i, w in enumerate(self.stage_widths)),
            ("head_width", self.head_width),
        )
        for path, w in widths:
            require_number(path, w, int, "positive", MAX_EXTENT)
            if w % self.divisor != 0:
                raise ValidationError(
                    f"width {w} is not a positive multiple of divisor {self.divisor}"
                )

    def all_widths(self) -> tuple[int, ...]:
        return (self.stem_width, *self.stage_widths, self.head_width)

    def to_json_dict(self) -> dict:
        return {
            "stem_width": self.stem_width,
            "stage_widths": list(self.stage_widths),
            "head_width": self.head_width,
            "divisor": self.divisor,
            "mode": self.mode,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ChannelSchedule":
        return cls(
            stem_width=json_field(d, "stem_width"),
            stage_widths=tuple(json_field(d, "stage_widths", list)),
            head_width=json_field(d, "head_width"),
            divisor=json_field(d, "divisor"),
            mode=d.get("mode", "numeric"),
        )


class DominantLayer(Enum):
    DEPTHWISE = "depthwise"
    EXPANSION = "expansion"
    PROJECTION = "projection"


def cout_depthwise_dominated(c_in: float, i: float, k: float) -> float:
    """Transition width when depthwise memory dominates both stages,
    evaluated exactly as printed: C_in * (I^2 + 4K^2 + I^2/4) / (2I^2 + 4K^2).

    Note the printed ratio is strictly below 1 for all positive inputs.
    """
    for name, v in (("c_in", c_in), ("i", i), ("k", k)):
        require_number(name, v, sign="positive")
    return c_in * (i * i + 4 * k * k + i * i / 4) / (2 * i * i + 4 * k * k)


def _positive_root(a: float, b: float, d: float) -> float:
    # a > 0 and d < 0 here, so the discriminant is positive and the
    # + branch is the unique positive root
    disc = b * b - 4 * a * d
    return (-b + math.sqrt(disc)) / (2 * a)


def cout_dw_to_exp(c_in: float, i: float, k: float, e: float) -> float:
    """Transition width when the peak moves from the depthwise layer of the
    current stage to the expansion layer of the next; positive root of
    E*x^2 + (E*I^2/4 + I^2/4)*x - E*C_in*(I^2 + K^2 + I^2/4) = 0."""
    for name, v in (("c_in", c_in), ("i", i), ("k", k), ("e", e)):
        require_number(name, v, sign="positive")
    a = e
    b = e * i * i / 4 + i * i / 4
    d = -e * c_in * (i * i + k * k + i * i / 4)
    return _positive_root(a, b, d)


def cout_exp_dominated(c_in: float, i: float, e: float) -> float:
    """Transition width when the expansion layer dominates the current
    stage; positive root of E*x^2 + (E*I^2/2 + I^2/4)*x
    - C_in*(I^2/4 + E*C_in + E*I^2) = 0."""
    for name, v in (("c_in", c_in), ("i", i), ("e", e)):
        require_number(name, v, sign="positive")
    a = e
    b = e * i * i / 2 + i * i / 4
    d = -c_in * (i * i / 4 + e * c_in + e * i * i)
    return _positive_root(a, b, d)


def dominant_layer(shape: MBBlockShape) -> DominantLayer:
    """Layer with the largest total within a block.  Ties break in the order
    depthwise > expansion > projection (within a stage the expansion and
    projection totals coincide, and the selection rule has no projection
    branch)."""
    exp, dw, proj = (rec.total_items for rec in block_memory(shape))
    if dw >= exp and dw >= proj:
        return DominantLayer.DEPTHWISE
    if exp >= proj:
        return DominantLayer.EXPANSION
    return DominantLayer.PROJECTION


def select_cout(
    c_in: float, i: float, k: float, e: float, dominant: DominantLayer
) -> float:
    """Closed-form transition width for the given dominant layer.

    Projection dominance routes to the expansion branch: the selection rule
    defines no projection case and the two totals coincide within a stage.
    """
    if dominant is DominantLayer.DEPTHWISE:
        return min(cout_depthwise_dominated(c_in, i, k), cout_dw_to_exp(c_in, i, k, e))
    return cout_exp_dominated(c_in, i, e)


@dataclass(frozen=True)
class StageTemplate:
    """Shape of a stage to be balanced: entry feature-map size, uniform
    kernel/expand, block count, and whether its transition block downsamples."""

    input_size: int
    kernel: int
    expand: float
    depth: int
    downsample: bool = True

    def __post_init__(self):
        if self.depth < 1:
            raise ValidationError(f"depth must be >= 1, got {self.depth}")


def stage_shapes(
    prev_width: int, width: int, input_size: int, downsample: bool, genes: Iterable[tuple]
) -> list[MBBlockShape]:
    """The layout of one stage, shared by the planner and the block shapes
    that ``space.resolve`` reads (``SupernetSpace.block_table``):
    one block per ``(kernel, expand)`` of ``genes``, the transition block
    from ``prev_width`` at ``input_size`` (stride 2 if ``downsample``), then
    the rest at ``width`` and the strided size."""
    stride = 2 if downsample else 1
    blocks = []
    c_in, s, size = prev_width, stride, input_size
    for kernel, expand in genes:
        blocks.append(MBBlockShape(c_in, width, expand, kernel, s, size))
        c_in, s, size = width, 1, input_size // stride
    return blocks


def stage_blocks(
    prev_width: int, width: int, template: StageTemplate
) -> list[MBBlockShape]:
    """Instantiate a stage at ``width``: the transition block from
    ``prev_width`` at the entry size, then identical within-stage blocks."""
    genes = [(template.kernel, template.expand)] * template.depth
    return stage_shapes(prev_width, width, template.input_size, template.downsample, genes)


def stage_peak(blocks: Sequence[MBBlockShape]) -> int:
    """Peak item count over every layer of the given blocks."""
    return max(b.peak_items for b in blocks)


def numeric_balance(
    current_stage: Sequence[MBBlockShape], template: StageTemplate
) -> int:
    """Largest integer width whose instantiated next stage peaks at or below
    the current stage's peak, found by one bisection over
    ``1..MAX_EXTENT``.

    The within-stage blocks of ``template`` are identical, so the transition
    block and one of them give the stage's peak; the rest are not built."""
    if not current_stage:
        raise ValidationError("current_stage is empty")
    target = stage_peak(current_stage)
    prev_width = current_stage[-1].c_out
    template = replace(template, depth=min(template.depth, 2))

    def peak_at(width: int) -> int:
        return stage_peak(stage_blocks(prev_width, width, template))

    # the peak grows with the width, so the widths that fit are 1..fits
    fits = bisect_right(range(1, MAX_EXTENT + 1), target, key=peak_at)
    if fits == 0:
        raise InfeasibleError(
            f"no width >= 1 fits under the current stage peak of {target} items"
        )
    if fits == MAX_EXTENT:
        raise InfeasibleError(f"balanced width exceeds the {MAX_EXTENT} channel cap")
    return fits


def quantize(x: float, divisor: int) -> int:
    """Largest multiple of ``divisor`` not exceeding ``x``."""
    require_number("divisor", divisor, int, "positive")
    if x < divisor:
        raise InfeasibleError(f"value {x} is below one quantum of {divisor}")
    return int(math.floor(x / divisor)) * divisor


def _stage_template(ref: ReferenceConfig, stage: int) -> StageTemplate:
    """Template of stage 1..5: entry size halves per stage; the last stage
    keeps its resolution.  Its within-stage blocks are identical, so the
    transition block and one of them stand for the stage: at most two."""
    return StageTemplate(
        input_size=ref.resolution // 2 ** stage,
        kernel=ref.kernel,
        expand=ref.expand,
        depth=min(ref.depth, 2),
        downsample=stage < NUM_STAGES,
    )


def _seed_stage(ref: ReferenceConfig, stem_width: int) -> list[MBBlockShape]:
    # planning anchor: a hypothetical stage at the stem's width operating at
    # the stem's output resolution
    genes = [(ref.kernel, ref.expand)] * min(ref.depth, 2)
    return stage_shapes(stem_width, stem_width, ref.resolution // 2, False, genes)


def plan_schedule(
    ref: ReferenceConfig,
    stem_width: int = 8,
    divisor: int = 8,
    mode: str = "numeric",
) -> ChannelSchedule:
    """Walk the five stage transitions from ``stem_width`` and one further
    head transition, choosing each width by the selected mode and flooring it
    to a multiple of ``divisor``."""
    if mode not in MODES:
        raise ValidationError(f"mode must be 'numeric' or 'closed-form', got {mode!r}")
    require_number("divisor", divisor, int, "positive")
    if stem_width < 1 or stem_width % divisor != 0:
        raise ValidationError(
            f"stem_width {stem_width} is not a positive multiple of divisor {divisor}"
        )

    current = _seed_stage(ref, stem_width)
    widths: list[int] = []
    prev_width = stem_width
    # stage NUM_STAGES + 1 is the head, balanced like the last stage
    for stage in range(1, NUM_STAGES + 2):
        template = _stage_template(ref, min(stage, NUM_STAGES))
        try:
            if mode == "numeric":
                raw: float = numeric_balance(current, template)
            else:
                dom = dominant_layer(max(current, key=attrgetter("peak_items")))
                raw = select_cout(
                    prev_width, template.input_size, ref.kernel, ref.expand, dom
                )
            width = quantize(raw, divisor)
        except InfeasibleError as exc:
            where = "head" if stage > NUM_STAGES else f"stage {stage}"
            raise InfeasibleError(f"{where}: {exc}", stage=stage) from None
        widths.append(width)
        current = stage_blocks(prev_width, width, template)
        prev_width = width

    return ChannelSchedule(
        stem_width=stem_width,
        stage_widths=tuple(widths[:-1]),
        head_width=widths[-1],
        divisor=divisor,
        mode=mode,
    )


def schedule_stage_peaks(ref: ReferenceConfig, schedule: ChannelSchedule) -> list[int]:
    """Per-stage instantiated peaks of a schedule under the reference
    configuration (transition block plus a within-stage block per stage)."""
    peaks = []
    prev = schedule.stem_width
    for stage, width in enumerate(schedule.stage_widths, start=1):
        peaks.append(stage_peak(stage_blocks(prev, width, _stage_template(ref, stage))))
        prev = width
    return peaks


def deviation_rows(schedule: ChannelSchedule) -> list[dict]:
    """Entry-by-entry comparison of a planned schedule against the reference
    widths.  The reference lists one more width than the planner produces
    (its first planned width occupies an extra early block); entries are
    aligned positionally and the unmatched tail entry is reported bare."""
    ours = schedule.all_widths()
    roles = ["stem"] + [f"stage{i}" for i in range(1, NUM_STAGES + 1)] + ["head"]
    rows = []
    for idx, ref_w in enumerate(REFERENCE_WIDTHS):
        planned = ours[idx] if idx < len(ours) else None
        rows.append(
            {
                "entry": idx,
                "role": roles[idx] if idx < len(roles) else "-",
                "reference": ref_w,
                "planned": planned,
                "deviation": None if planned is None else planned - ref_w,
            }
        )
    return rows
