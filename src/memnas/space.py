"""The subnet configuration space and its genome operations.

A configuration picks an input resolution, a depth per stage, and a kernel
size and expand ratio per layer slot.  Slot lists always carry entries for
the maximum depth; entries beyond a stage's active depth are inert genes
that survive sampling and mutation but never affect the resolved network.

Resolving a configuration yields a profilable skeleton: stem (stride 2),
then per stage a transition block at the stage's entry resolution (stride 2
for the four downsampling boundaries, stride 1 for the last stage) followed
by the remaining active blocks at the halved resolution, then the head.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from itertools import product

import numpy as np

from .errors import FieldError, ResolutionError, ValidationError, json_field, require_number
from .memory import (
    MBBlockShape,
    NetworkSkeleton,
    block_memory,
    classifier_memory,
    profile_network,
)
from .planner import NUM_STAGES, ChannelSchedule, ReferenceConfig, plan_schedule

DEPTH_OPTIONS = (2, 3, 4)
KERNEL_OPTIONS = (3, 5, 7)
EXPAND_OPTIONS = (2, 3, 4)
RESOLUTION_OPTIONS = (128, 160, 192, 224)


@dataclass(frozen=True)
class SupernetSpace:
    """Option sets plus the channel schedule shared by every subnet."""

    schedule: ChannelSchedule
    num_stages: int = NUM_STAGES
    depth_options: tuple[int, ...] = DEPTH_OPTIONS
    kernel_options: tuple[int, ...] = KERNEL_OPTIONS
    expand_options: tuple[int, ...] = EXPAND_OPTIONS
    resolution_options: tuple[int, ...] = RESOLUTION_OPTIONS

    def __post_init__(self):
        require_number("num_stages", self.num_stages, int, "positive")
        for name in ("depth_options", "kernel_options", "expand_options", "resolution_options"):
            opts = getattr(self, name)
            # expands may be rational (1.5, 2.5); the other options are integers
            kind = (int, float) if name == "expand_options" else int
            for i, v in enumerate(opts):
                require_number(f"{name}[{i}]", v, kind, "positive")
            if not opts or list(opts) != sorted(opts):
                raise ValidationError(f"{name} must be non-empty and sorted ascending")
        if len(self.schedule.stage_widths) != self.num_stages:
            raise ValidationError(
                f"schedule has {len(self.schedule.stage_widths)} stage widths for "
                f"{self.num_stages} stages"
            )

    @property
    def max_depth(self) -> int:
        return max(self.depth_options)

    @cached_property
    def peak_table(self) -> dict:
        """Per-block peak terms, built on first use; see ``config_peak_items``."""
        return _build_peak_table(self)

    @cached_property
    def peak_arrays(self) -> tuple:
        """``peak_table`` as numpy arrays, built on first use; see
        ``_peek_peaks``."""
        return _build_peak_arrays(self)

    def to_json_dict(self) -> dict:
        return {
            "num_stages": self.num_stages,
            "depth_options": list(self.depth_options),
            "kernel_options": list(self.kernel_options),
            "expand_options": list(self.expand_options),
            "resolution_options": list(self.resolution_options),
            "schedule": self.schedule.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SupernetSpace":
        schedule = json_field(d, "schedule", dict)
        try:
            schedule = ChannelSchedule.from_json_dict(schedule)
        except FieldError as exc:
            raise FieldError(f"schedule.{exc}") from None
        except ValidationError as exc:
            raise ValidationError(f"schedule: {exc}") from None
        return cls(
            schedule=schedule,
            num_stages=d.get("num_stages", NUM_STAGES),
            depth_options=tuple(json_field(d, "depth_options", list)),
            kernel_options=tuple(json_field(d, "kernel_options", list)),
            expand_options=tuple(json_field(d, "expand_options", list)),
            resolution_options=tuple(json_field(d, "resolution_options", list)),
        )


def default_space() -> SupernetSpace:
    """The standard space: published option sets over the numerically
    balanced schedule at the reference configuration."""
    return SupernetSpace(schedule=plan_schedule(ReferenceConfig()))


@dataclass(frozen=True)
class SubnetConfig:
    """One point of the space.  ``kernels`` and ``expands`` hold one inner
    list per stage, each of length max depth."""

    resolution: int
    stage_depths: tuple[int, ...]
    kernels: tuple[tuple[int, ...], ...]
    expands: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "stages": [
                {
                    "depth": self.stage_depths[s],
                    "kernels": list(self.kernels[s]),
                    "expands": list(self.expands[s]),
                }
                for s in range(len(self.stage_depths))
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SubnetConfig":
        stages = [
            (
                json_field(s, "depth", path=f"stages[{i}]"),
                tuple(json_field(s, "kernels", list, f"stages[{i}]")),
                tuple(json_field(s, "expands", list, f"stages[{i}]")),
            )
            for i, s in enumerate(json_field(d, "stages", list))
        ]
        return cls(
            resolution=json_field(d, "resolution"),
            stage_depths=tuple(depth for depth, _, _ in stages),
            kernels=tuple(ks for _, ks, _ in stages),
            expands=tuple(es for _, _, es in stages),
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def maximal_config(space: SupernetSpace) -> SubnetConfig:
    """Every gene at its largest option."""
    d = space.max_depth
    return SubnetConfig(
        resolution=space.resolution_options[-1],
        stage_depths=(space.depth_options[-1],) * space.num_stages,
        kernels=((space.kernel_options[-1],) * d,) * space.num_stages,
        expands=((space.expand_options[-1],) * d,) * space.num_stages,
    )


def validate(config: SubnetConfig, space: SupernetSpace) -> list[str]:
    """Every option-set violation, each with the path of the offending
    field; an empty list means the config is valid."""
    violations = []
    if config.resolution not in space.resolution_options:
        violations.append(
            f"resolution: {config.resolution} not in resolution_options "
            f"{list(space.resolution_options)}"
        )
    for name, lists in (("kernels", config.kernels), ("expands", config.expands)):
        if len(lists) != space.num_stages:
            violations.append(
                f"{name}: expected {space.num_stages} stages, got {len(lists)}"
            )
    if len(config.stage_depths) != space.num_stages:
        violations.append(
            f"stage_depths: expected {space.num_stages} stages, got "
            f"{len(config.stage_depths)}"
        )
        return violations
    for s, depth in enumerate(config.stage_depths):
        if depth not in space.depth_options:
            violations.append(
                f"stages[{s}].depth: {depth} not in depth_options "
                f"{list(space.depth_options)}"
            )
    for name, lists, options in (
        ("kernels", config.kernels, space.kernel_options),
        ("expands", config.expands, space.expand_options),
    ):
        for s, inner in enumerate(lists[: space.num_stages]):
            if len(inner) != space.max_depth:
                violations.append(
                    f"stages[{s}].{name}: expected {space.max_depth} slots, "
                    f"got {len(inner)}"
                )
                continue
            for j, v in enumerate(inner):
                if v not in options:
                    violations.append(
                        f"stages[{s}].{name}[{j}]: {v} not in options {list(options)}"
                    )
    return violations


def require_valid(config: SubnetConfig, space: SupernetSpace) -> None:
    violations = validate(config, space)
    if violations:
        raise ValidationError("; ".join(violations))


def count_subnets(space: SupernetSpace) -> int:
    """Exact number of distinct subnets: per stage, sum over depths of
    (|kernels| * |expands|)^depth, raised to the number of stages.
    Resolution is a runtime choice and does not multiply the count."""
    per_layer = len(space.kernel_options) * len(space.expand_options)
    per_stage = sum(per_layer ** d for d in space.depth_options)
    return per_stage ** space.num_stages


def enumerate_subnets(space: SupernetSpace, limit: int = 100_000):
    """Brute-force enumeration of active-gene assignments (small spaces
    only); yields configs with inert slots padded by the first options."""
    per_stage = []
    for _ in range(space.num_stages):
        stage_choices = []
        for depth in space.depth_options:
            for genes in product(
                product(space.kernel_options, space.expand_options), repeat=depth
            ):
                stage_choices.append((depth, genes))
        per_stage.append(stage_choices)
    total = reduce(lambda a, b: a * len(b), per_stage, 1)
    if total > limit:
        raise ValidationError(f"space too large to enumerate ({total} > {limit})")
    pad_k, pad_e = space.kernel_options[0], space.expand_options[0]
    for combo in product(*per_stage):
        depths, kernels, expands = [], [], []
        for depth, genes in combo:
            depths.append(depth)
            ks = [g[0] for g in genes] + [pad_k] * (space.max_depth - depth)
            es = [g[1] for g in genes] + [pad_e] * (space.max_depth - depth)
            kernels.append(tuple(ks))
            expands.append(tuple(es))
        yield SubnetConfig(
            resolution=space.resolution_options[0],
            stage_depths=tuple(depths),
            kernels=tuple(kernels),
            expands=tuple(expands),
        )


def _sample_with(space: SupernetSpace, rng: random.Random) -> SubnetConfig:
    # fixed draw order: resolution, then per stage depth and per-slot genes;
    # index-by-random() keeps this hot path cheap for rejection sampling
    rnd = rng.random
    d_opts, k_opts, e_opts = space.depth_options, space.kernel_options, space.expand_options
    n_d, n_k, n_e = len(d_opts), len(k_opts), len(e_opts)
    slots = range(space.max_depth)
    resolution = space.resolution_options[int(rnd() * len(space.resolution_options))]
    depths, kernels, expands = [], [], []
    for _ in range(space.num_stages):
        depths.append(d_opts[int(rnd() * n_d)])
        kernels.append(tuple([k_opts[int(rnd() * n_k)] for _ in slots]))
        expands.append(tuple([e_opts[int(rnd() * n_e)] for _ in slots]))
    return SubnetConfig(resolution, tuple(depths), tuple(kernels), tuple(expands))


# the most draws one ``_peek_peaks`` call reads: its arrays take a few kB
# per draw, and larger chunks measured no faster per draw
SCAN_CHUNK = 256


def _peek_peaks(
    space: SupernetSpace, rng: random.Random, n: int, include_classifier: bool = False
) -> np.ndarray:
    """The ``config_peak_items`` of the next ``n`` draws of ``_sample_with``
    on ``rng``, as an int64 array computed in one numpy pass; ``rng`` is
    left where it was, and ``_skip_draws`` moves it past the draws a caller
    has no use for.

    The generator's 32-bit words are read in the order ``random()`` consumes
    them, and each ``random()`` value is rebuilt as CPython builds it, so the
    genes, and so the peaks, are exactly those of ``_sample_with`` (tested).
    A draw whose resolution is not in ``peak_table`` reads -1: drawn again
    with ``_sample_with``, it makes ``config_peak_items`` raise.
    """
    base, terms, depths, lens = space.peak_arrays
    calls, md = len(lens), space.max_depth
    state = rng.getstate()
    words = rng.getrandbits(64 * calls * n).to_bytes(8 * calls * n, "little")
    rng.setstate(state)
    w = np.frombuffer(words, "<u4")
    # random(): the top 27 bits of one word and the top 26 of the next, / 2**53
    u = ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) * (1.0 / 9007199254740992.0)
    picks = (u.reshape(n, calls) * lens).astype(np.intp)
    r = picks[:, 0]
    stages = picks[:, 1:].reshape(n, space.num_stages, 1 + 2 * md)
    slots = np.arange(md)
    # per draw, stage and slot: the transition term in slot 0, inner terms after
    term = terms[
        r[:, None, None],
        np.arange(space.num_stages)[:, None],
        np.minimum(slots, 1),
        stages[:, :, 1 : 1 + md],
        stages[:, :, 1 + md :],
    ]
    active = slots < depths[stages[:, :, :1]]
    peaks = np.maximum(base[r], np.where(active, term, 0).max(axis=(1, 2)))
    if include_classifier:
        t = classifier_memory(space.schedule.head_width, 1000).total_items
        np.maximum(peaks, t, out=peaks)
    peaks[base[r] < 0] = -1
    return peaks


def _skip_draws(space: SupernetSpace, rng: random.Random, n: int) -> None:
    """Advance ``rng`` past ``n`` draws of ``_sample_with`` without making
    them: one draw reads two 32-bit words per ``random()`` call."""
    _, _, _, lens = space.peak_arrays
    if n:
        rng.getrandbits(64 * len(lens) * n)


def sample_uniform(space: SupernetSpace, seed: int) -> SubnetConfig:
    """Draw each gene uniformly from its option set; deterministic in the
    seed.  Inert slots are drawn too so later depth growth can use them."""
    return _sample_with(space, random.Random(seed))


def mutate(
    config: SubnetConfig,
    space: SupernetSpace,
    prob: float,
    seed: int,
    freeze_resolution: bool = False,
) -> SubnetConfig:
    """Resample each gene independently with probability ``prob``."""
    if not 0 <= prob <= 1:
        raise ValidationError(f"prob must be in [0, 1], got {prob}")
    rng = random.Random(seed)
    resolution = config.resolution
    if not freeze_resolution and rng.random() < prob:
        resolution = rng.choice(space.resolution_options)
    depths, kernels, expands = [], [], []
    for s in range(space.num_stages):
        d = config.stage_depths[s]
        if rng.random() < prob:
            d = rng.choice(space.depth_options)
        depths.append(d)
        kernels.append(
            tuple(
                rng.choice(space.kernel_options) if rng.random() < prob else k
                for k in config.kernels[s]
            )
        )
        expands.append(
            tuple(
                rng.choice(space.expand_options) if rng.random() < prob else e
                for e in config.expands[s]
            )
        )
    return SubnetConfig(
        resolution=resolution,
        stage_depths=tuple(depths),
        kernels=tuple(kernels),
        expands=tuple(expands),
    )


def crossover(a: SubnetConfig, b: SubnetConfig, seed: int) -> SubnetConfig:
    """Gene-wise uniform crossover; both parents must share one genome
    shape."""
    if len(a.stage_depths) != len(b.stage_depths) or any(
        len(ka) != len(kb) for ka, kb in zip(a.kernels, b.kernels)
    ):
        raise ValidationError("parents come from different spaces")
    rng = random.Random(seed)
    pick = lambda x, y: x if rng.random() < 0.5 else y
    depths, kernels, expands = [], [], []
    resolution = pick(a.resolution, b.resolution)
    for s in range(len(a.stage_depths)):
        depths.append(pick(a.stage_depths[s], b.stage_depths[s]))
        kernels.append(
            tuple(pick(x, y) for x, y in zip(a.kernels[s], b.kernels[s]))
        )
        expands.append(
            tuple(pick(x, y) for x, y in zip(a.expands[s], b.expands[s]))
        )
    return SubnetConfig(
        resolution=resolution,
        stage_depths=tuple(depths),
        kernels=tuple(kernels),
        expands=tuple(expands),
    )


def _stage_entry_sizes(resolution: int, num_stages: int) -> list[int]:
    sizes = []
    size = resolution
    for _ in range(num_stages):
        if size % 2 != 0:
            raise ResolutionError(
                f"resolution {resolution} does not divide through the stride stages"
            )
        size //= 2
        sizes.append(size)
    return sizes


def resolve(
    config: SubnetConfig,
    space: SupernetSpace,
    num_classes: int = 1000,
    include_classifier: bool = False,
) -> NetworkSkeleton:
    """Build the profilable skeleton for a valid configuration."""
    require_valid(config, space)
    sched = space.schedule
    entry_sizes = _stage_entry_sizes(config.resolution, space.num_stages)
    blocks: list[MBBlockShape] = []
    labels: list[str] = []
    prev_width = sched.stem_width
    for s in range(space.num_stages):
        width = sched.stage_widths[s]
        depth = config.stage_depths[s]
        downsample = s < space.num_stages - 1
        entry = entry_sizes[s]
        inner = entry // 2 if downsample else entry
        for j in range(depth):
            first = j == 0
            blocks.append(
                MBBlockShape(
                    c_in=prev_width if first else width,
                    c_out=width,
                    expand=config.expands[s][j],
                    kernel=config.kernels[s][j],
                    stride=2 if (first and downsample) else 1,
                    input_size=entry if first else inner,
                )
            )
            labels.append(f"stage{s + 1}.block{j + 1}")
        prev_width = width
    return NetworkSkeleton(
        resolution=config.resolution,
        stem_width=sched.stem_width,
        blocks=tuple(blocks),
        head_width=sched.head_width,
        include_classifier=include_classifier,
        num_classes=num_classes,
        block_labels=tuple(labels),
    )


def _build_peak_table(space: SupernetSpace) -> dict:
    """Map each resolution that ``resolve`` accepts to ``(base, tails,
    stages)``.

    ``base`` is the larger of the stem and head totals, which depend only on
    the resolution; ``tails[depth]`` is the range of slots after the first
    that a depth makes active; ``stages`` holds per stage ``(first, inner)``,
    where ``first[k][e]`` and ``inner[k][e]`` are the largest layer total of
    the transition block and of a later block with kernel ``k`` and expand
    ``e``.  Every term comes from ``block_memory`` on the block shapes of a
    resolved maximal configuration, so rational expands round as they do in
    ``profile_network``.
    """

    tails = {d: range(1, d) for d in space.depth_options}
    widest = maximal_config(space)
    table = {}
    for r in space.resolution_options:
        try:
            skeleton = resolve(replace(widest, resolution=r), space)
        except ResolutionError:
            continue
        records = profile_network(skeleton).records
        stages = _stage_terms(
            space, skeleton, lambda b: max(m.total_items for m in block_memory(b))
        )
        table[r] = (max(records[0].total_items, records[-1].total_items), tails, stages)
    return table


def _stage_terms(space: SupernetSpace, skeleton: NetworkSkeleton, term) -> tuple:
    """Per stage of ``skeleton``, a resolved maximal configuration, ``(first,
    inner)``: ``first[k][e]`` and ``inner[k][e]`` are ``term`` of the
    stage's transition block and of its second block with kernel ``k`` and
    expand ``e`` (``inner`` is empty when the largest depth is 1).  A block
    takes its shape from ``replace`` on the resolved one, so rational
    expands round as they do in ``profile_network``."""

    def by_gene(shape: MBBlockShape) -> dict:
        return {
            k: {e: term(replace(shape, kernel=k, expand=e)) for e in space.expand_options}
            for k in space.kernel_options
        }

    md = space.max_depth
    return tuple(
        (by_gene(skeleton.blocks[s * md]), by_gene(skeleton.blocks[s * md + 1]) if md > 1 else {})
        for s in range(space.num_stages)
    )


def _build_peak_arrays(space: SupernetSpace) -> tuple:
    """``peak_table`` as ``(base, terms, depths, lens)`` for ``_peek_peaks``.

    ``base[r]`` is the base term of the ``r``-th resolution option, -1 if
    that resolution is not in the table; ``terms[r, s, kind, k, e]`` is the
    transition (``kind`` 0) or inner (``kind`` 1) term of stage ``s`` with
    the ``k``-th kernel and ``e``-th expand option; ``depths`` holds the
    depth options; ``lens`` holds, per ``random()`` call of one
    ``_sample_with`` draw, the number of options that call picks from.
    """
    ks, es = space.kernel_options, space.expand_options
    n_res = len(space.resolution_options)
    base = np.full(n_res, -1, np.int64)
    terms = np.zeros((n_res, space.num_stages, 2, len(ks), len(es)), np.int64)
    for i, r in enumerate(space.resolution_options):
        if r in space.peak_table:
            peak, _, stages = space.peak_table[r]
            base[i] = peak
            for s, kinds in enumerate(stages):
                for kind, by_kernel in enumerate(kinds):
                    if by_kernel:  # no inner terms when the largest depth is 1
                        terms[i, s, kind] = [[by_kernel[k][e] for e in es] for k in ks]
    md = space.max_depth
    stage = [len(space.depth_options)] + [len(ks)] * md + [len(es)] * md
    lens = np.array([n_res] + stage * space.num_stages, np.float64)
    return base, terms, np.array(space.depth_options), lens


def config_peak_items(
    config: SubnetConfig,
    space: SupernetSpace,
    include_classifier: bool = False,
    num_classes: int = 1000,
) -> int:
    """Peak items of a configuration, read from the space's table of
    per-block terms (``SupernetSpace.peak_table``), which is built once from
    ``block_memory`` and the stem and head records.

    The network peak is the maximum of the stem, the head and one term per
    active block, and a block term depends only on the resolution, the
    stage, whether the block is the stage's first, and its own (kernel,
    expand); so this agrees with profiling the resolved skeleton (tested).
    Used on hot paths such as feasibility rejection sampling, it checks only
    the genes it reads: an out-of-space resolution, depth or active gene
    raises the ``ValidationError`` or ``ResolutionError`` that ``resolve``
    raises; inert genes are not checked.
    """
    try:
        peak, tails, stages = space.peak_table[config.resolution]
        for (first, inner), depth, ks, es in zip(
            stages, config.stage_depths, config.kernels, config.expands, strict=True
        ):
            t = first[ks[0]][es[0]]
            if t > peak:
                peak = t
            for j in tails[depth]:
                t = inner[ks[j]][es[j]]
                if t > peak:
                    peak = t
    except (KeyError, IndexError, TypeError, ValueError):
        # a table miss means the config is outside the space; resolve names
        # the offending field
        resolve(config, space)
        raise
    if include_classifier:
        t = classifier_memory(space.schedule.head_width, num_classes).total_items
        if t > peak:
            peak = t
    return peak


def min_peak_items(space: SupernetSpace, include_classifier: bool = False) -> int:
    """The smallest peak of any configuration of the space, exactly.

    The peak is the maximum of block terms that a configuration chooses
    independently (see ``config_peak_items``), so at one resolution it is
    least when every block takes its cheapest (kernel, expand): the larger
    of the stem and head term, each stage's cheapest transition term and,
    when the smallest depth keeps a later block active, each stage's
    cheapest inner term.  The result is the least of these over the
    resolutions, raised to the classifier term (at ``config_peak_items``'s
    default 1000 classes) if that counts.
    """

    def cheapest(terms: dict) -> int:
        return min(min(by_expand.values()) for by_expand in terms.values())

    table = space.peak_table
    if not table:
        # no resolution divides through the stages; resolve names one
        resolve(maximal_config(space), space)
    peaks = []
    for peak, _, stages in table.values():
        for first, inner in stages:
            peak = max(peak, cheapest(first))
            if space.depth_options[0] > 1:
                peak = max(peak, cheapest(inner))
        peaks.append(peak)
    peak = min(peaks)
    if include_classifier:
        peak = max(peak, classifier_memory(space.schedule.head_width, 1000).total_items)
    return peak
