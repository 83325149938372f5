"""The subnet configuration space and its genome operations.

A configuration picks an input resolution, a depth per stage, and a kernel
size and expand ratio per layer slot.  Slot lists always carry entries for
the maximum depth; entries beyond a stage's active depth are inert genes
that survive sampling and mutation but never affect the resolved network.

Resolving a configuration yields a profilable skeleton: stem (stride 2),
then each stage's active blocks laid out by ``planner.stage_shapes``, the
stage builder the planner balances with, then the head.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cache, cached_property, reduce
from itertools import accumulate, product
from math import prod
from operator import getitem, mul

from .errors import (
    FieldError,
    InfeasibleError,
    ResolutionError,
    ValidationError,
    json_field,
    require_number,
)
from .memory import (
    NUM_CLASSES,
    MBBlockShape,
    NetworkSkeleton,
    block_memory,
    classifier_memory,
    expanded_channels,
    profile_network,
)
from .planner import (
    MAX_EXTENT,
    NUM_STAGES,
    ChannelSchedule,
    ReferenceConfig,
    plan_schedule,
    stage_shapes,
)

DEPTH_OPTIONS = (2, 3, 4)
KERNEL_OPTIONS = (3, 5, 7)
EXPAND_OPTIONS = (2, 3, 4)
RESOLUTION_OPTIONS = (128, 160, 192, 224)


@dataclass(frozen=True)
class SupernetSpace:
    """Option sets plus the channel schedule shared by every subnet.

    Construction is the one check of a space, so one that constructs
    resolves every valid configuration: each resolution must divide by
    ``2**num_stages``, each kernel must be odd, and each expand must give
    at least one channel at the narrowest block input, the smallest of the
    stem and stage widths.  No kernel, expand or resolution, and no width of
    the schedule, exceeds ``MAX_EXTENT``, so the memory model's float
    arithmetic stays finite."""

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
            limit = None if name == "depth_options" else MAX_EXTENT
            for i, v in enumerate(opts):
                require_number(f"{name}[{i}]", v, kind, "positive", limit)
            if not opts or any(a >= b for a, b in zip(opts, opts[1:])):
                raise ValidationError(f"{name} must be non-empty and strictly ascending")
        widths = self.schedule.stage_widths
        if len(widths) != self.num_stages:
            raise ValidationError(
                f"schedule has {len(widths)} stage widths for {self.num_stages} stages"
            )
        for i, r in enumerate(self.resolution_options):
            if r % 2 ** self.num_stages:
                raise ResolutionError(
                    f"resolution_options[{i}]: resolution {r} does not divide through the "
                    f"stride stages; it must be a multiple of {2 ** self.num_stages}"
                )
        for i, k in enumerate(self.kernel_options):
            if k % 2 == 0:
                raise ValidationError(f"kernel_options[{i}]: kernel {k} is even, not odd")
        narrowest = min(self.schedule.stem_width, *widths)
        for i, e in enumerate(self.expand_options):
            if expanded_channels(narrowest, e) < 1:
                raise ValidationError(
                    f"expand_options[{i}]: expand {e} of the narrowest block input, "
                    f"{narrowest} channels wide, rounds to zero channels"
                )

    @cached_property
    def max_depth(self) -> int:
        return max(self.depth_options)

    @cached_property
    def _valid_genes(self) -> tuple:
        """``(resolutions, depth tuples, kernel tuples, expand tuples)``:
        frozensets of the values a valid config can hold, whole stage-depth
        tuples and whole per-stage slot tuples; see ``validate``.  A set of
        tuples that would hold more than 65,536 is left empty, so the configs
        of such a space are all walked."""

        def tuples(options, length):
            if len(options) ** length > 65_536:
                return frozenset()
            return frozenset(product(options, repeat=length))

        slots = self.max_depth
        return (
            frozenset(self.resolution_options),
            tuples(self.depth_options, self.num_stages),
            tuples(self.kernel_options, slots),
            tuples(self.expand_options, slots),
        )

    @cached_property
    def peak_table(self) -> dict:
        """Per-block peak terms of every listed resolution, built on first
        use; see ``config_peak_items``."""
        return _build_peak_table(self)

    @cached_property
    def score_table(self) -> dict:
        """The synthetic oracle's per-block terms; see ``predictor._score_table``."""
        from .predictor import _score_table

        return _score_table(self)

    @cached_property
    def uniform_plan(self) -> tuple:
        """``(options, len(options))`` per gene in ``_sample_with``'s draw
        order: the resolution, then per stage its depth, its kernel slots
        and its expand slots."""

        def gene(options) -> tuple:
            return options, len(options)

        md = self.max_depth
        stage = (gene(self.depth_options),) + (gene(self.kernel_options),) * md
        stage += (gene(self.expand_options),) * md
        return (gene(self.resolution_options),) + stage * self.num_stages

    @cached_property
    def one_hot_positions(self) -> tuple:
        """``(resolution_at, stages, length)`` for ``predictor.encode``,
        built on first use.

        ``resolution_at`` maps each resolution option to its position in the
        feature vector; ``stages`` holds per stage ``(depth_at, kernel_at,
        expand_at, slot_tables)``: a map for the depth block, one map per
        slot for the kernel and the expand blocks, and per depth ``d`` a pair
        of ``_SlotTable``s that map a whole kernel and a whole expand slot
        tuple to the positions its first ``d`` slots set.  The slot tables
        fill as tuples are looked up, each up to ``|options|**max_depth``
        entries; a kind whose slot-tuple set ``_valid_genes`` leaves empty
        (too many tuples) stores none.  ``length`` is the vector's length."""
        end = 0

        def block(options) -> dict:
            nonlocal end
            start, end = end, end + len(options)
            return {v: start + i for i, v in enumerate(options)}

        _, _, kernel_tuples, expand_tuples = self._valid_genes
        resolution_at = block(self.resolution_options)
        stages = []
        for _ in range(self.num_stages):
            depth_at = block(self.depth_options)
            kernel_at, expand_at = [], []
            for _ in range(self.max_depth):
                kernel_at.append(block(self.kernel_options))
                expand_at.append(block(self.expand_options))
            slot_tables = {
                d: (
                    _SlotTable(kernel_at[:d], bool(kernel_tuples)),
                    _SlotTable(expand_at[:d], bool(expand_tuples)),
                )
                for d in self.depth_options
            }
            stages.append((depth_at, tuple(kernel_at), tuple(expand_at), slot_tables))
        return resolution_at, tuple(stages), end

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


class _SlotTable(dict):
    """Maps a whole slot tuple to the positions its first ``len(slot_at)``
    slots set, one map of ``slot_at`` per slot; a tuple looked up for the
    first time is mapped slot by slot and kept if ``store``."""

    def __init__(self, slot_at: list[dict], store: bool):
        super().__init__()
        self.slot_at, self.store = slot_at, store

    def __missing__(self, slots: tuple) -> tuple:
        positions = tuple(map(getitem, self.slot_at, slots))
        if self.store:
            self[slots] = positions
        return positions


@cache
def default_space() -> SupernetSpace:
    """The standard space: published option sets over the numerically
    balanced schedule at the reference configuration.

    Planned on the first call only: every call returns the same frozen
    instance, so the tables it caches (``peak_table`` and the others) are
    built once per process."""
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
        """A config from parsed JSON.  A missing or mistyped field raises
        FieldError naming its path, and so does a gene given as ``true`` or
        ``false``: it would pass an option check as 1 or 0, and equal the
        config holding that number, yet serialize, and so score under the
        noisy oracle, differently.

        A path is built only for an error: each list of genes is checked for
        a bool in one pass, and only a list that holds one is searched for
        its position."""

        def gene(value, path: str, *args):
            """``value``, unless it is a bool; ``path.format(*args)`` names it"""
            if type(value) is bool:
                raise FieldError(f"{path.format(*args)}: expected a number, got {value!r}")
            return value

        def genes(s: dict, i: int, key: str) -> tuple:
            values = json_field(s, key, list, "stages", i)
            if bool in map(type, values):
                j = [type(v) for v in values].index(bool)
                gene(values[j], "stages[{}].{}[{}]", i, key, j)
            return tuple(values)

        stages = [
            (
                gene(json_field(s, "depth", path="stages", index=i), "stages[{}].depth", i),
                genes(s, i, "kernels"),
                genes(s, i, "expands"),
            )
            for i, s in enumerate(json_field(d, "stages", list))
        ]
        return cls(
            resolution=gene(json_field(d, "resolution"), "resolution"),
            stage_depths=tuple(depth for depth, _, _ in stages),
            kernels=tuple(ks for _, ks, _ in stages),
            expands=tuple(es for _, _, es in stages),
        )

    def canonical_json(self) -> str:
        """``json.dumps(self.to_json_dict(), sort_keys=True, separators=(",",
        ":"))``; see ``json_text``."""
        return self.json_text(",", ":")

    def json_text(self, item_sep: str, key_sep: str) -> str:
        """``json.dumps(self.to_json_dict(), sort_keys=True,
        separators=(item_sep, key_sep))``, built directly: keys in sorted
        order and each gene as ``repr`` writes it, which for an int or a
        finite float is what ``json.dumps`` writes (property-tested)."""
        stages = item_sep.join(
            [
                f'{{"depth"{key_sep}{d!r}{item_sep}'
                f'"expands"{key_sep}[{item_sep.join(map(repr, es))}]{item_sep}'
                f'"kernels"{key_sep}[{item_sep.join(map(repr, ks))}]}}'
                for d, ks, es in zip(self.stage_depths, self.kernels, self.expands)
            ]
        )
        return (
            f'{{"resolution"{key_sep}{self.resolution!r}{item_sep}"stages"{key_sep}[{stages}]}}'
        )


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
    field; an empty list means the config is valid.

    A valid config is recognised by set lookups of whole tuples
    (``SupernetSpace._valid_genes``); only a config that fails them, or holds
    an unhashable value, is walked field by field to name the violations.
    """
    if _is_valid(config, space):
        return []
    return _violations(config, space)


def _is_valid(config: SubnetConfig, space: SupernetSpace) -> bool:
    resolutions, depths, kernels, expands = space._valid_genes
    n = space.num_stages
    try:
        return (
            config.resolution in resolutions
            and config.stage_depths in depths
            and len(config.kernels) == n
            and len(config.expands) == n
            and kernels.issuperset(config.kernels)
            and expands.issuperset(config.expands)
        )
    except TypeError:  # an unhashable value; the walk names it if it is invalid
        return False


def _violations(config: SubnetConfig, space: SupernetSpace) -> list[str]:
    violations = []
    if config.resolution not in space.resolution_options:
        violations.append(
            f"resolution: {config.resolution!r} not in resolution_options "
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
                f"stages[{s}].depth: {depth!r} not in depth_options "
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
                        f"stages[{s}].{name}[{j}]: {v!r} not in options {list(options)}"
                    )
    return violations


def require_valid(config: SubnetConfig, space: SupernetSpace) -> None:
    """Raise ValidationError naming every violation ``validate`` lists; a
    valid config costs the set lookups alone (``_is_valid``)."""
    if not _is_valid(config, space):
        violations = _violations(config, space)
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


def _sample_with(
    space: SupernetSpace, rng: random.Random, feasible: "FeasibleSet | PeakBand | None" = None
) -> SubnetConfig:
    # uniform over the space, or over ``feasible``'s members when given one;
    # fixed draw order: resolution, then per stage depth and per-slot genes,
    # one gene per entry of the space's ``uniform_plan``
    if feasible is not None:
        return feasible.sample(rng)
    rnd = rng.random
    genes = tuple([options[int(rnd() * n)] for options, n in space.uniform_plan])
    md = space.max_depth
    step = 1 + 2 * md
    return SubnetConfig(
        genes[0],
        genes[1::step],
        tuple([genes[i : i + md] for i in range(2, len(genes), step)]),
        tuple([genes[i : i + md] for i in range(2 + md, len(genes), step)]),
    )


def _below(getrandbits, n: int) -> int:
    """``rng.randrange(n)`` from ``getrandbits = rng.getrandbits``: the same
    value from the same words, ``getrandbits(n.bit_length())`` until one is
    below ``n``, as CPython 3.10-3.13 draw it; so ``options[_below(
    getrandbits, len(options))]`` is ``rng.choice(options)``.  One frame in
    place of ``randrange``'s or ``choice``'s two.  ``n`` below 1 raises
    ValueError before any draw: ``getrandbits(0)`` is 0, never below ``n``."""
    if n < 1:
        raise ValueError(f"empty range for _below({n})")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def sample_uniform(space: SupernetSpace, seed: int) -> SubnetConfig:
    """Draw each gene uniformly from its option set; deterministic in the
    seed.  Inert slots are drawn too so later depth growth can use them."""
    return _sample_with(space, random.Random(seed))


def mutate(
    config: SubnetConfig,
    space: SupernetSpace,
    prob: float,
    rng: random.Random,
) -> SubnetConfig:
    """Resample each gene independently with probability ``prob``, drawing
    from ``rng`` and from the space's options.  Draw order: the resolution,
    then per stage its depth, its kernel slots and its expand slots; each
    gene takes one ``rng.random()`` and, when it is resampled, its option
    drawn as ``rng.choice`` draws it, from ``rng.getrandbits`` words
    (``_below``)."""
    if not 0 <= prob <= 1:
        raise ValidationError(f"prob must be in [0, 1], got {prob}")
    n = space.num_stages
    if not len(config.stage_depths) == len(config.kernels) == len(config.expands) == n:
        raise ValidationError(
            f"config has {len(config.stage_depths)} depths, {len(config.kernels)} kernel "
            f"and {len(config.expands)} expand stages; the space has {n} stages"
        )
    rnd, bits = rng.random, rng.getrandbits
    r_opts, d_opts = space.resolution_options, space.depth_options
    k_opts, e_opts = space.kernel_options, space.expand_options
    n_d, n_k, n_e = len(d_opts), len(k_opts), len(e_opts)
    resolution = config.resolution
    if rnd() < prob:
        resolution = r_opts[_below(bits, len(r_opts))]
    depths, kernels, expands = [], [], []
    for d, ks, es in zip(config.stage_depths, config.kernels, config.expands):
        depths.append(d_opts[_below(bits, n_d)] if rnd() < prob else d)
        kernels.append(tuple([k_opts[_below(bits, n_k)] if rnd() < prob else k for k in ks]))
        expands.append(tuple([e_opts[_below(bits, n_e)] if rnd() < prob else e for e in es]))
    return SubnetConfig(resolution, tuple(depths), tuple(kernels), tuple(expands))


def _genome_shape(config: SubnetConfig) -> tuple:
    return (
        len(config.stage_depths),
        tuple(map(len, config.kernels)),
        tuple(map(len, config.expands)),
    )


def crossover(a: SubnetConfig, b: SubnetConfig, rng: random.Random) -> SubnetConfig:
    """Gene-wise uniform crossover, each gene's parent drawn from ``rng``
    with one ``rng.random()``, in ``mutate``'s gene order; both parents must
    share one genome shape: stage count and per-stage kernel and expand
    slot counts, with as many depths as kernel and expand stages.

    A parent crossed with itself (``a is b``) returns ``a``, the child every
    draw would give, and takes the same generator words: the two 32-bit
    words of each gene's ``random()``, all in one ``rng.getrandbits``.  The
    test is identity, not equality: equal parents may hold genes that
    serialize differently (``2`` and ``2.0``)."""
    shape_a, shape_b = _genome_shape(a), _genome_shape(b)
    if shape_a != shape_b:
        raise ValidationError(
            f"parents come from different spaces: genome shapes {shape_a} and {shape_b}"
        )
    n_depths, kernel_slots, expand_slots = shape_a
    if not n_depths == len(kernel_slots) == len(expand_slots):
        raise ValidationError(
            f"parents have {n_depths} depths, {len(kernel_slots)} kernel "
            f"and {len(expand_slots)} expand stages"
        )
    if a is b:
        rng.getrandbits(64 * (1 + n_depths + sum(kernel_slots) + sum(expand_slots)))
        return a
    rnd = rng.random
    resolution = a.resolution if rnd() < 0.5 else b.resolution
    depths, kernels, expands = [], [], []
    for da, db, ka, kb, ea, eb in zip(
        a.stage_depths, b.stage_depths, a.kernels, b.kernels, a.expands, b.expands
    ):
        depths.append(da if rnd() < 0.5 else db)
        kernels.append(tuple([x if rnd() < 0.5 else y for x, y in zip(ka, kb)]))
        expands.append(tuple([x if rnd() < 0.5 else y for x, y in zip(ea, eb)]))
    return SubnetConfig(resolution, tuple(depths), tuple(kernels), tuple(expands))


def resolve(
    config: SubnetConfig, space: SupernetSpace, include_classifier: bool = False
) -> NetworkSkeleton:
    """Build the profilable skeleton for a valid configuration, with the
    ``NUM_CLASSES``-class classifier if ``include_classifier``."""
    require_valid(config, space)
    sched = space.schedule
    blocks: list[MBBlockShape] = []
    labels: list[str] = []
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


def _build_peak_table(space: SupernetSpace) -> dict:
    """Map each listed resolution to ``(base, tails, stages)``.

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
        skeleton = resolve(replace(widest, resolution=r), space)
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


def config_peak_items(
    config: SubnetConfig, space: SupernetSpace, include_classifier: bool = False
) -> int:
    """Peak items of a configuration, read from the space's table of
    per-block terms (``SupernetSpace.peak_table``), which is built once from
    ``block_memory`` and the stem and head records.

    The network peak is the maximum of the stem, the head and one term per
    active block, and a block term depends only on the resolution, the
    stage, whether the block is the stage's first, and its own (kernel,
    expand); so this agrees with profiling the resolved skeleton (tested).
    Used on hot paths such as the feasibility check of a search, it checks only
    the genes it reads: an out-of-space resolution, depth or active gene
    raises the ``ValidationError`` of ``require_valid``; inert genes are not
    checked.
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
        # a table miss means the config is outside the space; require_valid
        # names the offending field
        require_valid(config, space)
        raise
    if include_classifier:
        peak = max(peak, _classifier_items(space))
    return peak


def _classifier_items(space: SupernetSpace) -> int:
    """Items of the classifier, the term ``include_classifier`` adds."""
    return classifier_memory(space.schedule.head_width, NUM_CLASSES).total_items


def min_peak_items(space: SupernetSpace, include_classifier: bool = False) -> int:
    """The smallest peak of any configuration of the space, exactly.

    The peak is the maximum of block terms that a configuration chooses
    independently (see ``config_peak_items``), so at one resolution it is
    least when every block takes its cheapest (kernel, expand): the larger
    of the stem and head term, each stage's cheapest transition term and,
    when the smallest depth keeps a later block active, each stage's
    cheapest inner term.  The result is the least of these over the
    resolutions, raised to the classifier term if that counts.
    """

    def cheapest(terms: dict) -> int:
        return min(min(by_expand.values()) for by_expand in terms.values())

    peaks = []
    for peak, _, stages in space.peak_table.values():
        for first, inner in stages:
            peak = max(peak, cheapest(first))
            if space.depth_options[0] > 1:
                peak = max(peak, cheapest(inner))
        peaks.append(peak)
    peak = min(peaks)
    if include_classifier:
        peak = max(peak, _classifier_items(space))
    return peak


def max_peak_items(space: SupernetSpace) -> int:
    """The largest peak of any configuration of the space, exactly: the
    block terms are chosen independently (see ``min_peak_items``), so one
    configuration reaches the largest term of the table at once."""
    return max(
        max([base] + [t for kinds in stages for by_kernel in kinds
                      for by_expand in by_kernel.values() for t in by_expand.values()])
        for base, _, stages in space.peak_table.values()
    )


class FeasibleSet:
    """The configurations of a space whose ``config_peak_items`` is at most
    ``cap``, counted, drawn and repaired exactly.

    The peak is the maximum of a base term set by the resolution and one
    term per active block, each chosen independently (see
    ``config_peak_items``).  So a configuration fits exactly when its
    resolution's base term fits and each active block's (kernel, expand)
    pair fits on its own.  Per resolution whose base term fits and per
    stage, ``F`` holds the pairs whose transition term fits and ``I`` those
    whose inner term fits; inert slots take any pair of ``P``, all pairs.
    A stage of depth ``d`` then has ``|F| * |I|**(d-1) * |P|**(max_depth-d)``
    gene assignments that fit, a resolution the product over its stages of
    their sums over depths, and ``count`` is the sum over the resolutions:
    the exact number of whole genomes, inert genes included, under the cap.
    """

    def __init__(self, space: SupernetSpace, cap: int):
        self.space, self.cap = space, cap
        md = space.max_depth
        pairs = self._pairs = tuple(product(space.kernel_options, space.expand_options))
        self._strata, counts = [], []
        for r, (base, _, stages) in space.peak_table.items():
            if base > cap:
                continue
            count, plan = 1, []
            for first, inner in stages:
                F = [(k, e) for k, e in pairs if first[k][e] <= cap]
                I = [(k, e) for k, e in pairs if md > 1 and inner[k][e] <= cap]
                by_depth = [
                    len(F) * len(I) ** (d - 1) * len(pairs) ** (md - d)
                    for d in space.depth_options
                ]
                count *= sum(by_depth)
                plan.append((list(accumulate(by_depth)), F, I, frozenset(F), frozenset(I)))
            if count:
                self._strata.append((r, plan))
                counts.append(count)
        self._by_resolution = {stratum[0]: stratum for stratum in self._strata}
        self._cumulative = list(accumulate(counts))
        self.count = sum(counts)

    def sample(self, rng: random.Random) -> SubnetConfig:
        """One member, each with the same probability: ``repair`` with every
        gene redrawn, the resolution and then each stage's depth in
        proportion to the members they hold, then each slot's pair uniformly
        from ``F``, ``I`` or ``P``."""
        return self.repair(None, rng)

    def repair(self, config: SubnetConfig | None, rng: random.Random) -> SubnetConfig:
        """``config`` with only the genes that break the cap redrawn, in
        ``sample``'s order and as ``sample`` draws them; ``None`` redraws
        every gene.  A resolution that holds no member, a depth that needs
        an inner pair when ``I`` is empty, and an active slot's pair outside
        ``F`` (transition slot) or ``I`` (later slots) are redrawn; inert
        slots are kept, and so are the kernel and expand tuples of a stage
        that keeps its depth and every active pair.  A member comes back
        equal, with ``rng`` unused.  Each pick is drawn as
        ``rng.randrange`` or ``rng.choice`` draws it, from
        ``rng.getrandbits`` words (``_below``)."""
        if not self.count:
            raise InfeasibleError(f"no configuration fits under {self.cap} items")
        bits = rng.getrandbits
        kept = None if config is None else self._by_resolution.get(config.resolution)
        r, plan = kept or self._strata[bisect_right(self._cumulative, _below(bits, self.count))]
        depth_options, md, pairs = self.space.depth_options, self.space.max_depth, self._pairs
        depths, kernels, expands = [], [], []
        for s, (cumulative, F, I, first_fits, inner_fits) in enumerate(plan):
            if config is None:
                d, old = None, [None] * md
            else:
                d, ks, es = config.stage_depths[s], config.kernels[s], config.expands[s]
                # a depth that needs an inner pair when none fits fails the
                # second test, since it makes a later slot active
                if (ks[0], es[0]) in first_fits and inner_fits.issuperset(zip(ks[1:d], es[1:d])):
                    depths.append(d)
                    kernels.append(ks)
                    expands.append(es)
                    continue
                old = list(zip(ks, es))
            if d is None or (d > 1 and not I):
                d = depth_options[bisect_right(cumulative, _below(bits, cumulative[-1]))]
            genes = (
                [old[0] if old[0] in first_fits else F[_below(bits, len(F))]]
                + [g if g in inner_fits else I[_below(bits, len(I))] for g in old[1:d]]
                + [pairs[_below(bits, len(pairs))] if g is None else g for g in old[d:]]
            )
            ks, es = zip(*genes)
            depths.append(d)
            kernels.append(ks)
            expands.append(es)
        return SubnetConfig(r, tuple(depths), tuple(kernels), tuple(expands))


def _first_reaching(below: list[int], above: list[int]) -> list[int]:
    """Cumulative weights over ``j`` of the members of ``above`` that leave
    ``below`` first at term ``j``: ``prod(below[:j]) * (above[j] -
    below[j]) * prod(above[j + 1:])``, where each term chooses independently
    among ``above[j]`` options, ``below[j]`` of them in ``below``.  The sum
    telescopes, so the ``j``-th cumulative weight is ``prod(above) -
    prod(below[:j + 1]) * prod(above[j + 1:])``, built from prefix and suffix
    products; the last is ``prod(above) - prod(below)``."""
    suffix = list(accumulate(reversed(above), mul, initial=1))[::-1]
    return [suffix[0] - head * tail for head, tail in zip(accumulate(below, mul), suffix[1:])]


class PeakBand:
    """The configurations of a space whose ``config_peak_items`` lies in
    ``lo <= peak <= hi``, counted and drawn exactly.

    The band is ``A \\ B`` with ``A = FeasibleSet(space, hi)`` and ``B =
    FeasibleSet(space, lo - 1)``, so ``count`` is ``A.count - B.count`` (0
    when ``lo > hi``).  A draw reads their stage plans directly.  It picks
    the resolution in proportion to the members it holds.  Where ``B`` holds
    none there (the base term reaches ``lo``, or some stage always does), it
    draws every stage from ``A`` as ``FeasibleSet.sample`` does, consuming
    ``rng`` alike.  Otherwise it picks the first stage ``j`` whose term
    reaches ``lo`` (see ``_first_reaching``), draws the stages before it
    from ``B`` and those after it from ``A``, and within stage ``j`` picks
    the depth in proportion to ``A``'s members less ``B``'s, then the first
    slot that reaches ``lo`` in the same way: that slot takes a pair of
    ``A`` that is not in ``B``, the slots before it pairs of ``B`` and the
    later active ones pairs of ``A``.  Inert slots take any pair."""

    def __init__(self, space: SupernetSpace, lo: int, hi: int):
        self.space, self.lo, self.hi = space, lo, hi
        above, below = FeasibleSet(space, hi), FeasibleSet(space, lo - 1)
        self._pairs = above._pairs
        self._strata, counts = [], []
        for r, plan_a in above._strata:
            counts_a = [stage[0][-1] for stage in plan_a]
            plan_b, firsts, count = None, None, prod(counts_a)
            if r in below._by_resolution:
                plan_b = below._by_resolution[r][1]
                firsts = _first_reaching([stage[0][-1] for stage in plan_b], counts_a)
                count = firsts[-1]
            if count > 0:
                self._strata.append((r, plan_a, plan_b, firsts))
                counts.append(count)
        self._cumulative = list(accumulate(counts))
        self.count = sum(counts)

    def sample(self, rng: random.Random) -> SubnetConfig:
        """One member, each with the same probability; each pick is drawn
        as ``rng.randrange`` or ``rng.choice`` draws it, from
        ``rng.getrandbits`` words (``_below``)."""
        if not self.count:
            raise InfeasibleError(f"no configuration has its peak in [{self.lo}, {self.hi}]")
        bits = rng.getrandbits

        def pick(cumulative: list) -> int:
            return bisect_right(cumulative, _below(bits, cumulative[-1]))

        r, plan_a, plan_b, firsts = self._strata[pick(self._cumulative)]
        j = -1 if plan_b is None else pick(firsts)
        depth_options, md, pairs = self.space.depth_options, self.space.max_depth, self._pairs
        depths, kernels, expands = [], [], []
        for s, (cumulative, F, I, _, _) in enumerate(plan_a):
            if s < j:
                cumulative, F, I, _, _ = plan_b[s]
            if s != j:
                d = depth_options[pick(cumulative)]
                slots = [F] + [I] * (d - 1)
            else:
                cum_b, F_b, I_b, first_b, inner_b = plan_b[s]
                d = depth_options[pick([a - b for a, b in zip(cumulative, cum_b)])]
                slots_a, slots_b = [F] + [I] * (d - 1), [F_b] + [I_b] * (d - 1)
                t = pick(_first_reaching(list(map(len, slots_b)), list(map(len, slots_a))))
                reach = [p for p in slots_a[t] if p not in (inner_b if t else first_b)]
                slots = slots_b[:t] + [reach] + slots_a[t + 1 :]
            ks, es = zip(*[slot[_below(bits, len(slot))] for slot in slots + [pairs] * (md - d)])
            depths.append(d)
            kernels.append(ks)
            expands.append(es)
        return SubnetConfig(r, tuple(depths), tuple(kernels), tuple(expands))
