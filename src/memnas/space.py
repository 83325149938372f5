"""The subnet configuration space and its genome operations.

A configuration picks an input resolution, a depth per stage, and a kernel
size and expand ratio per layer slot.  Slot lists always carry entries for
the maximum depth; entries beyond a stage's active depth are inert genes
that survive sampling and mutation but never affect the resolved network.

Resolving a configuration yields a profilable skeleton: stem (stride 2),
then each stage's active blocks, then the head.  The blocks are read from
the space's table of block shapes (``SupernetSpace.block_table``), laid out
once by ``planner.stage_shapes``, the stage builder the planner balances
with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import chain, product
from operator import attrgetter, is_, itemgetter
from typing import TYPE_CHECKING

from .errors import (
    FieldError,
    ResolutionError,
    ValidationError,
    json_field,
    require_number,
)
from .memory import (
    NUM_CLASSES,
    MBBlockShape,
    NetworkSkeleton,
    classifier_memory,
    expanded_channels,
    head_memory,
    stem_memory,
)
from .planner import (
    MAX_EXTENT,
    NUM_STAGES,
    ChannelSchedule,
    ReferenceConfig,
    plan_schedule,
    stage_shapes,
)

if TYPE_CHECKING:
    from .feasible import FeasibleSet, PeakBand

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
    def block_table(self) -> dict:
        """The shape of every block a valid config can hold, built on first
        use; see ``_build_block_table``."""
        return _build_block_table(self)

    @cached_property
    def peak_table(self) -> dict:
        """Per-block peak terms of every listed resolution, built on first
        use from shapes and records alone; see ``_build_peak_table``."""
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
        """``predictor._layout`` of the positions ``encode`` sets."""
        from .predictor import _layout

        return _layout(self, int, tuple)

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
            expand_options=_one_spelling(json_field(d, "expand_options", list)),
            resolution_options=tuple(json_field(d, "resolution_options", list)),
        )


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
        noisy oracle, differently.  A resolution, depth or kernel given as
        a float (``2.0``) is refused the same way: it would pass the option
        check too, yet a float depth cannot count blocks.  Expands may be
        rational, so they take floats, and read ``4.0`` as ``4``
        (``_one_spelling``): equal configs write one text.

        A well-formed config is read in one pass: the set of types of its
        objects, of its gene lists and of its genes is checked against the
        JSON types each may hold.  Only a config that fails this pass is
        walked field by field (``_from_json_walk``), which returns it or
        names the field at fault; the two agree on every input
        (property-tested)."""
        try:
            stages = d["stages"]
            if type(d) is dict and type(stages) is list and set(map(type, stages)) <= _DICT:
                depths = tuple([s["depth"] for s in stages])
                kernels = tuple([s["kernels"] for s in stages])
                expands = tuple([s["expands"] for s in stages])
                resolution = d["resolution"]
                if (
                    set(map(type, kernels + expands)) <= _LIST
                    and set(map(type, chain((resolution,), depths, *kernels))) <= _INTEGER
                    and (expand_types := set(map(type, chain(*expands)))) <= _NUMBER
                ):
                    slots = tuple if expand_types <= _INTEGER else _one_spelling
                    return cls(
                        resolution, depths, tuple(map(tuple, kernels)), tuple(map(slots, expands))
                    )
        except (KeyError, TypeError):
            pass
        return cls._from_json_walk(d)

    @classmethod
    def _from_json_walk(cls, d) -> "SubnetConfig":
        """``from_json_dict`` field by field, with ``json_field`` and one
        check per gene; a path is built only for an error."""

        def gene(value, integer: bool, path: str, *args):
            """``value``, unless it is a bool, or a float where ``integer``;
            ``path.format(*args)`` names it"""
            if type(value) is bool:
                raise FieldError(f"{path.format(*args)}: expected a number, got {value!r}")
            if integer and type(value) is float:
                raise FieldError(f"{path.format(*args)}: expected an integer, got {value!r}")
            return value

        def genes(s: dict, i: int, key: str, integer: bool) -> tuple:
            values = json_field(s, key, list, "stages", i)
            path = "stages[{}].{}[{}]"
            return tuple([gene(v, integer, path, i, key, j) for j, v in enumerate(values)])

        stages = [
            (
                gene(json_field(s, "depth", path="stages", index=i), True, "stages[{}].depth", i),
                genes(s, i, "kernels", True),
                _one_spelling(genes(s, i, "expands", False)),
            )
            for i, s in enumerate(json_field(d, "stages", list))
        ]
        return cls(
            resolution=gene(json_field(d, "resolution"), True, "resolution"),
            stage_depths=tuple(depth for depth, _, _ in stages),
            kernels=tuple(ks for _, ks, _ in stages),
            expands=tuple(es for _, _, es in stages),
        )

    def canonical_json(self) -> str:
        """``json.dumps(self.to_json_dict(), sort_keys=True, separators=(",",
        ":"))``, built directly: keys in sorted order and each gene as
        ``repr`` writes it, which for an int or a finite float is what
        ``json.dumps`` writes (property-tested).  The text is built once per
        instance, on the first call, and kept in the instance's ``__dict__``;
        the config is frozen, so it cannot go stale, and equality, hashing
        and ``dataclasses.replace`` read the fields alone."""
        text = self.__dict__.get("_json")
        if text is None:
            stages = ",".join(
                [
                    f'{{"depth":{d!r},"expands":[{",".join(map(repr, es))}],'
                    f'"kernels":[{",".join(map(repr, ks))}]}}'
                    for d, ks, es in zip(self.stage_depths, self.kernels, self.expands)
                ]
            )
            text = f'{{"resolution":{self.resolution!r},"stages":[{stages}]}}'
            self.__dict__["_json"] = text
        return text


def _one_spelling(expands) -> tuple:
    """``expands`` read from JSON, a config's or a space's, each integral
    float in an expand's range as its int: ``4.0`` as ``4``."""
    return tuple(
        [int(e) if type(e) is float and e.is_integer() and 0 < e <= MAX_EXTENT else e
         for e in expands]
    )


# the JSON types ``SubnetConfig.from_json_dict`` reads in its one pass
_DICT, _LIST = frozenset([dict]), frozenset([list])
_INTEGER, _NUMBER = frozenset([int]), frozenset([int, float])


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
    (``SupernetSpace._valid_genes``) and the type of its depths' sum, since
    ``2.0`` equals ``2``; only a config that fails them, or holds an
    unhashable value, is walked field by field to name the violations.
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
            and type(sum(config.stage_depths)) is int  # no depth 2.0, cheaply
            and isinstance(config.kernels, tuple)
            and isinstance(config.expands, tuple)
            and len(config.kernels) == n
            and len(config.expands) == n
            and kernels.issuperset(config.kernels)
            and expands.issuperset(config.expands)
        )
    except TypeError:  # an unhashable value; the walk names it if it is invalid
        return False


def _not_tuple(path: str, genes) -> str | None:
    """The violation of a gene container that is not a tuple, or None.  The
    tables of a space and the search's reuse table key whole slot tuples and
    whole configs, so a list there would raise TypeError, not name itself."""
    if not isinstance(genes, tuple):
        return f"{path}: expected a tuple, got {type(genes).__name__}"
    return None


def _violations(config: SubnetConfig, space: SupernetSpace) -> list[str]:
    violations = []
    if config.resolution not in space.resolution_options:
        violations.append(
            f"resolution: {config.resolution!r} not in resolution_options "
            f"{list(space.resolution_options)}"
        )
    for name, lists in (("kernels", config.kernels), ("expands", config.expands)):
        if message := _not_tuple(name, lists):
            violations.append(message)
        elif len(lists) != space.num_stages:
            violations.append(
                f"{name}: expected {space.num_stages} stages, got {len(lists)}"
            )
    if message := _not_tuple("stage_depths", config.stage_depths):
        violations.append(message)
        return violations
    if len(config.stage_depths) != space.num_stages:
        violations.append(
            f"stage_depths: expected {space.num_stages} stages, got "
            f"{len(config.stage_depths)}"
        )
        return violations
    for s, depth in enumerate(config.stage_depths):
        if not isinstance(depth, int):
            violations.append(f"stages[{s}].depth: expected an integer, got {depth!r}")
        elif depth not in space.depth_options:
            violations.append(
                f"stages[{s}].depth: {depth!r} not in depth_options "
                f"{list(space.depth_options)}"
            )
    for name, lists, options in (
        ("kernels", config.kernels, space.kernel_options),
        ("expands", config.expands, space.expand_options),
    ):
        for s, inner in enumerate(lists[: space.num_stages]):
            if message := _not_tuple(f"stages[{s}].{name}", inner):
                violations.append(message)
                continue
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
    space: SupernetSpace, rng: random.Random, feasible: FeasibleSet | PeakBand | None = None
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
    (``_below``).  A slot tuple with no resampled gene is passed through:
    the child holds the parent's own tuple object."""
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
    resolution = config.resolution
    if rnd() < prob:
        resolution = r_opts[_below(bits, len(r_opts))]
    depths, kernels, expands = [], [], []
    for d, ks, es in zip(config.stage_depths, config.kernels, config.expands):
        depths.append(d_opts[_below(bits, len(d_opts))] if rnd() < prob else d)
        kernels.append(_resample(ks, k_opts, prob, rnd, bits))
        expands.append(_resample(es, e_opts, prob, rnd, bits))
    return SubnetConfig(resolution, tuple(depths), tuple(kernels), tuple(expands))


def _resample(slots: tuple, options: tuple, prob: float, rnd, bits) -> tuple:
    """``slots`` with each gene resampled from ``options`` with probability
    ``prob``, as ``mutate`` draws them; ``slots`` itself when no gene is,
    and a copy made at the first gene that is."""
    new, j = slots, 0
    for _ in slots:
        if rnd() < prob:
            if new is slots:
                new = list(slots)
            new[j] = options[_below(bits, len(options))]
        j += 1
    return slots if new is slots else tuple(new)


def _genome_shape(c: SubnetConfig) -> tuple:
    return len(c.stage_depths), tuple(map(len, c.kernels)), tuple(map(len, c.expands))


_COINS = bytes(i >> 7 for i in range(256))  # a byte's top bit


class _Selectors(dict):
    """Maps the coins of a slot tuple, one 0/1 byte per slot, to the getter
    of a crossover child's tuple from ``x + y``: slot ``i`` from ``y`` when
    its coin is 1.  Built on the first lookup; one slot takes a slice, so
    that the getter returns a tuple, not a gene."""

    def __missing__(self, coins: bytes) -> itemgetter:
        p = [i + len(coins) * c for i, c in enumerate(coins)]
        self[coins] = get = itemgetter(*p) if len(p) > 1 else itemgetter(slice(p[0], p[0] + 1))
        return get


_SELECT = _Selectors()


def crossover(a: SubnetConfig, b: SubnetConfig, rng: random.Random) -> SubnetConfig:
    """Gene-wise uniform crossover in ``mutate``'s gene order; both parents
    must share one genome shape (stage count, per-stage kernel and expand
    slot counts, as many depths as stages), or ValidationError is raised
    before any draw.  The draws are one ``rng.getrandbits(64 * n)`` for
    ``n`` genes, the words of one ``rng.random()`` per gene: gene ``g`` is
    ``b``'s when its ``random()`` would be 0.5 or more, so when the top bit
    of word ``2g`` is set.  Then ``a is b`` returns ``a``, the child every
    draw would give, and a kernel or expand slot tuple is passed through as
    ``a``'s object when both parents hold it as one object or hold the
    same gene objects in it.  The tests are identity, not equality: equal
    parents or tuples may hold genes that serialize differently (``2`` and
    ``2.0``)."""
    n = len(a.stage_depths)
    shape = [n, len(a.kernels), *map(len, a.kernels), *map(len, a.expands)]
    if shape != [len(b.stage_depths), len(b.kernels), *map(len, b.kernels), *map(len, b.expands)]:
        raise ValidationError(
            f"parents come from different spaces: genome shapes {_genome_shape(a)} "
            f"and {_genome_shape(b)}"
        )
    if not n == len(a.kernels) == len(a.expands):
        raise ValidationError(
            f"parents have {n} depths, {len(a.kernels)} kernel and {len(a.expands)} expand stages"
        )
    genes = 1 + sum(shape) - n  # the resolution, then per stage a depth and its slots
    words = rng.getrandbits(64 * genes)
    if a is b:
        return a
    coins = words.to_bytes(8 * genes, "little")[3::8].translate(_COINS)
    select, i = _SELECT, 1
    depths, kernels, expands = [], [], []
    for da, db, ka, kb, ea, eb in zip(
        a.stage_depths, b.stage_depths, a.kernels, b.kernels, a.expands, b.expands
    ):
        depths.append(db if coins[i] else da)
        j = i + 1 + len(ka)
        pass_k = ka is kb or (ka == kb and all(map(is_, ka, kb)))
        kernels.append(ka if pass_k else select[coins[i + 1 : j]](ka + kb))
        i = j + len(ea)
        pass_e = ea is eb or (ea == eb and all(map(is_, ea, eb)))
        expands.append(ea if pass_e else select[coins[j:i]](ea + eb))
    resolution = b.resolution if coins[0] else a.resolution
    return SubnetConfig(resolution, tuple(depths), tuple(kernels), tuple(expands))


def resolve(
    config: SubnetConfig, space: SupernetSpace, include_classifier: bool = False
) -> NetworkSkeleton:
    """Build the profilable skeleton for a valid configuration, with the
    ``NUM_CLASSES``-class classifier if ``include_classifier``.

    An invalid config raises the ``ValidationError`` of ``require_valid``;
    a valid one takes each active block's shape, and each stage's labels,
    from the space's ``block_table``, so equal blocks share one checked
    shape.  The skeleton still checks its chain."""
    require_valid(config, space)
    blocks: list[MBBlockShape] = []
    labels: list[str] = []
    for (first, inner, names), depth, ks, es in zip(
        space.block_table[config.resolution], config.stage_depths, config.kernels, config.expands
    ):
        blocks.append(first[ks[0]][es[0]])
        for j in range(1, depth):
            blocks.append(inner[ks[j]][es[j]])
        labels += names[depth]
    sched = space.schedule
    return NetworkSkeleton(
        resolution=config.resolution,
        stem_width=sched.stem_width,
        blocks=tuple(blocks),
        head_width=sched.head_width,
        include_classifier=include_classifier,
        block_labels=tuple(labels),
    )


def _build_block_table(space: SupernetSpace) -> dict:
    """Map each listed resolution to per stage ``(first, inner, labels)``.

    ``first[k][e]`` and ``inner[k][e]`` are the shapes of the stage's
    transition block and of a later block with kernel ``k`` and expand ``e``
    (``inner`` is empty when the largest depth is 1), as
    ``planner.stage_shapes`` lays them out; ``labels[d]`` names the stage's
    first ``d`` blocks.  A block's shape depends only on the resolution, the
    stage, whether the block is the stage's first and its own (kernel,
    expand), so these shapes are every block a valid config can hold."""
    sched = space.schedule
    # the transition block and, if a stage can hold more, one later block:
    # the later blocks of a stage with equal genes are equal
    laid_out = min(space.max_depth, 2)
    labels = [
        {d: tuple(f"stage{s + 1}.block{j}" for j in range(1, d + 1)) for d in space.depth_options}
        for s in range(space.num_stages)
    ]
    table = {}
    for r in space.resolution_options:
        stages, prev_width = [], sched.stem_width
        for s, width in enumerate(sched.stage_widths):
            downsample = s < space.num_stages - 1
            first, inner = {}, {}
            for k, e in product(space.kernel_options, space.expand_options):
                genes = [(k, e)] * laid_out
                blocks = stage_shapes(prev_width, width, r >> (s + 1), downsample, genes)
                for shapes, shape in zip((first, inner), blocks):
                    shapes.setdefault(k, {})[e] = shape
            stages.append((first, inner, labels[s]))
            prev_width = width
        table[r] = tuple(stages)
    return table


def _block_terms(stages: tuple, term) -> tuple:
    """Per stage of ``stages``, one resolution's entry of
    ``SupernetSpace.block_table``, ``(first, inner)`` with ``term`` of each
    shape in its place."""

    def by_gene(shapes: dict) -> dict:
        return {k: {e: term(b) for e, b in by_expand.items()} for k, by_expand in shapes.items()}

    return tuple((by_gene(first), by_gene(inner)) for first, inner, _ in stages)


def _build_peak_table(space: SupernetSpace) -> dict:
    """Map each listed resolution to ``(base, tails, stages)``.

    ``base`` is the larger of the stem and head totals, which depend only on
    the resolution; ``tails[depth]`` is the range of slots after the first
    that a depth makes active; ``stages`` holds per stage ``(first, inner)``,
    where ``first[k][e]`` and ``inner[k][e]`` are the ``peak_items`` of the
    shapes of the transition block and of a later block with kernel ``k``
    and expand ``e``.  The stem and head totals are memory's stem and head
    records, the head on the last stage's transition shape, whose width and
    output size every last block shares: all are ``profile_network``'s.
    """
    tails = {d: range(1, d) for d in space.depth_options}
    k, e = space.kernel_options[0], space.expand_options[0]
    table = {}
    for r, stages in space.block_table.items():
        stem = stem_memory(r, space.schedule.stem_width).total_items
        head = head_memory(stages[-1][0][k][e], space.schedule.head_width).total_items
        table[r] = (max(stem, head), tails, _block_terms(stages, attrgetter("peak_items")))
    return table


def config_peak_items(
    config: SubnetConfig, space: SupernetSpace, include_classifier: bool = False
) -> int:
    """Peak items of a configuration, read from the space's table of
    per-block terms (``SupernetSpace.peak_table``), which is built once from
    the block shapes' peak terms and the stem and head records.

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
