"""The exact feasible layer, read from ``SupernetSpace.peak_table``: the
peak range of a space, and its configurations under a cap (``FeasibleSet``)
or in a band of peaks (``PeakBand``), counted, drawn and repaired exactly."""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate, product
from math import prod
from operator import mul

from .errors import InfeasibleError
from .space import SubnetConfig, SupernetSpace, _below, _classifier_items, require_valid


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
    Each stage's plan keeps its ``first`` and ``inner`` terms from
    ``SupernetSpace.peak_table``, from which ``repair`` reads a pair's fit,
    and per depth option the lists a draw picks each slot's pair from:
    ``[F] + [I] * (d - 1) + [P] * (max_depth - d)``.
    """

    def __init__(self, space: SupernetSpace, cap: int):
        self.space, self.cap = space, cap
        md = space.max_depth
        pairs = tuple(product(space.kernel_options, space.expand_options))
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
                slots = [[F] + [I] * (d - 1) + [pairs] * (md - d) for d in space.depth_options]
                plan.append((list(accumulate(by_depth)), F, I, first, inner, slots))
            if count:
                self._strata.append((r, plan))
                counts.append(count)
        self._by_resolution = {stratum[0]: stratum for stratum in self._strata}
        self._cumulative = list(accumulate(counts))
        self.count = sum(counts)

    def sample(self, rng: random.Random) -> SubnetConfig:
        """One member, each with the same probability: the resolution and
        then each stage's depth in proportion to the members they hold, then
        each slot's pair uniformly from ``F``, ``I`` or ``P`` (``_draw``)."""
        if not self.count:
            raise InfeasibleError(f"no configuration fits under {self.cap} items")
        bits = rng.getrandbits
        r, plan = self._strata[_pick(bits, self._cumulative)]
        return _draw(self.space, bits, r, plan)

    def repair(self, config: SubnetConfig, rng: random.Random) -> SubnetConfig:
        """``config`` with only the genes that break the cap redrawn, as and
        in the order ``sample`` draws them: a resolution that holds no
        member, then per stage a depth that makes a later slot active when
        ``I`` is empty, then each active slot whose term is over the cap.
        One pass per stage reads the active slots and their terms from the
        peak table, as ``config_peak_items`` does, so an out-of-space
        resolution, depth or active gene raises ``require_valid``'s
        ``ValidationError`` and inert genes are kept unread.  A stage that
        fits keeps its own slot tuple objects, and a member comes back as
        itself, with ``rng`` unused."""
        if not self.count:
            raise InfeasibleError(f"no configuration fits under {self.cap} items")
        space, cap, bits = self.space, self.cap, rng.getrandbits
        try:
            tails = space.peak_table[config.resolution][1]
            kept = self._by_resolution.get(config.resolution)
            r, plan = kept or self._strata[_pick(bits, self._cumulative)]
            redrawn, stages = kept is None, []
            for (cumulative, F, I, first, inner, _), d, ks, es in zip(
                plan, config.stage_depths, config.kernels, config.expands, strict=True
            ):
                active = tails[d]
                # a depth that makes a later slot active cannot fit when no
                # inner pair does
                if active and not I:
                    d = space.depth_options[_pick(bits, cumulative)]
                    active = tails[d]
                    redrawn = True
                # the slot tuples are copied at the first redrawn slot
                new_ks = new_es = None
                if first[ks[0]][es[0]] > cap:
                    new_ks, new_es = list(ks), list(es)
                    new_ks[0], new_es[0] = F[_below(bits, len(F))]
                for j in active:
                    if inner[ks[j]][es[j]] > cap:
                        if new_ks is None:
                            new_ks, new_es = list(ks), list(es)
                        new_ks[j], new_es[j] = I[_below(bits, len(I))]
                if new_ks is not None:
                    redrawn, ks, es = True, tuple(new_ks), tuple(new_es)
                stages.append((d, ks, es))
        except (KeyError, IndexError, TypeError, ValueError):
            # a table miss: require_valid names the field outside the space
            require_valid(config, space)
            raise
        # zip(*stages) gives the depth, kernel and expand tuples
        return SubnetConfig(r, *zip(*stages)) if redrawn else config


def _pick(bits, cumulative: list) -> int:
    """An index drawn in proportion to the weights whose running sums are
    ``cumulative``, as ``rng.randrange`` draws it (``_below``)."""
    return bisect_right(cumulative, _below(bits, cumulative[-1]))


def _draw(
    space: SupernetSpace, bits, r: int, plan_a: list, plan_b=None, j=-1, band=None
) -> SubnetConfig:
    """A member of resolution ``r`` drawn from ``FeasibleSet`` stage plans:
    per stage its depth in proportion to its members, then one pair per
    slot from the slot lists its plan keeps for that depth.  With ``j = -1``
    every stage is drawn from ``plan_a``, as ``FeasibleSet.sample`` draws;
    ``PeakBand.sample`` passes its first stage ``j`` to reach its ``lo``,
    draws the stages before it from ``plan_b``, and stage ``j`` from
    ``band``, that stage's ``_band_stage``."""
    depth_options, stages = space.depth_options, []
    for s, stage in enumerate(plan_a):
        if s < j:
            stage = plan_b[s]
        if s != j:
            i = _pick(bits, stage[0])
            slots = stage[5][i]
        else:
            cumulative, by_depth = band
            i = _pick(bits, cumulative)
            firsts, by_first = by_depth[i]
            slots = by_first[_pick(bits, firsts)]
        ks, es = zip(*[slot[_below(bits, len(slot))] for slot in slots])
        stages.append((depth_options[i], ks, es))
    return SubnetConfig(r, *zip(*stages))


def _band_stage(depth_options: tuple, stage_a: tuple, stage_b: tuple, lo: int) -> tuple:
    """``(cumulative, by_depth)`` for the stage ``j`` of a ``PeakBand`` draw,
    whose terms first reach ``lo`` there, from that stage's plans in ``A``
    and ``B``: the depth weights of ``A``'s members less ``B``'s, and per
    depth the ``_first_reaching`` weights of its active slots with, per
    slot ``t`` that first reaches ``lo``, the slot lists of the draw:
    ``B``'s before ``t``, the pairs of ``A`` whose term reaches ``lo`` at
    ``t``, and ``A``'s after it, inert slots included."""
    cum_a, F, I, first, inner, slots_a = stage_a
    cum_b, slots_b = stage_b[0], stage_b[5]
    reach = (
        [(k, e) for k, e in F if first[k][e] >= lo],
        [(k, e) for k, e in I if inner[k][e] >= lo],
    )
    by_depth = []
    for d, a, b in zip(depth_options, slots_a, slots_b):
        firsts = _first_reaching(list(map(len, b[:d])), list(map(len, a[:d])))
        by_depth.append((firsts, [b[:t] + [reach[t > 0]] + a[t + 1 :] for t in range(d)]))
    return [x - y for x, y in zip(cum_a, cum_b)], by_depth


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
    draws every stage from ``A`` with ``FeasibleSet.sample``'s stage draw
    (``_draw``), consuming ``rng`` alike.  Otherwise it picks the first
    stage ``j`` whose term reaches ``lo`` (see ``_first_reaching``), draws
    the stages before it from ``B`` and those after it from ``A``, and
    within stage ``j`` picks the depth in proportion to ``A``'s members
    less ``B``'s, then the first slot that reaches ``lo`` in the same way:
    that slot takes a pair of ``A`` that is not in ``B``, the slots before
    it pairs of ``B`` and the later active ones pairs of ``A``.  Inert
    slots take any pair.  The weights and slot lists of each stage ``j``'s
    draw are built here, once per band (``_band_stage``), so a draw only
    picks."""

    def __init__(self, space: SupernetSpace, lo: int, hi: int):
        self.space, self.lo, self.hi = space, lo, hi
        above, below = FeasibleSet(space, hi), FeasibleSet(space, lo - 1)
        self._strata, counts = [], []
        for r, plan_a in above._strata:
            counts_a = [stage[0][-1] for stage in plan_a]
            plan_b, firsts, bands, count = None, None, None, prod(counts_a)
            if r in below._by_resolution:
                plan_b = below._by_resolution[r][1]
                firsts = _first_reaching([stage[0][-1] for stage in plan_b], counts_a)
                count = firsts[-1]
                bands = [
                    _band_stage(space.depth_options, a, b, lo) for a, b in zip(plan_a, plan_b)
                ]
            if count > 0:
                self._strata.append((r, plan_a, plan_b, firsts, bands))
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
        r, plan_a, plan_b, firsts, bands = self._strata[_pick(bits, self._cumulative)]
        if plan_b is None:
            return _draw(self.space, bits, r, plan_a)
        j = _pick(bits, firsts)
        return _draw(self.space, bits, r, plan_a, plan_b, j, bands[j])
