"""Evolutionary search over the subnet space under a hard peak-memory cap.

Infeasible candidates are repaired rather than penalized: the memory cap
models a device limit, so every individual ever admitted to the population
satisfies it.  The initial population is drawn exactly and uniformly from
the configurations under the cap (``feasible.FeasibleSet``), so a cap at or
above the space's smallest peak always yields one.  A child's one check is
that set's ``repair``: a child under the cap comes back as itself, and one
over it has only the genes that break it redrawn from that set.  Runs are
deterministic in the seed: one ``random.Random(seed)`` makes every draw of a
search (initial population, parent picks, mutation, crossover and repair),
and candidates are processed in a fixed order.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InfeasibleError, ValidationError, json_field
from .feasible import FeasibleSet, max_peak_items, min_peak_items
from .space import (
    SubnetConfig,
    SupernetSpace,
    _below,
    _sample_with,
    config_peak_items,
    crossover,
    mutate,
)

Scorer = Callable[[SubnetConfig], float]


@dataclass(frozen=True)
class SearchConstraint:
    """Hard cap on per-layer items.  The classifier stays out of the peak by
    default, matching how constrained deployments replace it per task."""

    max_peak_items: int
    exclude_classifier: bool = True

    def __post_init__(self):
        if self.max_peak_items < 1:
            raise ValidationError("max_peak_items must be positive")


@dataclass(frozen=True)
class SearchParams:
    population: int = 100
    generations: int = 50
    parent_fraction: float = 0.25
    mutation_prob: float = 0.1
    mutation_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.population < 2 or self.generations < 1:
            raise ValidationError("population must be >= 2 and generations >= 1")
        for name in ("parent_fraction", "mutation_prob", "mutation_fraction"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValidationError(f"{name} must lie in (0, 1), got {v}")


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_score: float
    mean_score: float


@dataclass(frozen=True)
class SearchResult:
    best_config: SubnetConfig
    best_score: float
    best_peak_items: int
    history: tuple[GenerationStats, ...]
    evaluations: int

    def to_json_dict(self) -> dict:
        return {
            "best_config": self.best_config.to_json_dict(),
            "best_score": self.best_score,
            "best_peak_items": self.best_peak_items,
            "history": [
                {
                    "generation": h.generation,
                    "best_score": h.best_score,
                    "mean_score": h.mean_score,
                }
                for h in self.history
            ],
            "evaluations": self.evaluations,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SearchResult":
        config = json_field(d, "best_config", dict)
        try:
            config = SubnetConfig.from_json_dict(config)
        except ValidationError as exc:
            raise ValidationError(f"best_config.{exc}") from None
        return cls(
            best_config=config,
            best_score=json_field(d, "best_score"),
            best_peak_items=json_field(d, "best_peak_items"),
            history=tuple(
                GenerationStats(
                    json_field(h, "generation", path="history", index=i),
                    json_field(h, "best_score", path="history", index=i),
                    json_field(h, "mean_score", path="history", index=i),
                )
                for i, h in enumerate(json_field(d, "history", list))
            ),
            evaluations=json_field(d, "evaluations"),
        )


def _fresh_feasible(space, rng, feasible: FeasibleSet) -> SubnetConfig:
    """One exact uniform draw from ``feasible``, the configurations under
    the cap, checked against ``feasible.cap``."""
    config = _sample_with(space, rng, feasible)
    if config_peak_items(config, space) > feasible.cap:
        raise RuntimeError(f"a draw from the feasible set is over the cap: {config}")
    return config


def search(
    space: SupernetSpace,
    constraint: SearchConstraint,
    scorer: Scorer,
    params: SearchParams,
) -> SearchResult:
    """Evolve a feasible population and return the best-scoring individual
    ever seen, deterministically in ``params.seed``.

    Each generation keeps the top ``parent_fraction`` by score, in rank
    order, and refills the rest with mutation (``mutation_fraction`` of the
    children) and gene-wise crossover, both drawing from the search's one
    generator in child order; a crossover takes one ``getrandbits`` call,
    the words of one ``random()`` per gene.  Each child is proposed once and, unless it
    is known, checked once, by ``FeasibleSet.repair``: a child under the cap
    comes back as itself, with no draw, and one over it has the genes that
    break the cap redrawn from the configurations under it and the rest
    kept; mutation and crossover pass the slot tuples a child inherits
    unchanged through as the parents' own objects.  A child equal to a
    config already in its generation, a parent or an earlier child after
    repair, is known to fit and is not checked again, and is replaced by
    that config's object: each distinct config of a generation is one
    object, so a crossover of two equal parents is one of a parent with
    itself, which makes that one call and returns that parent.  At a cap of
    ``max_peak_items(space)`` or more every config fits, and no child is
    checked.  No child's peak is walked: ``config_peak_items`` checks each
    initial draw and gives the answer's peak.  The initial population is
    exactly uniform over the configurations under the cap.  ``evaluations``
    counts the initial draws plus the proposed children, so at every cap it
    is ``population + generations * (population - n_parents)``, where
    ``n_parents`` is the number of parents kept.

    A cap below the space's smallest achievable peak (``min_peak_items``)
    raises InfeasibleError before anything is drawn or scored, with that
    exact minimum as ``tightest_peak``; any other cap is feasible.

    ``scorer`` must be pure, a function of the config alone: a draw or a
    child equal to a config already in its generation (an earlier draw, a
    parent or an earlier child) reuses that score instead of being scored
    again.
    """
    cap = constraint.max_peak_items
    include_classifier = not constraint.exclude_classifier
    floor = min_peak_items(space, include_classifier)
    if cap < floor:
        raise InfeasibleError(
            f"no configuration fits under {cap} items: the smallest achievable "
            f"peak is {floor}",
            tightest_peak=floor,
        )

    # when the classifier counts, ``floor`` holds it, so it fits under the
    # cap: a config fits exactly when its peak without the classifier does,
    # and the configurations under the cap are ``FeasibleSet``'s, which
    # leaves it out
    feasible_set = FeasibleSet(space, cap)
    # no configuration of the space peaks above max_peak_items, so at such a
    # cap no child needs its fit checked
    check_children = cap < max_peak_items(space)
    rng = random.Random(params.seed)
    # parent picks are drawn as ``rng.randrange`` draws them (``_below``)
    bits = rng.getrandbits
    # each config of a generation, all under the cap, mapped to its one
    # object and its score; keys are whole configs, inert genes included,
    # since a scorer may read them (the noisy oracle hashes them)
    known: dict[SubnetConfig, tuple[SubnetConfig, float]] = {}
    population, scores = [], []
    for _ in range(params.population):
        config = _fresh_feasible(space, rng, feasible_set)
        entry = known.get(config)
        if entry is None:
            entry = known[config] = (config, scorer(config))
        config, score = entry
        population.append(config)
        scores.append(score)

    n_parents = max(1, round(params.parent_fraction * params.population))
    n_children = params.population - n_parents
    n_mutation = round(params.mutation_fraction * n_children)

    history: list[GenerationStats] = []

    for gen in range(params.generations):
        order = sorted(range(len(population)), key=lambda i: (-scores[i], i))
        history.append(
            GenerationStats(
                generation=gen,
                best_score=scores[order[0]],
                mean_score=sum(scores) / len(scores),
            )
        )
        parents = [population[i] for i in order[:n_parents]]
        scores = [scores[i] for i in order[:n_parents]]
        # rebuilt each generation: kept for the whole search, the table keeps every
        # config alive, so the cyclic collector runs ~30x as often and a search ran
        # 9-13% slower (14 paired runs on a 2-core VM; figures in CHANGES.md)
        known = {p: (p, s) for p, s in zip(parents, scores)}
        population = parents.copy()
        for i in range(n_children):
            if i < n_mutation:
                parent = parents[_below(bits, n_parents)]
                child = mutate(parent, space, params.mutation_prob, rng)
            else:
                a = parents[_below(bits, n_parents)]
                b = parents[_below(bits, n_parents)]
                child = crossover(a, b, rng)
            entry = known.get(child)
            if entry is None:
                if check_children:
                    fit = feasible_set.repair(child, rng)
                    if fit is not child:
                        child = fit
                        entry = known.get(child)
                if entry is None:
                    entry = known[child] = (child, scorer(child))
            child, score = entry
            population.append(child)
            scores.append(score)

    # parents lead the population in rank order, so the first best of the
    # last population is the first best ever seen
    best_config, best_score = max(zip(population, scores), key=lambda cs: cs[1])
    best_peak = config_peak_items(best_config, space, include_classifier=include_classifier)
    assert best_peak <= cap
    return SearchResult(
        best_config=best_config,
        best_score=best_score,
        best_peak_items=best_peak,
        history=tuple(history),
        evaluations=params.population + params.generations * n_children,
    )


@dataclass(frozen=True)
class SweepPoint:
    constraint_items: int
    result: SearchResult | None
    error: str | None = None


def sweep(
    space: SupernetSpace,
    constraints: Sequence[int],
    scorer: Scorer,
    params: SearchParams,
    exclude_classifier: bool = True,
) -> list[SweepPoint]:
    """One search per constraint level, ascending.  Infeasible levels are
    recorded and the sweep continues."""
    if list(constraints) != sorted(constraints):
        raise ValidationError("constraints must be sorted ascending")
    points = []
    for level in constraints:
        constraint = SearchConstraint(
            max_peak_items=level, exclude_classifier=exclude_classifier
        )
        try:
            points.append(
                SweepPoint(level, search(space, constraint, scorer, params))
            )
        except InfeasibleError as exc:
            points.append(SweepPoint(level, None, error=str(exc)))
    return points


def write_sweep_csv(points: Sequence[SweepPoint], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["constraint_items", "best_score", "best_peak_items", "evaluations"])
    for p in points:
        if p.result is None:
            writer.writerow([p.constraint_items, "", "", ""])
        else:
            writer.writerow(
                [
                    p.constraint_items,
                    repr(p.result.best_score),
                    p.result.best_peak_items,
                    p.result.evaluations,
                ]
            )
