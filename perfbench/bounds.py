"""Certified optima under a peak-memory cap, computed from public calls.

The network peak is the maximum of a stem term, a head term and one term per
active block.  A block term depends only on the resolution, the block's stage
and slot, and the slot's own (kernel, expand), and every term grows with
kernel, expand and depth.  So, per resolution, a configuration fits under a
cap exactly when each stage fits with every other stage at its smallest
options, and a stage fits exactly when each active slot fits with the
stage's other slots at their smallest options.  FLOPs and the ridge
predictor are sums over the same blocks, so their maximum over the feasible
set is found stage by stage and slot by slot.

The probes go through ``config_peak_items`` and the objective itself, never a
copy of the memory formulas, so the bounds check the package rather than
restate it.
"""

from __future__ import annotations

import math
from itertools import product

from memnas.memory import flops_estimate
from memnas.predictor import ALPHA, BETA, predict
from memnas.space import SubnetConfig, config_peak_items, resolve


def minimal(space, resolution: int | None = None) -> SubnetConfig:
    """Every option at its smallest, at ``resolution`` (default: the lowest),
    which is the configuration with the smallest peak and the fewest FLOPs."""
    if resolution is None:
        resolution = min(space.resolution_options)
    md = space.max_depth
    return SubnetConfig(
        resolution=resolution,
        stage_depths=(space.depth_options[0],) * space.num_stages,
        kernels=((space.kernel_options[0],) * md,) * space.num_stages,
        expands=((space.expand_options[0],) * md,) * space.num_stages,
    )


def _with_stage(config: SubnetConfig, stage: int, depth: int, kernels, expands):
    def put(seq, value):
        return seq[:stage] + (tuple(value),) + seq[stage + 1 :]

    return SubnetConfig(
        resolution=config.resolution,
        stage_depths=config.stage_depths[:stage] + (depth,) + config.stage_depths[stage + 1 :],
        kernels=put(config.kernels, kernels),
        expands=put(config.expands, expands),
    )


def argmax_under_cap(space, cap: int, objective) -> SubnetConfig | None:
    """The configuration that maximises ``objective`` among those whose peak
    (classifier excluded) is at most ``cap``, or None when none fits.

    ``objective`` must be a sum of a resolution term and one term per active
    block, each depending only on that block's (kernel, expand); FLOPs and
    the ridge predictor are.  Ties go to the first option in space order.
    """
    best, best_value = None, -math.inf
    pairs = list(product(space.kernel_options, space.expand_options))
    for r in space.resolution_options:
        base = minimal(space, r)
        if config_peak_items(base, space) > cap:
            continue
        base_value = objective(base)
        stages = []
        for s in range(space.num_stages):
            ks, es = list(base.kernels[s]), list(base.expands[s])
            choice, choice_gain = None, -math.inf
            for d in space.depth_options:
                probe = _with_stage(base, s, d, ks, es)
                if config_peak_items(probe, space) > cap:
                    continue
                probe_value = objective(probe)
                gain = probe_value - base_value
                genes = [(ks[j], es[j]) for j in range(space.max_depth)]
                for j in range(d):
                    slot_gain = 0.0
                    for k, e in pairs:
                        trial = _with_stage(
                            base, s, d, ks[:j] + [k] + ks[j + 1 :], es[:j] + [e] + es[j + 1 :]
                        )
                        if config_peak_items(trial, space) > cap:
                            continue
                        g = objective(trial) - probe_value
                        if g > slot_gain:
                            slot_gain, genes[j] = g, (k, e)
                    gain += slot_gain
                if gain > choice_gain:
                    choice, choice_gain = (d, genes), gain
            stages.append(choice)
        config = base
        for s, (d, genes) in enumerate(stages):
            config = _with_stage(config, s, d, [k for k, _ in genes], [e for _, e in genes])
        if config_peak_items(config, space) > cap:
            raise AssertionError(f"separable argmax {config} exceeds cap {cap}")
        value = objective(config)
        if value > best_value:
            best, best_value = config, value
    return best


def network_flops(config: SubnetConfig, space) -> int:
    return flops_estimate(resolve(config, space))


def oracle_bound(space, cap: int) -> tuple[float, SubnetConfig] | None:
    """Upper bound on the noiseless synthetic score under ``cap``:
    ``ALPHA * ln(max feasible FLOPs) + BETA``, since the memory-flatness
    term avg/peak is at most 1.  Returns the bound and the max-FLOPs
    configuration, or None when nothing fits."""
    config = argmax_under_cap(space, cap, lambda c: network_flops(c, space))
    if config is None:
        return None
    return ALPHA * math.log(network_flops(config, space)) + BETA, config


def ridge_optimum(model, space, cap: int) -> tuple[float, SubnetConfig] | None:
    """Exact maximum of ``predict(model, ·)`` under ``cap`` and a
    configuration that attains it, or None when nothing fits."""
    config = argmax_under_cap(space, cap, lambda c: predict(model, c, space))
    if config is None:
        return None
    return predict(model, config, space), config
