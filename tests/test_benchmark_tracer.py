"""The benchmark's tracer (``perfbench/tracing.py``) replaces package
functions by name in the namespace of the module that calls them.  Every
name it lists must still be a function of that module, or traced runs would
break."""

import importlib
import runpy
from dataclasses import replace
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# run_path compiles the source without writing a bytecode cache next to it
LAYERS = runpy.run_path(str(TRACING))["LAYERS"]


@pytest.mark.parametrize("module, name, layer", LAYERS)
def test_traced_name_resolves(module, name, layer):
    assert callable(getattr(importlib.import_module(module), name, None)), (
        f"{module}.{name} (layer {layer}) is gone"
    )


def test_traced_oracle_search_records_the_reference_layers():
    """A traced oracle search must record calls to ``resolve``,
    ``profile_network`` and ``flops_estimate`` through the scorer's module:
    the scorer calls them when it builds a space's table, and the benchmark
    requires those layers on its oracle workloads, with the search's draws
    (``_sample_with``) and peak checks (``config_peak_items``)."""
    from memnas import predictor
    from memnas.space import default_space, maximal_config

    # ``memnas.search`` the attribute is the function; the tracer patches the
    # module's namespace
    searching = importlib.import_module("memnas.search")
    # a fresh instance, whose score table is not built yet
    space = replace(default_space())
    tracer = runpy.run_path(str(TRACING))["Tracer"](cap=400_000)
    with tracer:
        predictor.synthetic_score(maximal_config(space), space)
    # looked up at call time, so that the traced run sees the wrapped name
    scorer = lambda c: predictor.synthetic_score(c, space)
    params = searching.SearchParams(population=4, generations=2)
    with tracer:
        searching.search(space, searching.SearchConstraint(400_000), scorer, params)
    for layer in (
        "search", "space.sample", "space.peak", "predictor.score", "space.resolve",
        "memory.profile", "memory.flops",
    ):
        assert tracer.stats(layer).calls, f"{layer} recorded no call"


def test_traced_model_search_records_the_child_layers():
    """A traced search with a ridge model, as the benchmark's loose-cap
    workload runs it, must record ``predict`` and both genome operators.
    The set-up, a dataset built as the pipeline's ``sample`` step builds it
    and the model trained on it, must record its draws and peaks through
    ``memnas.predictor`` and ``encode`` through ``train``: ``train`` calls
    ``encode`` by its module name, and ``predict`` no longer calls it."""
    from memnas import predictor
    from memnas.space import default_space

    searching = importlib.import_module("memnas.search")
    space = default_space()
    tracer = runpy.run_path(str(TRACING))["Tracer"](cap=800_000)
    with tracer:
        dataset = predictor.balanced_sample(
            space, 40, 2, rng_seed=0, scorer=lambda c: predictor.synthetic_score(c, space)
        )
        model = predictor.train(dataset, space, l2=1.0)
    for layer in ("space.sample", "space.peak", "predictor.train", "predictor.encode"):
        assert tracer.stats(layer).calls, f"{layer} recorded no call in the set-up"
    encodes = tracer.stats("predictor.encode").calls
    scorer = lambda c: predictor.predict(model, c, space)
    params = searching.SearchParams(population=8, generations=2)
    with tracer:
        searching.search(space, searching.SearchConstraint(800_000), scorer, params)
    for layer in ("predictor.predict", "space.mutate", "space.crossover"):
        assert tracer.stats(layer).calls, f"{layer} recorded no call"
    assert tracer.stats("predictor.encode").calls == encodes
