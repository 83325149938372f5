"""Per-layer spans recorded from outside the package.

The package's modules import each other's functions by name, so a layer is
traced by replacing that name in the namespace of the module that calls it.
Modules are looked up through ``importlib`` (that is, ``sys.modules``):
``memnas/__init__.py`` rebinds ``memnas.search`` to the ``search`` function,
so ``import memnas.search`` followed by attribute access would patch the
function object and trace nothing.

Each span adds its duration to its layer and to its parent's child time, so a
layer's self time is its duration minus the time its traced callees took.
"""

from __future__ import annotations

import importlib
import time

# (module whose namespace the caller looks the name up in, name, layer)
LAYERS = (
    ("memnas.space", "plan_schedule", "planner.plan"),
    ("memnas.search", "search", "search"),
    ("memnas.cli", "search", "search"),
    ("memnas.search", "_sample_with", "space.sample"),
    ("memnas.predictor", "_sample_with", "space.sample"),
    ("memnas.search", "config_peak_items", "space.peak"),
    ("memnas.predictor", "config_peak_items", "space.peak"),
    ("memnas.search", "mutate", "space.mutate"),
    ("memnas.search", "crossover", "space.crossover"),
    ("memnas.search", "_fresh_feasible", "search.fresh"),
    ("memnas.predictor", "synthetic_score", "predictor.score"),
    ("memnas.cli", "synthetic_score", "predictor.score"),
    ("memnas.predictor", "resolve", "space.resolve"),
    ("memnas.cli", "resolve", "space.resolve"),
    ("memnas.predictor", "profile_network", "memory.profile"),
    ("memnas.cli", "profile_network", "memory.profile"),
    ("memnas.predictor", "flops_estimate", "memory.flops"),
    ("memnas.cli", "flops_estimate", "memory.flops"),
    ("memnas.predictor", "encode", "predictor.encode"),
    ("memnas.predictor", "predict", "predictor.predict"),
    ("memnas.cli", "predict", "predictor.predict"),
    ("memnas.predictor", "train", "predictor.train"),
    ("memnas.cli", "train", "predictor.train"),
)


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``; statistics
    accumulate across installs.

    Besides spans it counts, inside ``search``, the peak evaluations that fit
    under ``cap``, the children (mutate/crossover proposals) the cap admits,
    and the fresh samples drawn after the first proposal.
    """

    def __init__(self, cap: int):
        self.layers: dict[str, LayerStats] = {}
        self.counts: dict[str, int] = {}
        self.cap = cap
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self._proposal_open = False
        self._proposed = False

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def stats(self, layer: str) -> LayerStats:
        return self.layers.get(layer) or LayerStats()

    def span(self, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter
        layers = self.layers

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                st = layers.get(layer)
                if st is None:
                    st = layers[layer] = LayerStats()
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - child
                if stack:
                    stack[-1] += dt

        return traced

    def _wrap(self, module: str, name: str, layer: str, fn):
        traced = self.span(layer, fn)
        if name == "search":
            # the CLI calls ``search`` through its own namespace, so every
            # wrapper of it starts a new search
            def search(*args, **kwargs):
                self._proposed = False
                return traced(*args, **kwargs)
            return search
        if module != "memnas.search":
            return traced
        if name in ("mutate", "crossover"):
            def propose(*args, **kwargs):
                self._proposed = self._proposal_open = True
                self.count("search.proposals")
                return traced(*args, **kwargs)
            return propose
        if name == "config_peak_items":
            def peak(*args, **kwargs):
                p = traced(*args, **kwargs)
                fits = p <= self.cap
                self.count("search.peak_calls")
                self.count("search.peak_fits", fits)
                if self._proposal_open:
                    self._proposal_open = False
                    self.count("search.children_admitted", fits)
                return p
            return peak
        if name == "_fresh_feasible":
            def fresh(*args, **kwargs):
                self.count("search.fresh_after_init", self._proposed)
                return traced(*args, **kwargs)
            return fresh
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, name, layer in LAYERS:
            mod = importlib.import_module(module)
            original = getattr(mod, name)
            self._saved.append((mod, name, original))
            setattr(mod, name, self._wrap(module, name, layer, original))

    def uninstall(self) -> None:
        while self._saved:
            mod, name, original = self._saved.pop()
            setattr(mod, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
