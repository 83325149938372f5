"""One benchmark process: set a workload up, then run it for a fixed time.

``run.py`` starts this script and times it from process start until it
prints ``ready``; that interval is the set-up time.  Set-up runs under a
speed sampler (see below), and the ``ready`` line carries the sampler's
figures, so that ``run.py`` can express set-up in seconds at a fixed core
speed.  With ``--setup-only`` the process exits there.  Otherwise it runs
operations (one ``search`` call, or one four-step CLI pass) until
``--seconds`` have passed, checks every output, and prints one JSON line
with the raw measurements.

Each workload first runs a fixed list of reference inputs, then the first
of them again (its output must repeat exactly), then alternates two runs of
reference inputs with one input drawn from the workload seed until time is
up.  Times come from the reference inputs only, and regret and gain share
from their first runs: the cost of a search or a pipeline pass depends on
its seed, so a median over seed-drawn inputs would need far more operations
than a run has to stay within its bound.  The seed-drawn inputs are checked and
counted like every other operation.

A run is correct when every operation succeeded and every output passed its
checks.

On a shared machine the speed of the core changes by up to 2x within
seconds, so wall times of identical operations differ by more than any
useful bound.  Each untraced operation therefore runs under a
``SpeedSampler``: every ``SAMPLE_PERIOD_S`` a signal handler times a short
pure-Python calibration loop, and ``op_cal`` is the operation's time, less
the sampling, in multiples of the full calibration loop's time at the speed
sampled during it.  Wall times, less the sampling, are reported beside it.

With ``--trace 1`` every input runs twice, untraced and then traced; the
traced runs give the per-layer figures and the differences give the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

TIGHT_CAP = 350_000
LOOSE_CAP = 800_000
PIPELINE_CAP = 400_000
PIPELINE_ROWS = 1000
# ``sample`` fills equal-width peak buckets between the extremes of a pilot
# draw.  With ten buckets it exits 3 (``PartialDatasetError``) for about
# half of all seeds: when the pilot catches the rare low-peak tail, the
# lowest buckets are too rare to fill within the draw budget.  Two buckets
# fill within about 10,000 draws whatever the pilot, so every pass can
# succeed; the ten-bucket failure is reproduced once per run, untimed and
# uncounted (see ``Pipeline.probe_defect``).
PIPELINE_BUCKETS = 2
DEFECT_PROBE_SEED = 2
# the ridge model of search-loose is part of the workload definition, not of
# its seed, so that its regret stays comparable from run to run
LOOSE_DATASET_SEED = 0
# absolute slack for comparing a float score with a bound or optimum that was
# assembled from per-slot differences
SCORE_TOLERANCE = 1e-9
# iterations of the calibration loop that is the unit of ``op_cal``, and of
# the short loop the speed sampler times every SAMPLE_PERIOD_S seconds
CAL_ITERATIONS = 40_000
SAMPLE_ITERATIONS = 8_000
SAMPLE_PERIOD_S = 0.05


class WrongOutput(Exception):
    """A produced output failed a correctness check."""


class OpError(Exception):
    """An operation produced no output (a CLI step exited non-zero)."""


@dataclass
class Outcome:
    op_s: float
    search_s: float
    regret: float
    gain_share: float
    fingerprint: object
    seed: int = 0
    kind: str = "drawn"  # see _schedule; "first" and "repeat" are timed
    evaluations: int | None = None
    best_generation: int | None = None
    holdout_rho: float | None = None
    steps: dict = field(default_factory=dict)
    cal: float | None = None  # seconds of one calibration loop during it, if sampled


def _import_package():
    sys.path.insert(0, str(SRC))
    try:
        memnas = importlib.import_module("memnas")
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import memnas from {SRC}: {exc}")
    if Path(memnas.__file__).resolve().parent != SRC / "memnas":
        raise SystemExit(f"perfbench: memnas imported from {memnas.__file__}, not {SRC}")
    # the package rebinds the attribute ``memnas.search`` to the function,
    # so modules are always taken from sys.modules
    return SimpleNamespace(**{
        name: importlib.import_module(f"memnas.{name}")
        for name in ("space", "memory", "predictor", "search", "cli")
    })


def _best_generation(result) -> int:
    for h in result.history:
        if h.best_score == result.best_score:
            return h.generation
    return len(result.history)


def _check_search_result(m, space, result, cap, rescore, bound) -> float:
    """Checks shared by both search workloads and the pipeline's search
    step; returns the regret against ``bound``."""
    best = result.best_config
    peak = m.memory.profile_network(m.space.resolve(best, space)).peak_items
    if peak != result.best_peak_items:
        raise WrongOutput(f"best_peak_items {result.best_peak_items} != profiled {peak}")
    if peak > cap:
        raise WrongOutput(f"best peak {peak} exceeds cap {cap}")
    score = rescore(best)
    if score != result.best_score:
        raise WrongOutput(f"best_score {result.best_score!r} != rescored {score!r}")
    if result.best_score > bound + SCORE_TOLERANCE:
        raise WrongOutput(f"best_score {result.best_score!r} exceeds certified bound {bound!r}")
    return bound - result.best_score


def _gain_share(result, bound: float, floor: float) -> float:
    """The share of the gain from the smallest network (score ``floor``) to
    the certified ``bound`` that the search attains: 1 at the bound.  Regret
    is near 0 on an easy cap, so a relative bound on it would trip on noise
    in the search's path; this share is near 1 there instead."""
    return (result.best_score - floor) / (bound - floor)


class SearchWorkload:
    """Repeated ``search`` calls at one cap with one scorer."""

    def __init__(self, m):
        self.m = m

    def run(self, search_seed: int, clock):
        params = self.m.search.SearchParams(seed=search_seed)
        t0 = clock()
        result = self.m.search.search(self.space, self.constraint, self.scorer, params)
        return clock() - t0, result

    def check(self, raw) -> Outcome:
        elapsed, result = raw
        regret = _check_search_result(
            self.m, self.space, result, self.cap, self.scorer, self.bound
        )
        return Outcome(
            op_s=elapsed,
            search_s=elapsed,
            regret=regret,
            gain_share=_gain_share(result, self.bound, self.floor),
            fingerprint=result.to_json_dict(),
            evaluations=result.evaluations,
            best_generation=_best_generation(result),
        )

    def _warm_up(self) -> None:
        params = self.m.search.SearchParams(population=4, generations=2, seed=0)
        self.m.search.search(self.space, self.constraint, self.scorer, params)


class SearchTight(SearchWorkload):
    """Noiseless oracle at a cap that only ~0.1% of uniform draws meet."""

    cap = TIGHT_CAP
    reference_seeds = (0, 1, 2)
    required_layers = (
        "planner.plan", "search", "space.sample", "space.peak", "space.mutate",
        "space.crossover", "predictor.score", "space.resolve", "memory.profile",
        "memory.flops",
    )

    def setup(self) -> None:
        import bounds

        self.space = self.m.space.default_space()
        self.constraint = self.m.search.SearchConstraint(max_peak_items=self.cap)
        predictor, space = self.m.predictor, self.space
        # looked up at call time so that a traced run sees the wrapped name
        self.scorer = lambda c: predictor.synthetic_score(c, space)
        self.bound, _ = bounds.oracle_bound(space, self.cap)
        self.floor = self.scorer(bounds.minimal(space))
        self._warm_up()


class SearchLoose(SearchWorkload):
    """Ridge surrogate at a cap every configuration meets."""

    cap = LOOSE_CAP
    reference_seeds = tuple(range(20))
    required_layers = (
        "planner.plan", "search", "space.sample", "space.peak", "space.mutate",
        "space.crossover", "predictor.predict", "predictor.encode", "predictor.train",
    )

    def setup(self) -> None:
        import bounds

        predictor = self.m.predictor
        self.space = space = self.m.space.default_space()
        self.constraint = self.m.search.SearchConstraint(max_peak_items=self.cap)
        dataset = predictor.balanced_sample(
            space,
            n=PIPELINE_ROWS,
            num_buckets=10,
            rng_seed=LOOSE_DATASET_SEED,
            scorer=lambda c: predictor.synthetic_score(c, space),
        )
        model = predictor.train(dataset, space, l2=1.0, seed=LOOSE_DATASET_SEED)
        self.scorer = lambda c: predictor.predict(model, c, space)
        self.bound, _ = bounds.ridge_optimum(model, space, self.cap)
        self.floor = self.scorer(bounds.minimal(space))
        self._warm_up()


class Pipeline:
    """What a user would type in a shell, run in process: sample ->
    train-predictor -> search -> profile, each through ``memnas.cli.main``."""

    cap = PIPELINE_CAP
    reference_seeds = (0, 1)
    required_layers = (
        "planner.plan", "search", "space.sample", "space.peak", "space.mutate",
        "space.crossover", "predictor.score", "space.resolve", "memory.profile",
        "memory.flops", "predictor.predict", "predictor.encode", "predictor.train",
    )
    results = ("dataset.jsonl", "model.json", "result.json", "profile.csv")

    def __init__(self, m):
        self.m = m
        self._n = 0

    def setup(self) -> None:
        self.space = self.m.space.default_space()
        WORK.mkdir(exist_ok=True)
        self.work = WORK / f"pipeline-{os.getpid()}"
        self.work.mkdir()
        # first calls import scipy and initialise LAPACK; a small pass pays
        # for them here
        self._pass(0, rows=50, buckets=1, search=["--population", "4", "--generations", "2"])

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another worker may still use it
            WORK.rmdir()

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.m.cli.main(argv)
        if code != 0:
            raise OpError(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def probe_defect(self) -> str:
        """Run ``sample --n 1000`` with the default ten buckets at a seed
        whose pilot catches the low-peak tail, and say how it ended.  It
        exits 3 on the code this benchmark was written for; that is shown in
        the report, and counts neither as an operation nor as a failure."""
        out = str(self.work / "probe.jsonl")
        argv = ["sample", "--n", str(PIPELINE_ROWS), "--seed", str(DEFECT_PROBE_SEED), "--out", out]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self.m.cli.main(argv)
        return f"memnas {' '.join(argv[:-2])} exited {code} {err.getvalue().strip()}".strip()

    def _pass(self, seed, rows=PIPELINE_ROWS, buckets=PIPELINE_BUCKETS, search=(),
              clock=time.perf_counter):
        """One pass in a fresh directory, which is removed if a step fails;
        returns (seconds, seconds per step, stdout per step, directory)."""
        self._n += 1
        d = self.work / f"pass-{self._n}"
        d.mkdir()
        p = {name: str(d / name) for name in self.results + ("best.json",)}
        s = str(seed)
        argvs = {
            "sample": ["sample", "--n", str(rows), "--buckets", str(buckets), "--seed", s,
                       "--out", p["dataset.jsonl"]],
            "train": ["train-predictor", "--dataset", p["dataset.jsonl"], "--seed", s,
                      "--out", p["model.json"]],
            "search": ["search", "--model", p["model.json"], "--constraint", str(PIPELINE_CAP),
                       "--seed", s, "--out", p["result.json"], *search],
            "profile": ["profile", "--config", p["best.json"], "--csv", p["profile.csv"]],
        }
        steps, out = {}, {}
        t_pass = clock()
        try:
            for step, argv in argvs.items():
                if step == "profile":
                    # the shell glue a user would write with jq
                    with open(p["result.json"]) as fh:
                        best = json.load(fh)["best_config"]
                    with open(p["best.json"], "w") as fh:
                        json.dump(best, fh)
                t0 = clock()
                out[step] = self._cli(argv)
                steps[step] = clock() - t0
        except BaseException:
            shutil.rmtree(d)
            raise
        return clock() - t_pass, steps, out, d

    def run(self, seed: int, clock):
        return self._pass(seed, clock=clock)

    def check(self, raw) -> Outcome:
        import bounds

        elapsed, steps, out, d = raw
        m, space = self.m, self.space
        try:
            artifacts = {name: (d / name).read_bytes() for name in self.results}
        finally:
            shutil.rmtree(d)
        rows = m.predictor.Dataset.read_jsonl(
            io.StringIO(artifacts["dataset.jsonl"].decode())
        ).rows
        if len(rows) != PIPELINE_ROWS:
            raise WrongOutput(f"dataset has {len(rows)} rows, expected {PIPELINE_ROWS}")
        for i, row in enumerate(rows):
            peak = m.space.config_peak_items(row.config, space)
            if row.peak_items != peak:
                raise WrongOutput(f"dataset row {i}: peak_items {row.peak_items} != {peak}")
        # the CLI prints the first and last edge exactly (integers), and the
        # package derives the inner edges from them
        printed = re.search(r"bucket edges: \[(.*)\]", out["sample"]).group(1).split(",")
        edges = m.predictor.bucket_edges_from_pilot(
            [float(printed[0]), float(printed[-1])], len(printed) - 1
        )
        occupancy = [0] * (len(edges) - 1)
        for row in rows:
            occupancy[m.predictor.bucket_index(row.peak_items, edges)] += 1
        if max(occupancy) - min(occupancy) > 1:
            raise WrongOutput(f"bucket occupancy {occupancy} is not balanced")
        rho = float(re.search(r"held-out rank correlation \(n=\d+\): (\S+)", out["train"]).group(1))

        model = m.predictor.PredictorModel.from_json_dict(json.loads(artifacts["model.json"]))
        result = m.search.SearchResult.from_json_dict(json.loads(artifacts["result.json"]))
        optimum, _ = bounds.ridge_optimum(model, space, PIPELINE_CAP)
        scorer = lambda c: m.predictor.predict(model, c, space)  # noqa: E731
        regret = _check_search_result(m, space, result, PIPELINE_CAP, scorer, optimum)
        csv_peak = max(
            int(line.split(",")[-1]) for line in artifacts["profile.csv"].decode().splitlines()[1:]
        )
        if csv_peak != result.best_peak_items:
            raise WrongOutput(f"profile CSV peak {csv_peak} != best_peak_items {result.best_peak_items}")
        return Outcome(
            op_s=elapsed,
            search_s=steps["search"],
            regret=regret,
            gain_share=_gain_share(result, optimum, scorer(bounds.minimal(space))),
            fingerprint=artifacts,
            evaluations=result.evaluations,
            best_generation=_best_generation(result),
            holdout_rho=rho,
            steps=steps,
        )


WORKLOADS = {"search-tight": SearchTight, "search-loose": SearchLoose, "pipeline": Pipeline}


def _schedule(workload, seed: int):
    """Yield (input seed, kind).  Kinds: "first" (the first run of a
    reference input), "repeat" (a later run of one; the first repeat is of
    the first input, whose output must not change) and "drawn" (an input
    drawn from the workload seed).  After the first runs, two repeats
    alternate with one drawn input, so that a run times each reference input
    more than once."""
    ref = workload.reference_seeds
    for s in ref:
        yield s, "first"
    rng = random.Random(f"{type(workload).__name__}:{seed}")
    repeats = itertools.cycle(ref)
    while True:
        yield next(repeats), "repeat"
        yield next(repeats), "repeat"
        yield rng.randrange(2 ** 31), "drawn"


def _calibrate(iterations: int = CAL_ITERATIONS) -> float:
    """Seconds taken by a fixed loop of tuple, dict and integer work, the
    kind of work the package's hot paths do; about 10 ms for the default
    iterations on a 2.1 GHz core."""
    t0 = time.perf_counter()
    d = {}
    acc = 0
    for i in range(iterations):
        t = (i, i * 7 % 13, i >> 3)
        d[t[1]] = d.get(t[1], 0) + t[2]
        acc += t[0] * t[1] - t[2]
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the speed of the core while work runs in this process.

    On entry and then every ``SAMPLE_PERIOD_S`` (a ``SIGALRM`` interval
    timer) it times a short calibration loop between two bytecodes of the
    work.  ``clock()`` is ``perf_counter()`` less the time the loops took, so
    intervals read with it exclude the sampling, and ``cal_s()`` is the time
    of one full calibration loop at the mean sampled speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(_calibrate(SAMPLE_ITERATIONS))
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def cal_s(self) -> float:
        return statistics.fmean(self.samples) * CAL_ITERATIONS / SAMPLE_ITERATIONS

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Run:
    """The measurement loop and its tallies."""

    def __init__(self, workload, trace: bool):
        self.workload = workload
        self.tracer = None
        if trace:
            from tracing import Tracer

            self.tracer = Tracer(workload.cap)
        self.attempted = 0
        self.errors = 0  # raised or exited non-zero
        self.wrong = 0
        self.reference_failures = 0
        self.outcomes: list[Outcome] = []
        self.traced: list[Outcome] = []
        self.overheads: list[float] = []  # traced minus untraced search_s, per input
        self.traced_attempts = 0
        self.first: dict[int, object] = {}

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.errors == 0 and self.reference_failures == 0

    def _attempt(self, seed: int, traced: bool):
        self.attempted += 1
        tracer = self.tracer if traced else None
        # traced runs are not sampled, so that the spans time only the work
        sampler = None if traced else SpeedSampler()
        try:
            if tracer:
                tracer.install()
            try:
                with sampler or contextlib.nullcontext():
                    raw = self.workload.run(seed, sampler.clock if sampler else time.perf_counter)
            finally:
                if tracer:
                    tracer.uninstall()
            outcome = self.workload.check(raw)
            outcome.cal = sampler and sampler.cal_s()
            expected = self.first.setdefault(seed, outcome.fingerprint)
            if outcome.fingerprint != expected:
                raise WrongOutput(f"seed {seed}: output differs from the first run of that seed")
        except WrongOutput as exc:
            self.wrong += 1
            print(f"perfbench: wrong output: {exc}", file=sys.stderr)
            return None
        except OpError as exc:
            self.errors += 1
            print(f"perfbench: operation failed: {exc}", file=sys.stderr)
            return None
        except Exception:  # a raising operation is tallied as failed, not fatal
            self.errors += 1
            traceback.print_exc()
            return None
        return outcome

    def loop(self, seed: int, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        w = self.workload
        minimum = len(w.reference_seeds) + (0 if self.tracer else 1)
        for i, (s, kind) in enumerate(_schedule(w, seed)):
            if i >= minimum and time.perf_counter() >= deadline:
                break
            outcome = self._attempt(s, traced=False)
            if outcome:
                outcome.seed, outcome.kind = s, kind
                self.outcomes.append(outcome)
            elif kind in ("first", "repeat"):
                self.reference_failures += 1
                print(f"perfbench: reference input {s} failed", file=sys.stderr)
            if self.tracer:
                self.traced_attempts += 1
                traced = self._attempt(s, traced=True)
                if traced:
                    self.traced.append(traced)
                elif kind in ("first", "repeat"):
                    self.reference_failures += 1
                if outcome and traced:
                    self.overheads.append(traced.search_s - outcome.search_s)


def _median(values) -> float:
    """Median, or 0 for a layer the workload does not use (per-layer only)."""
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    """Mean of the values that are not None, or 0 for a layer the workload
    does not use (per-layer only)."""
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else 0.0


def end_to_end(run: Run) -> dict:
    """Raises ``statistics.StatisticsError`` when no reference input
    succeeded, so that a run with nothing to time reports no figures."""
    timed = [o for o in run.outcomes if o.kind in ("first", "repeat")]
    firsts = [o for o in timed if o.kind == "first"]

    def per_input_median(value):
        # inputs differ in cost and a run repeats some more often than
        # others, so each input gets its own median and the inputs weigh alike
        by_seed = {}
        for o in timed:
            by_seed.setdefault(o.seed, []).append(value(o))
        return statistics.fmean(statistics.median(v) for v in by_seed.values()), len(timed)

    def mean(value):
        return statistics.fmean(value(o) for o in firsts), len(firsts)

    figures = {
        "op_cal": per_input_median(lambda o: o.op_s / o.cal),
        "op_s": per_input_median(lambda o: o.op_s),
        "search_s": per_input_median(lambda o: o.search_s),
        "regret": mean(lambda o: o.regret),
        "gain_share": mean(lambda o: o.gain_share),
    }
    if isinstance(run.workload, Pipeline):
        figures["holdout_rho"] = mean(lambda o: o.holdout_rho)
    return figures


def per_layer(run: Run, setup_tracer) -> dict:
    tr = run.tracer
    ops = max(run.traced_attempts, 1)  # failed passes did their draws too
    searches = max(tr.stats("search").calls, 1)

    def per_op(layer):
        return tr.stats(layer).calls / ops

    def us(layer, self_time=False):
        st = tr.stats(layer)
        return 1e6 * (st.self_s if self_time else st.total_s) / st.calls if st.calls else 0.0

    def seconds(layer):
        st = tr.stats(layer) if tr.stats(layer).calls else setup_tracer.stats(layer)
        return st.total_s / st.calls if st.calls else 0.0

    counts = tr.counts
    steps = [o.steps for o in run.outcomes if o.steps]
    search_peaks = counts.get("search.peak_calls", 0)
    proposals = counts.get("search.proposals", 0)
    search_layer = tr.stats("search")
    return {
        "space.sample.calls": per_op("space.sample"),
        "space.sample.us": us("space.sample"),
        "space.peak.calls": per_op("space.peak"),
        "space.peak.us": us("space.peak"),
        "search.evaluations": _mean(o.evaluations for o in run.traced),
        "search.feasible_ratio": counts.get("search.peak_fits", 0) / search_peaks if search_peaks else 0.0,
        "predictor.score.calls": per_op("predictor.score"),
        "predictor.score.us": us("predictor.score"),
        "predictor.score.self_us": us("predictor.score", self_time=True),
        "space.resolve.us": us("space.resolve"),
        "memory.profile.us": us("memory.profile"),
        "memory.flops.us": us("memory.flops"),
        "predictor.encode.us": us("predictor.encode"),
        "predictor.predict.us": us("predictor.predict"),
        "predictor.train_s": seconds("predictor.train"),
        "predictor.holdout_rho": _mean(o.holdout_rho for o in run.traced),
        "space.mutate.us": us("space.mutate"),
        "space.crossover.us": us("space.crossover"),
        "search.child_accept_ratio": counts.get("search.children_admitted", 0) / proposals if proposals else 0.0,
        "search.fresh_samples": counts.get("search.fresh_after_init", 0) / searches,
        "search.self_s": search_layer.self_s / search_layer.calls if search_layer.calls else 0.0,
        "search.best_generation": _mean(o.best_generation for o in run.traced),
        "planner.plan_s": seconds("planner.plan"),
        "cli.sample_s": _median([s["sample"] for s in steps]),
        "cli.train_s": _median([s["train"] for s in steps]),
        "cli.search_s": _median([s["search"] for s in steps]),
        "cli.profile_s": _median([s["profile"] for s in steps]),
        "tracing.overhead_s": _median(run.overheads),
    }


def missing_layers(workload, *tracers) -> list[str]:
    return [
        layer
        for layer in workload.required_layers
        if not any(t.stats(layer).calls for t in tracers)
    ]


def environment(seed: int) -> dict:
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sampler, setup_tracer, workload = SpeedSampler(), None, None
    try:
        with contextlib.ExitStack() as setup:
            if not args.trace:
                # the core's speed while setting up, measured in this process;
                # a traced set-up is not sampled, so that its spans time only
                # the work
                setup.enter_context(sampler)
            workload = WORKLOADS[args.workload](_import_package())
            if args.trace:
                from tracing import Tracer

                setup_tracer = setup.enter_context(Tracer(workload.cap))
            workload.setup()
        ready = {"cal_s": None if args.trace else sampler.cal_s(), "sampling_s": sampler.spent}
        print("ready", json.dumps(ready), flush=True)
        if args.setup_only:
            return 0
        run = Run(workload, trace=bool(args.trace))
        run.loop(args.seed, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        defect = workload.probe_defect() if hasattr(workload, "probe_defect") else None
    finally:
        if hasattr(workload, "close"):
            workload.close()
    if run.tracer:
        missing = missing_layers(workload, run.tracer, setup_tracer)
        if missing:
            run.wrong += 1
            print(f"perfbench: traced layers recorded no call: {missing}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "attempted": run.attempted,
        "errors": run.errors,
        "wrong": run.wrong,
        "reference_failures": run.reference_failures,
        "correct": run.correct,
        "defect_probe": defect,
        "peak_rss_mb": peak_rss_mb,
        "end_to_end": end_to_end(run),
        "environment": environment(args.seed),
    }
    if run.tracer:
        report["per_layer"] = per_layer(run, setup_tracer)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
