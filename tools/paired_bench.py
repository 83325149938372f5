"""Alternate the benchmark between a parent commit and the working tree.

Usage, from the repository root::

    python3 tools/paired_bench.py PARENT_REF --workload search-loose --pairs 10 --seconds 10
    python3 tools/paired_bench.py PARENT_REF --workload search-tight --pairs 20 --setup-only
    python3 tools/paired_bench.py PARENT_REF --workload pipeline --pairs 10 --seconds 25 --trace

Exports ``PARENT_REF`` and the working tree (tracked and untracked files
that ``.gitignore`` does not list, through a temporary index) with
``git archive`` into a work directory, then runs ``perfbench/run.py
--workload W --seed i --seconds S`` in each export for pairs ``i = 1..N``.
Pair ``i`` runs the parent first when ``i`` is odd and the change first
when it is even.  Every run's last JSON line is written, with its pair,
seed and side, to ``runs.jsonl`` in the work directory (``--workdir``, by
default a new temporary directory).  It first prints the net line count of
``src/`` in the working tree against ``PARENT_REF`` (lines added less lines
deleted, from ``git diff --numstat``).

With ``--setup-only`` each run is one set-up-only worker, started through
the export's own ``perfbench/run.py`` (``_worker(..., setup_only=True)``),
so its ``setup_s`` is scaled to a fixed core speed exactly as ``run.py``
scales it; ``setup_wall_s`` is its wall time.  A full run takes the median
of five such set-ups instead, so pairs of single set-ups show a set-up
change with less time per pair.

With ``--trace`` each pair also runs ``perfbench/run.py ... --trace 1``
once on each side, after its untraced runs and in the same order.  One
traced run against another cannot show a layer's change, since per-layer
figures are wall time, not scaled to the core speed; pairs of them can.

The summary gives, per end-to-end metric, each side's median and quartiles
(``statistics.quantiles(values, n=4)``) and the number of pairs the change
won, ties counting for neither, in the direction ``BENCHMARK.json`` gives;
with ``--trace``, the same for the traced runs' ``LAYERS``.  Per end-to-end
metric it also prints the change's median over the parent's, and whether
that ratio is worse than the metric's ``bound`` in ``BENCHMARK.json``, in
the metric's direction: the rule a change must keep to.  Beside
``peak_rss_mb`` it prints each side's attempted operations, for every
workload of a whole run, since that figure grows with the operations a run
fits in: ``pipeline`` keeps each pass's artifacts and the search
workloads keep each search's result fingerprint, about 19 KB a
search, so a faster side reads a higher peak.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# the per-layer figures a traced pair reports: the three CLI steps of a
# ``pipeline`` pass, the sampler under them, the oracle, the ridge
# surrogate's two calls and the search's two genome operations (a workload
# that does not reach a layer reads 0 for it)
LAYERS = (
    "cli.sample_s", "cli.train_s", "cli.search_s", "space.sample.us", "predictor.score.us",
    "predictor.predict.us", "predictor.encode.us", "space.crossover.us", "space.mutate.us",
)


def export(tree: str, dest: Path) -> None:
    """Extract ``tree`` (a commit or tree id) into ``dest`` with git archive."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", tree], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def working_tree() -> str:
    """The id of a tree holding the working tree's files, built in a
    temporary index so that the repository's own index is left as it is."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        subprocess.run(["git", "add", "-A"], cwd=ROOT, env=env, check=True)
        return subprocess.run(
            ["git", "write-tree"], cwd=ROOT, env=env, check=True,
            stdout=subprocess.PIPE, text=True,
        ).stdout.strip()


def net_lines(numstat: str) -> int:
    """Lines added less lines deleted over the output of ``git diff
    --numstat``; a binary file, shown with ``-`` counts, adds none."""
    net = 0
    for line in numstat.splitlines():
        added, deleted, _ = line.split("\t", 2)
        if added != "-":
            net += int(added) - int(deleted)
    return net


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The last JSON line of one benchmark run, or ``{"error": ...}``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def setup_once(run: dict, workload: str, seed: int) -> dict:
    """One set-up-only worker, started by ``run["_worker"]``, a checkout's
    own ``perfbench/run.py`` loaded with ``runpy``, as a result line with
    ``setup_s`` and ``setup_wall_s``, or ``{"error": ...}``."""
    try:
        (wall, scaled), _ = run["_worker"](workload, seed, 0, 0, setup_only=True)
    except run["WorkerFailed"] as exc:
        return {"error": str(exc)}
    return {"metrics": {"setup_s": {"value": scaled, "unit": "s"},
                        "setup_wall_s": {"value": wall, "unit": "s"}}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: list[dict], workload: str, better: dict, names=None, bounds=None) -> None:
    """Print the pairs of ``runs`` and, per metric, each side's median and
    quartiles and the pairs the change won; ``names`` picks the metrics, all
    of a run's by default.  For each metric that ``bounds`` gives a bound,
    it prints the change's median over the parent's and whether that ratio
    is worse than the bound in the metric's ``better`` direction."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
    complete = [
        (p, sides) for p, sides in sorted(pairs.items())
        if all("metrics" in sides.get(side, {}) for side in SIDES)
    ]
    print(f"{workload}: {len(complete)} complete pairs, {len(pairs) - len(complete)} with a failed run")
    if not complete:
        return
    names = names or list(complete[0][1]["parent"]["metrics"])
    for p, sides in complete:
        cells = [
            f"{name} {sides['parent']['metrics'][name]['value']:.6g}/"
            f"{sides['change']['metrics'][name]['value']:.6g}"
            for name in names
        ]
        counts = ""
        if "attempted" in sides["parent"]:
            attempted = "/".join(str(sides[side]["attempted"]) for side in SIDES)
            failures = "/".join(str(sides[side]["failed"]) for side in SIDES)
            counts = f"; attempted {attempted}, failed {failures}"
        print(f"  pair {p}: {', '.join(cells)}{counts}")
    print(f"  {'metric':16s} {'side':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}")
    for name in names:
        unit = complete[0][1]["parent"]["metrics"][name]["unit"]
        values = {
            side: [sides[side]["metrics"][name]["value"] for _, sides in complete] for side in SIDES
        }
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            extra = ""
            if name == "peak_rss_mb" and "attempted" in complete[0][1][side]:
                attempted = [sides[side]["attempted"] for _, sides in complete]
                extra = f"  attempted {attempted}"
            print(f"  {name:16s} {side:6s} {median:12.6g} {q1:12.6g} {q3:12.6g} {unit}{extra}")
        sign = -1 if better[name] == "lower" else 1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        ties = sum(c == p for p, c in zip(values["parent"], values["change"]))
        print(f"  {name:16s} change better in {wins} of {len(complete)} pairs ({ties} ties)")
        if name in (bounds or {}):
            ratio = statistics.median(values["change"]) / statistics.median(values["parent"])
            worse = sign * (ratio - 1) < -bounds[name]
            verdict = "worse than" if worse else "within"
            print(f"  {name:16s} change/parent median {ratio:.4f}, "
                  f"{verdict} its bound {bounds[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", metavar="PARENT_REF")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="length of each run; not with --setup-only")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up-only worker per run instead of a whole run")
    ap.add_argument("--trace", action="store_true",
                    help=f"pair traced runs too and summarize {', '.join(LAYERS)}")
    ap.add_argument("--workdir", type=Path, help="a new directory for the exports and runs.jsonl")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if (args.seconds is None) != args.setup_only:
        ap.error("give --seconds for whole runs, and not with --setup-only")
    if args.trace and args.setup_only:
        ap.error("--trace pairs whole runs; not with --setup-only")
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="paired_bench-"))
    out = workdir / "runs.jsonl"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    better["setup_wall_s"] = "lower"
    parent = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.parent}^{{commit}}"], cwd=ROOT, check=True,
        stdout=subprocess.PIPE, text=True,
    ).stdout.strip()
    checkouts = {"parent": workdir / "parent", "change": workdir / "change"}
    tree = working_tree()
    export(parent, checkouts["parent"])
    export(tree, checkouts["change"])
    numstat = subprocess.run(
        ["git", "diff", "--numstat", parent, tree, "--", "src"], cwd=ROOT, check=True,
        stdout=subprocess.PIPE, text=True,
    ).stdout
    runners = {side: runpy.run_path(str(path / "perfbench" / "run.py"))
               for side, path in checkouts.items()}
    print(f"parent {parent}; exports in {workdir}, raw lines in {out}")
    print(f"src/ net lines against the parent: {net_lines(numstat):+d}", flush=True)
    runs = []
    with open(out, "w") as fh:
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for trace, side in [(t, side) for t in range(1 + args.trace) for side in order]:
                if args.setup_only:
                    result = setup_once(runners[side], args.workload, pair)
                else:
                    result = run_once(checkouts[side], args.workload, pair, args.seconds, trace)
                run = {"workload": args.workload, "pair": pair, "seed": pair, "side": side,
                       "first": order[0], "seconds": args.seconds, "trace": trace,
                       "setup_only": args.setup_only, "result": result}
                runs.append(run)
                fh.write(json.dumps(run) + "\n")
                fh.flush()
                shown = "setup_s" if args.setup_only else LAYERS[0] if trace else "op_cal"
                value = result.get("metrics", {}).get(shown, {}).get("value")
                shown_value = result.get("error") if value is None else value
                print(f"pair {pair} {side}: {shown} {shown_value}", flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summarize([run for run in runs if not run["trace"]], args.workload, better, bounds=bounds)
    if args.trace:
        traced = [run for run in runs if run["trace"]]
        summarize(traced, f"{args.workload}, traced", better, LAYERS)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
