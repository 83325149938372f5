"""Alternate the benchmark between a parent commit and the working tree.

Usage, from the repository root::

    python3 tools/paired_bench.py PARENT_REF --workload search-loose --pairs 10 --seconds 10

Exports ``PARENT_REF`` and the working tree (tracked and untracked files
that ``.gitignore`` does not list, through a temporary index) with
``git archive`` into a work directory, then runs ``perfbench/run.py
--workload W --seed i --seconds S`` in each export for pairs ``i = 1..N``.
Pair ``i`` runs the parent first when ``i`` is odd and the change first
when it is even.  Every run's last JSON line is written, with its pair,
seed and side, to ``runs.jsonl`` in the work directory (``--workdir``, by
default a new temporary directory).

The summary gives, per end-to-end metric, each side's median and quartiles
(``statistics.quantiles(values, n=4)``) and the number of pairs the change
won, ties counting for neither, in the direction ``BENCHMARK.json`` gives.
For ``pipeline`` it prints each side's attempted passes beside
``peak_rss_mb``, since that figure grows with the passes a run fits in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


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


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line of one benchmark run, or ``{"error": ...}``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: list[dict], workload: str, better: dict) -> None:
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
    for p, sides in complete:
        cells = [
            f"{name} {sides['parent']['metrics'][name]['value']:.6g}/"
            f"{sides['change']['metrics'][name]['value']:.6g}"
            for name in sides["parent"]["metrics"]
        ]
        attempted = "/".join(str(sides[side]["attempted"]) for side in SIDES)
        failures = "/".join(str(sides[side]["failed"]) for side in SIDES)
        print(f"  pair {p}: {', '.join(cells)}; attempted {attempted}, failed {failures}")
    print(f"  {'metric':12s} {'side':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}")
    for name, unit in ((n, m["unit"]) for n, m in complete[0][1]["parent"]["metrics"].items()):
        values = {
            side: [sides[side]["metrics"][name]["value"] for _, sides in complete] for side in SIDES
        }
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            extra = ""
            if workload == "pipeline" and name == "peak_rss_mb":
                attempted = [sides[side]["attempted"] for _, sides in complete]
                extra = f"  attempted {attempted}"
            print(f"  {name:12s} {side:6s} {median:12.6g} {q1:12.6g} {q3:12.6g} {unit}{extra}")
        sign = -1 if better[name] == "lower" else 1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        ties = sum(c == p for p, c in zip(values["parent"], values["change"]))
        print(f"  {name:12s} change better in {wins} of {len(complete)} pairs ({ties} ties)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", metavar="PARENT_REF")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", type=Path, help="a new directory for the exports and runs.jsonl")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="paired_bench-"))
    out = workdir / "runs.jsonl"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.parent}^{{commit}}"], cwd=ROOT, check=True,
        stdout=subprocess.PIPE, text=True,
    ).stdout.strip()
    checkouts = {"parent": workdir / "parent", "change": workdir / "change"}
    export(parent, checkouts["parent"])
    export(working_tree(), checkouts["change"])
    print(f"parent {parent}; exports in {workdir}, raw lines in {out}", flush=True)
    runs = []
    with open(out, "w") as fh:
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                result = run_once(checkouts[side], args.workload, pair, args.seconds)
                run = {"workload": args.workload, "pair": pair, "seed": pair, "side": side,
                       "first": order[0], "seconds": args.seconds, "result": result}
                runs.append(run)
                fh.write(json.dumps(run) + "\n")
                fh.flush()
                op_cal = result.get("metrics", {}).get("op_cal", {}).get("value")
                print(f"pair {pair} {side}: op_cal {op_cal or result.get('error')}", flush=True)
    summarize(runs, args.workload, better)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
