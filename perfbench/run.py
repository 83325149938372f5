"""memnas benchmark: search time and certified regret under a peak-RAM cap.

Usage, from the repository root::

    python3 perfbench/run.py --workload search-tight --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Workloads (see BENCHMARK.json for why each exists):

* ``search-tight``: ``search`` with the noiseless synthetic oracle at a cap
  of 350,000 items, which ~0.1% of uniform draws meet.
* ``search-loose``: ``search`` with a ridge model at a cap of 800,000 items,
  which every configuration meets.
* ``pipeline``: ``sample --n 1000 --buckets 2`` -> ``train-predictor`` ->
  ``search --model ... --constraint 400000`` -> ``profile --csv`` through
  ``memnas.cli.main`` in one process.

Set-up is timed from process start to the first timed operation, in five
separate processes (the measuring one and four that exit after set-up), and
reported as their median.  The speed of a core on a shared machine changes
by up to 2x within seconds, so each process samples it while setting up (see
``SpeedSampler`` in ``worker.py``), and its set-up time is scaled to a core
that runs the calibration loop in ``CAL_REFERENCE_S``: wall time, less the
sampling, times ``CAL_REFERENCE_S`` over the sampled loop time.  ``setup_s``
is thus in seconds at a fixed core speed; the wall-clock median is printed
beside it.  A traced run starts only the measuring process, does not sample
its set-up and prints its wall time.  Everything else is measured in the
measuring process; see ``worker.py``.

The last line of standard output is one JSON object; the lines before it are
a readable report and the machine description.  ``--workload all`` runs
every workload untraced and traced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# a worker may run this much longer than --seconds: set-up and the last
# operation, which starts before the deadline
PROCESS_SLACK_S = 140
# seconds of one calibration loop on the 2.1 GHz core the baselines were
# measured on
CAL_REFERENCE_S = 0.010

# units of the figures the report prints besides those BENCHMARK.json lists
REPORT_UNITS = {
    "setup_wall_s": "s", "search_s": "s", "pipeline_s": "s", "regret": "score",
    "holdout_rho": "rho", "failed_frac": "ratio",
}


def load_spec() -> dict:
    """Metric names and units, from BENCHMARK.json at the checkout root."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {
        "workloads": tuple(w["name"] for w in spec["workloads"]),
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


class WorkerFailed(RuntimeError):
    pass


def _worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool):
    """Start a worker, return ((wall, scaled) set-up seconds, its JSON
    report or None)."""
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        wall = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=seconds + PROCESS_SLACK_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    word, _, ready = first.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode} (first line {first!r})")
    ready = json.loads(ready)
    scaled = None
    if ready["cal_s"]:
        scaled = (wall - ready["sampling_s"]) * CAL_REFERENCE_S / ready["cal_s"]
    if setup_only:
        return (wall, scaled), None
    return (wall, scaled), json.loads(rest.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups = []
    # a traced run reports no set-up figure, so it starts no extra processes
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        setups.append(_worker(workload, seed, seconds, trace, setup_only=True)[0])
    setup, report = _worker(workload, seed, seconds, trace, setup_only=False)
    setups.append(setup)
    report["setup_wall_s"] = (statistics.median(w for w, _ in setups), len(setups))
    if not trace:
        report["setup_s"] = (statistics.median(s for _, s in setups), len(setups))
    return report


def metrics_of(report: dict, spec: dict, trace: int) -> dict:
    if trace:
        values = report["per_layer"]
        units = spec["per_layer"]
    else:
        values = {name: v for name, (v, _) in report["end_to_end"].items()}
        values["setup_s"] = report["setup_s"][0]
        values["peak_rss_mb"] = report["peak_rss_mb"]
        units = spec["end_to_end"]
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def print_report(report: dict, spec: dict, trace: int) -> None:
    w = report["workload"]
    failed = report["errors"] + report["wrong"]
    print(f"# {w}: machine {json.dumps(report['environment'], sort_keys=True)}")
    print(f"# {w}: attempted {report['attempted']}, failed {failed} "
          f"({report['errors']} raised or exited non-zero; {report['wrong']} wrong outputs; "
          f"{report['reference_failures']} failed runs of reference inputs); "
          f"correct {str(report['correct']).lower()}")
    if report["defect_probe"]:
        print(f"# {w}: defect probe, not an operation: {report['defect_probe']}")
    if trace:
        print(f"{w:13s} {'setup_wall_s':26s} {report['setup_wall_s'][0]:14.6g} s")
        for name, unit in spec["per_layer"].items():
            print(f"{w:13s} {name:26s} {report['per_layer'][name]:14.6g} {unit}")
        return
    e2e = report["end_to_end"]
    rows = [
        ("setup_s", "median, scaled", *report["setup_s"]),
        ("setup_wall_s", "median", *report["setup_wall_s"]),
        ("op_cal", "per-input median", *e2e["op_cal"]),
        ("search_s", "per-input median", *e2e["search_s"]),
    ]
    if w == "pipeline":
        rows += [
            ("pipeline_s", "per-input median", *e2e["op_s"]),
            ("holdout_rho", "mean", *e2e["holdout_rho"]),
        ]
    rows += [
        ("regret", "mean", *e2e["regret"]),
        ("gain_share", "mean", *e2e["gain_share"]),
        ("peak_rss_mb", "value", report["peak_rss_mb"], 1),
        ("failed_frac", "ratio", failed / report["attempted"], report["attempted"]),
    ]
    units = {**spec["end_to_end"], **REPORT_UNITS}
    for name, kind, value, n in rows:
        print(f"{w:13s} {name:12s} {value:14.6g} {units[name]:6s} ({kind}, n={n})")


def result_line(report: dict, spec: dict, trace: int) -> dict:
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["errors"] + report["wrong"],
        "metrics": metrics_of(report, spec, trace),
    }


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=spec["workloads"] + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (HERE.parent / "src" / "memnas").is_dir():
        print("perfbench: src/memnas not found; run from a checkout", file=sys.stderr)
        return 2
    runs = [(args.workload, args.trace)]
    if args.workload == "all":
        runs = [(w, trace) for w in spec["workloads"] for trace in (0, 1)]
    summary = {}
    try:
        for workload, trace in runs:
            report = measure(workload, args.seed, args.seconds, trace)
            print_report(report, spec, trace)
            summary[f"{workload}/trace{trace}"] = result_line(report, spec, trace)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    last = summary.popitem()[1] if args.workload != "all" else summary
    print(json.dumps(last), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
