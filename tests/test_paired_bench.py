"""``tools/paired_bench.py``: the net ``src/`` line count and the bound
check it prints."""

import runpy
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"


def test_net_lines_is_lines_added_less_lines_deleted():
    net_lines = runpy.run_path(str(TOOL))["net_lines"]
    numstat = (
        "30\t15\tsrc/memnas/memory.py\n"
        "13\t28\tsrc/memnas/predictor.py\n"
        "0\t6\tsrc/memnas/with space.py\n"
        "-\t-\tsrc/memnas/logo.png\n"
    )
    assert net_lines(numstat) == -6
    assert net_lines("") == 0


def bench_run(pair, side, op_cal, gain_share):
    return {"pair": pair, "side": side, "result": {"metrics": {
        "op_cal": {"value": op_cal, "unit": "cal"},
        "gain_share": {"value": gain_share, "unit": "share"},
    }}}


def test_the_summary_checks_each_median_ratio_against_its_bound(capsys):
    summarize = runpy.run_path(str(TOOL))["summarize"]
    # op_cal, lower better: medians 4.0 and 5.2, a ratio of 1.3 past the
    # bound 0.25; gain_share, higher better: medians 1.0 and 0.96, within 0.05
    runs = [
        bench_run(pair, side, op_cal, share)
        for pair, (parent_cal, change_cal, change_share) in enumerate(
            [(3.9, 5.1, 0.96), (4.0, 5.2, 0.96), (4.1, 5.3, 0.96)], start=1
        )
        for side, op_cal, share in [
            ("parent", parent_cal, 1.0), ("change", change_cal, change_share)
        ]
    ]
    better = {"op_cal": "lower", "gain_share": "higher"}
    summarize(runs, "w", better, bounds={"op_cal": 0.25, "gain_share": 0.05})
    out = capsys.readouterr().out
    assert "op_cal           change/parent median 1.3000, worse than its bound 0.25" in out
    assert "gain_share       change/parent median 0.9600, within its bound 0.05" in out
    summarize(runs, "w", better, bounds={"op_cal": 0.35, "gain_share": 0.03})
    out = capsys.readouterr().out
    assert "op_cal           change/parent median 1.3000, within its bound 0.35" in out
    assert "gain_share       change/parent median 0.9600, worse than its bound 0.03" in out
    summarize(runs, "w", better)  # per-layer figures have no bound
    assert "change/parent" not in capsys.readouterr().out
