"""``tools/paired_bench.py``: the net ``src/`` line count it prints."""

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
