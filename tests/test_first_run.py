"""tools/first_run.py times, in a fresh interpreter, the charts and the
first bqsdc run; its child prints both times as one JSON line."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "first_run.py"


def test_child_prints_one_json_line_of_times(capsys):
    spec = importlib.util.spec_from_file_location("first_run", TOOL)
    first_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(first_run)
    first_run.child("clean")
    [line] = capsys.readouterr().out.splitlines()
    times = json.loads(line)
    assert set(times) == {"charts_s", "run_s"}
    assert times["charts_s"] >= 0 and times["run_s"] >= 0
