"""tools/steps.py prints the median time of every Session step and of
to_json, for each of its configurations."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "steps.py"


def test_one_short_session_prints_every_step(capsys):
    spec = importlib.util.spec_from_file_location("steps", TOOL)
    steps = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(steps)
    assert steps.main(["--sessions", "1", "--groups", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["step", "clean", "entangled"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == [*steps.STEPS, "to_json"]
    # no check aborts these sessions, so every step has a time in both columns
    assert all(float(cell) >= 0 for row in rows for cell in row[1:])
