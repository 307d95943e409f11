"""tools/loc.py counts physical and code lines per module, and with two
package directories prints both sides and their differences."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"


def load_loc():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_package(root, modules):
    root.mkdir()
    for name, text in modules.items():
        (root / name).write_text(text)
    return root


def test_two_packages_print_per_module_deltas(tmp_path, capsys):
    loc = load_loc()
    old = write_package(tmp_path / "old", {
        "a.py": '"""Doc."""\n\nx = 1\n# note\n',   # 4 physical, 1 code
        "gone.py": "y = 2\n",                          # 1, 1
    })
    new = write_package(tmp_path / "new", {
        "a.py": '"""Doc\nover two lines."""\n\nx = 1\ny = 2\n',  # 5, 2
        "added.py": "def f():\n    return 3\n",                    # 2, 2
    })
    assert loc.main([str(old), str(new)]) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()[2:]}
    assert rows == {
        "a.py": ["4", "5", "+1", "1", "2", "+1"],
        "added.py": ["0", "2", "+2", "0", "2", "+2"],
        "gone.py": ["1", "0", "-1", "1", "0", "-1"],
        "total": ["5", "7", "+2", "2", "4", "+2"],
    }

    assert loc.main([str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "physical", "code"]
    assert [line.split() for line in lines[1:]] == [
        ["a.py", "5", "2"], ["added.py", "2", "2"], ["total", "7", "4"]]
