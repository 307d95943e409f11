"""Print a fingerprint of the CLI's outputs over a fixed matrix of commands,
one line per case: the exit code, the sha256 of what it printed, the sha256
of the JSON it wrote to --out, which every case is given, and for the
--emit csv cases the sha256 of their --csv-out file. Each case runs
bqsdc.cli.main in process, on the src/bqsdc of this checkout, inside a
temporary directory: the output paths are relative, so the directory's
name is not in the printed text (`wrote PATH`).

    python tools/outputs.py > outputs.txt

tests/cli_outputs.txt holds these lines as committed, and tests/test_golden.py
compares lines() against it.

Two checkouts print the same lines exactly when every case gives the same
exit code, the same text and the same file, so comparing them is a diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bqsdc import cli  # noqa: E402
from bqsdc.adversary import STRATEGIES, TARGETS  # noqa: E402

# The entangling attack needs a flip probability and no other attack takes one.
_BETA = {"entangle_measure": ["--beta2", "0.25"]}
_OUT, _CSV = "out.json", "table.csv"


def cases() -> list[list[str]]:
    """Each case's arguments, but for --out."""
    out = [["verify"]]
    out += [["analyze", "--monte-carlo", "10000", "--seed", str(seed)] for seed in (0, 1, 11)]
    for strategy in STRATEGIES:
        for target in TARGETS:
            beta = _BETA.get(strategy, [])
            out.append(["attack", "--strategy", strategy, "--target", target,
                        "--trials", "10000", "--seed", "0", *beta])
            out.append(["run", "--N", "300", "--random-messages", "--seed", "0",
                        "--attack", f"{strategy}:{target}", *beta])
    out.append(["run", "--N", "100000", "--random-messages", "--decoys", "16", "--seed", "3"])
    out += [[command, "--emit", "csv", "--csv-out", _CSV] for command in ("verify", "analyze")]
    return out


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def lines() -> list[str]:
    """One line per case, each run in the current directory, which is left
    as it was found: the cases' output files are removed."""
    out = []
    for args in cases():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([*args, "--out", _OUT])
        paths = [Path(_OUT), *([Path(_CSV)] if _CSV in args else [])]
        written = " ".join(sha(p.read_bytes()) if p.exists() else "-" for p in paths)
        for p in paths:
            p.unlink(missing_ok=True)
        out.append(f"{code} {sha(stdout.getvalue().encode())} {written}  {' '.join(args)}")
    return out


def main() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        found = lines()
        os.chdir(home)
    print(*found, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
