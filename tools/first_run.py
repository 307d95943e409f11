"""Print what a `bqsdc run` process pays once: the median, over fresh
interpreters started one at a time, of deriving the two charts plus the
first bqsdc.cli.main run, for a clean run and an entangled one.

    python tools/first_run.py

Each interpreter imports the package untimed, then times the transform and
swap charts' derivation and one `run --N 1000` (clean: no decoys, no
attack; entangled: an entangling attack on S_A at beta^2 0.25, threshold
0.5, default decoys) writing its transcript to a temporary file. Every
run has the same messages and seed. A gain here is not amortized over
sessions: each interpreter runs one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
INTERPRETERS = 7
N_GROUPS = 1000
CONFIGS = {
    "clean": ["--decoys", "0"],
    "entangled": ["--attack", "entangle:S_A", "--beta2", "0.25", "--threshold", "0.5"],
}


def child(name: str) -> None:
    """Time one fresh interpreter's charts and first run; print them as JSON."""
    from bqsdc import cli
    from bqsdc.codebook import transform_chart
    from bqsdc.swap import swap_chart

    r = random.Random(0)
    alice, bob = (format(r.getrandbits(3 * N_GROUPS), f"0{3 * N_GROUPS}b") for _ in range(2))
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["run", "--N", str(N_GROUPS), "--alice", alice, "--bob", bob, "--seed", "1",
                "--out", os.path.join(tmp, "t.json"), *CONFIGS[name]]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            transform_chart()
            swap_chart()
            t1 = perf_counter()
            code = cli.main(argv)
            t2 = perf_counter()
    if code != 0:
        sys.exit(f"run exited {code}")
    print(json.dumps({"charts_s": t1 - t0, "run_s": t2 - t1}))


def main() -> None:
    # one BLAS thread, as bench/run.py runs the program
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name in CONFIGS:
        probes = []
        for _ in range(INTERPRETERS):
            out = subprocess.run([sys.executable, __file__, "--child", name], env=env,
                                 capture_output=True, text=True, timeout=120, check=True)
            probes.append(json.loads(out.stdout))
        ms = {k: 1e3 * statistics.median(p[k] for p in probes) for k in ("charts_s", "run_s")}
        total = 1e3 * statistics.median(p["charts_s"] + p["run_s"] for p in probes)
        print(f"{name}: {total:.2f} ms (median over {INTERPRETERS} interpreters; charts "
              f"{ms['charts_s']:.2f} ms, first run {ms['run_s']:.2f} ms, medians of each)")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        main()
