"""Print the median wall time of each Session step, and of writing the
transcript's JSON, over in-process sessions of one configuration after
another: clean (no decoys, no attack) and entangled (an entangling attack
on S_A at beta^2 0.25, threshold 0.5, default decoys), the configurations
of tools/first_run.py, with its messages and seed.

    python tools/steps.py [--sessions R] [--groups N]

R defaults to 200 sessions of N = 1000 groups each. Every session is a new
Session, run step by step as Session.run runs it, after one untimed session
of the configuration that fills the process's caches. A step after a check
that aborts is not run; its median is over the sessions that ran it, and
it prints "-" when none did.
"""

from __future__ import annotations

import argparse
import io
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bqsdc.adversary import AttackConfig  # noqa: E402
from bqsdc.protocol import Session, SessionConfig  # noqa: E402

STEPS = ("prepare", "check1", "alice_encode", "check2", "check3", "bob_encode",
         "swap_and_announce", "decode")
CHECKS = ("check1", "check2", "check3")


def configs(n_groups: int) -> dict[str, SessionConfig]:
    return {
        "clean": SessionConfig(n_groups, seed=1, decoys=0),
        "entangled": SessionConfig(n_groups, seed=1, check_threshold=0.5,
                                   attack=AttackConfig.entangling(0.25, target="S_A")),
    }


def time_session(cfg: SessionConfig, alice: str, bob: str) -> dict[str, float]:
    """Seconds of each step one new session ran, then of to_json."""
    session, times = Session(cfg, alice, bob), {}
    for step in STEPS:
        t0 = perf_counter()
        result = getattr(session, step)()
        times[step] = perf_counter() - t0
        if step in CHECKS and result.aborted:
            break
    t0 = perf_counter()
    session.transcript.to_json(io.StringIO())
    times["to_json"] = perf_counter() - t0
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sessions", type=int, default=200)
    parser.add_argument("--groups", type=int, default=1000)
    args = parser.parse_args(argv)
    r = random.Random(0)
    alice, bob = (format(r.getrandbits(3 * args.groups), f"0{3 * args.groups}b")
                  for _ in range(2))
    columns = {}
    for name, cfg in configs(args.groups).items():
        time_session(cfg, alice, bob)
        runs = [time_session(cfg, alice, bob) for _ in range(args.sessions)]
        columns[name] = {step: [t[step] for t in runs if step in t]
                         for step in (*STEPS, "to_json")}
    print(f"median ms over {args.sessions} sessions of {args.groups} groups")
    print(f"{'step':<20}" + "".join(f"{name:>12}" for name in columns))
    for step in (*STEPS, "to_json"):
        cells = [f"{1e3 * statistics.median(c[step]):.4f}" if c[step] else "-"
                 for c in columns.values()]
        print(f"{step:<20}" + "".join(f"{cell:>12}" for cell in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
