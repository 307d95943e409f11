#!/usr/bin/env python3
"""The bqsdc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload session_clean --seed 1 --seconds 25 --trace 0

Workloads (README.md says why each was chosen):
  session_clean      `bqsdc run`, N = 1000 groups, no decoys, no attack
  session_entangled  `bqsdc run`, N = 1000 groups, default decoys,
                     entangling attack on S_A with beta^2 = 0.25
  detection          `bqsdc attack` on the 15 acceptance detection cases

Every operation goes through the public entry point `bqsdc.cli.main`, with
inputs generated here from --seed, and its written JSON is checked by the
independent checkers in oracle.py. One operation is one session, or one
detection case; detection runs in whole rounds of all 15 cases.

With --trace 0 the run times the operations untraced for --seconds and
prints the end-to-end metrics. With --trace 1 it alternates each operation
untraced and traced (tracer.py), and prints the per-layer metrics plus the
tracing overhead. Every time is scaled by the speed of a reference kernel
timed just before it (see reference_s). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

All load comes from this one process; set-up is timed in fresh
interpreters started one at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

# One BLAS thread: the program's matrices have 2-256 entries, and extra
# threads would only add scheduler noise on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer, install_bqsdc  # noqa: E402

N_GROUPS = 1000
BETA2 = 0.25
TRIALS = 20_000          # per detection case
SETUP_PROBES = 7         # fresh interpreters timed per run
REF_SECONDS = 0.010      # nominal time of one reference-kernel pass

SESSION_FLAGS = {
    "session_clean": ["--decoys", "0"],
    "session_entangled": ["--attack", "entangle:S_A", "--beta2", str(BETA2),
                          "--threshold", "0.5"],
}


def _case(cid, strategy, target, expected, cli_args, attack, template):
    """One detection case. `params` is what the written estimate must
    record for it; None means a uniform draw per trial, which the derived
    value assumes wherever the case names no state or basis."""
    sc = target == "S_C"
    params = {"fake_state": attack.get("fake_state"), "eve_basis": attack.get("eve_basis"),
              "beta_squared": attack.get("beta_squared", 0.0),
              "sample_label": "psi0" if sc else None,
              "bob_basis": template.get("bob_basis") if sc else None,
              "decoy_basis": None if sc else template.get("decoy_basis")}
    return {"id": cid, "strategy": strategy, "target": target, "expected": expected,
            "cli": ["--target", target, *cli_args], "attack": attack, "template": template,
            "params": params}


def detection_cases() -> list[dict]:
    """The 15 acceptance cases with their hand-derived Born values
    (README.md): 0.5 for intercept-resend, 0.25 for measure-resend,
    beta^2 for the entangling attack on Z decoys."""
    cases = []
    for fake in ("0", "1", "+", "-"):
        for basis in ("Z", "X"):
            cases.append(_case(f"ir-fake{fake}-{basis}", "intercept_resend", "S_C", 0.5,
                               ["--strategy", f"intercept-resend:{fake}",
                                "--check-basis", basis],
                               dict(strategy="intercept_resend", fake_state=fake),
                               dict(bob_basis=basis)))
    for eve in ("Z", "X"):
        cases.append(_case(f"mr-{eve}-total", "measure_resend", "S_C", 0.25,
                           ["--strategy", f"measure-resend:{eve}"],
                           dict(strategy="measure_resend", eve_basis=eve), {}))
    cases.append(_case("bb84-ir", "intercept_resend", "S_B", 0.5,
                       ["--strategy", "intercept-resend"],
                       dict(strategy="intercept_resend"), {}))
    cases.append(_case("bb84-mr", "measure_resend", "S_B", 0.25,
                       ["--strategy", "measure-resend"],
                       dict(strategy="measure_resend"), {}))
    for b2 in (0.1, 0.25, 0.5):
        cases.append(_case(f"em-b2={b2}", "entangle_measure", "S_A", b2,
                           ["--strategy", "entangle", "--beta2", str(b2),
                            "--decoy-basis", "Z"],
                           dict(beta_squared=b2), dict(decoy_basis="Z")))
    return cases


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "bqsdc" / "__init__.py").is_file():
        fail(f"no bqsdc package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import bqsdc
    from bqsdc import cli
    if Path(bqsdc.__file__).resolve().parent != SRC / "bqsdc":
        fail(f"imported bqsdc from {bqsdc.__file__}, not from {SRC}")
    return bqsdc, cli


# -- machine speed ------------------------------------------------------------

_REF_STATE = np.zeros(8, dtype=np.complex128)
_REF_STATE[[0, 7]] = 2.0 ** -0.5
_REF_OP = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_REF_PERM = [1, 4, 0, 2, 3, 5]


def reference_s() -> float:
    """Seconds for one pass of a fixed kernel in the program's idiom: small
    state vectors tensored, transposed, multiplied and validated from a
    Python loop. It calls nothing in bqsdc, so only the machine's current
    speed moves it.

    On a machine whose cores are shared with other tenants, such as the
    2-vCPU VM of the README's reference figures, speed swings by a third
    within minutes. Every command is therefore timed between two reference
    passes and scaled by REF_SECONDS / their mean time: work per second on
    a machine where the pass takes REF_SECONDS."""
    t0 = perf_counter()
    inv = np.argsort(_REF_PERM)
    acc = 0.0
    for _ in range(300):
        t = np.kron(_REF_STATE, _REF_STATE).reshape((2,) * 6).transpose(_REF_PERM)
        out = (_REF_OP @ t.reshape(2, -1)).reshape((2,) * 6).transpose(inv).reshape(-1)
        acc += float(np.linalg.norm(out)) + bool(np.all(np.isfinite(out.view(np.float64))))
    return perf_counter() - t0


# -- set-up -------------------------------------------------------------------


def setup_probe(count: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "setup_probe.py")] + (["--count"] if count else [])
    out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=60, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def measure_setup(trace: bool) -> dict:
    """Median set-up phases over fresh interpreters, each scaled by the
    reference pass made just before it."""
    setup_probe()  # untimed: compiles bytecode and warms the file cache
    probes = []
    for _ in range(SETUP_PROBES):
        scale = REF_SECONDS / reference_s()
        probes.append({k: v * scale for k, v in setup_probe().items()})
    out = {k: statistics.median(p[k] for p in probes)
           for k in ("setup_s", "import_s", "transform_chart_s", "swap_chart_s",
                     "consistency_sets_s")}
    if trace:
        out["joint_distribution_calls"] = setup_probe(count=True)["joint_distribution_calls"]
    return out


def warm_charts(bqsdc) -> None:
    """Derive the cached charts in this process so timed operations do not
    pay for them; set-up is measured on its own."""
    from bqsdc import checks, swap
    bqsdc.transform_label(bqsdc.GhzLabel.PSI0, bqsdc.CompositeOp.U0)
    bqsdc.invert_transform(bqsdc.GhzLabel.PSI0, bqsdc.GhzLabel.PSI0)
    swap.collection_table(bqsdc.GhzLabel.PSI0, bqsdc.GhzLabel.PSI0)
    for label in bqsdc.GhzLabel:
        for basis in (bqsdc.MeasBasis.Z, bqsdc.MeasBasis.X):
            checks.consistent_ghz_outcomes(label, basis)


# -- operations ---------------------------------------------------------------


class Workload:
    """Generates operation inputs from the seed, runs them through the CLI
    and checks their written output."""

    def __init__(self, name: str, seed: int, cli):
        self.name, self.seed, self.cli = name, seed, cli
        WORK.mkdir(exist_ok=True)
        self.out = WORK / f"{name}-{seed}.json"

    def call(self, argv: list[str]) -> tuple[bool, float, str]:
        """Run one CLI command; (ok, seconds, message)."""
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink):
                t0 = perf_counter()
                rc = self.cli.main(argv)
                t1 = perf_counter()
        except Exception as exc:  # a crash in the program fails the operation
            traceback.print_exc(file=sys.stderr)
            return False, 0.0, f"{type(exc).__name__}: {exc}"
        return rc == 0, t1 - t0, "" if rc == 0 else f"exit code {rc}"

    def timed_call(self, argv: list[str]) -> tuple[bool, float, float, str]:
        """The command between two reference passes: (ok, seconds, seconds
        scaled by the passes' mean, message)."""
        before = reference_s()
        ok, seconds, msg = self.call(argv)
        ref = (before + reference_s()) / 2
        return ok, seconds, seconds * REF_SECONDS / ref, msg


class Sessions(Workload):
    unit = "groups"

    def inputs(self, i: int) -> tuple[str, str, list[str]]:
        r = random.Random(f"{self.name}/{self.seed}/{i}")
        alice = format(r.getrandbits(3 * N_GROUPS), f"0{3 * N_GROUPS}b")
        bob = format(r.getrandbits(3 * N_GROUPS), f"0{3 * N_GROUPS}b")
        argv = ["run", "--N", str(N_GROUPS), "--alice", alice, "--bob", bob,
                "--seed", str(r.getrandbits(63)), "--out", str(self.out),
                *SESSION_FLAGS[self.name]]
        return alice, bob, argv

    def check(self, alice: str, bob: str, transcript: dict) -> list[str]:
        if self.name == "session_clean":
            return oracle.check_clean(transcript, alice, bob)
        return oracle.check_entangled(transcript, alice, bob, BETA2)

    def corruptions(self):
        if self.name == "session_clean":
            return oracle.clean_corruptions()
        return oracle.entangled_corruptions(BETA2)

    def round(self, i: int) -> dict:
        """Operation i: one session of N_GROUPS groups."""
        alice, bob, argv = self.inputs(i)
        ok, seconds, scaled, msg = self.timed_call(argv)
        res = {"ops": 1, "work": N_GROUPS, "seconds": seconds, "scaled": scaled,
               "errors": [], "outputs": []}
        if not ok:
            res["errors"].append([msg])
            return res
        transcript = json.loads(self.out.read_text())
        res["errors"].append(self.check(alice, bob, transcript))
        res["outputs"].append(self.out.read_bytes())
        res["sample"] = (alice, bob, transcript)
        return res

    def self_test(self, sample) -> list[str]:
        alice, bob, transcript = sample
        return [name for name, corrupt in self.corruptions()
                if not self.check(alice, bob, corrupt(transcript))]

    def peak_heap(self) -> float:
        _, _, argv = self.inputs(0)
        return traced_peak(lambda: self.call(argv))


class Detection(Workload):
    unit = "trials"

    def __init__(self, *args):
        super().__init__(*args)
        self.cases = detection_cases()

    def inputs(self, i: int) -> list[list[str]]:
        r = random.Random(f"{self.name}/{self.seed}/{i}")
        return [["attack", *c["cli"], "--trials", str(TRIALS),
                 "--seed", str(r.getrandbits(63)), "--out", str(self.out)]
                for c in self.cases]

    def round(self, i: int) -> dict:
        """Round i: every detection case once, TRIALS trials each."""
        res = {"ops": len(self.cases), "work": TRIALS * len(self.cases), "seconds": 0.0,
               "scaled": 0.0, "errors": [], "outputs": [], "sample": []}
        for case, argv in zip(self.cases, self.inputs(i)):
            ok, seconds, scaled, msg = self.timed_call(argv)
            res["seconds"] += seconds
            res["scaled"] += scaled
            if not ok:
                res["errors"].append([f"{case['id']}: {msg}"])
                continue
            est = json.loads(self.out.read_text())
            res["errors"].append([f"{case['id']}: {e}"
                                  for e in oracle.check_detection(est, case, TRIALS)])
            res["outputs"].append(self.out.read_bytes())
            res["sample"].append((case, est))
        return res

    def self_test(self, sample) -> list[str]:
        return [f"{case['id']}: {name}" for case, est in sample
                for name, corrupt in oracle.detection_corruptions()
                if not oracle.check_detection(corrupt(est, case), case, TRIALS)]

    def peak_heap(self) -> float:
        """Peak of one case, bb84-ir: it draws the most per trial (decoy,
        fake state and outcome). The heap does not grow with trials today."""
        argv = self.inputs(0)[[c["id"] for c in self.cases].index("bb84-ir")]
        return traced_peak(lambda: self.call(argv))

    def table_build_s(self) -> float:
        """Mean time of exact_detection_probability per case (Born tables),
        scaled to the reference speed."""
        from bqsdc.adversary import (AttackConfig, CheckTemplate,
                                     exact_detection_probability)
        scale = REF_SECONDS / reference_s()
        total = 0.0
        for c in self.cases:
            a = dict(c["attack"])
            if "beta_squared" in a:
                cfg = AttackConfig.entangling(a["beta_squared"], target=c["target"])
            else:
                cfg = AttackConfig(target=c["target"], **a)
            template = CheckTemplate(**c["template"])
            t0 = perf_counter()
            exact_detection_probability(cfg, template)
            total += perf_counter() - t0
        return total / len(self.cases) * scale


def traced_peak(fn) -> float:
    """Peak Python heap in MB while fn runs, under tracemalloc."""
    tracemalloc.start()
    try:
        ok, _, msg = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if not ok:
        raise RuntimeError(f"heap pass failed: {msg}")
    return peak / 1e6


# -- runs ---------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.self_test_misses: list[str] | None = None

    def add(self, wl: Workload, res: dict) -> None:
        self.attempted += res["ops"]
        for errs in res["errors"]:
            if errs:
                self.failed += 1
                print(f"bench: operation failed: {'; '.join(errs[:3])}", file=sys.stderr)
        # The first checked output also feeds the checkers' self-test.
        if self.self_test_misses is None and res.get("sample"):
            self.self_test_misses = wl.self_test(res["sample"])
            for name in self.self_test_misses:
                print(f"bench: checker passed a corrupted output ({name})", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.self_test_misses == []


def untraced_run(wl: Workload, seconds: float, tally: Tally) -> list[tuple[float, float]]:
    """Rounds until `seconds` have passed; (scaled, raw) work per second of
    each."""
    rates = []
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        res = wl.round(i)
        tally.add(wl, res)
        if res["seconds"] > 0:
            rates.append((res["work"] / res["scaled"], res["work"] / res["seconds"]))
        i += 1
    return rates


def traced_run(wl: Workload, seconds: float, tally: Tally) -> list[dict]:
    """Each round untraced, then the same round traced; the first traced
    round also records spans, written out when the loop ends."""
    tracer = Tracer()
    rows, spans = [], None
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        plain = wl.round(i)
        tally.add(wl, plain)
        row = {"work": plain["work"], "plain_s": plain["scaled"],
               "plain_raw_s": plain["seconds"]}
        if isinstance(wl, Detection):
            row["table_build_s"] = wl.table_build_s()
        if i == 0:
            tracer.spans = []
        install_bqsdc(tracer)
        try:
            traced = wl.round(i)
        finally:
            tracer.uninstall()
        tally.add(wl, traced)
        if traced["outputs"] != plain["outputs"]:
            tally.failed += 1
            print("bench: traced output differs from untraced output", file=sys.stderr)
        row.update(traced_s=traced["scaled"], traced_raw_s=traced["seconds"],
                   layers=tracer.take(),
                   scale=traced["scaled"] / traced["seconds"] if traced["seconds"] else 1.0)
        if i == 0:
            spans = tracer.span_dump()
            tracer.spans = None
        rows.append(row)
        i += 1
    (WORK / f"spans-{wl.name}-{wl.seed}.json").write_text(
        json.dumps({"trace_id": 0, **spans}, separators=(",", ":")))
    return rows


# -- metrics ------------------------------------------------------------------

STEPS = ("prepare", "check1", "alice_encode", "check2", "check3", "bob_encode",
         "swap_and_announce", "decode", "to_json")
CALL_COUNTS = ("particles.measure_particles", "particles.merge", "particles.append_ancilla",
               "particles.apply_op", "qcore.apply_single", "qcore.apply_unitary",
               "qcore.tensor", "codebook.transform_label", "codebook.invert_transform",
               "swap.collection_of", "swap.collection_table", "checks.decoy_state",
               "checks.ghz_sample_ok", "adversary.apply_attack")
SELF_TIMES = ("particles.measure_particles", "qcore.measure", "qcore.apply_single",
              "qcore.tensor", "qcore.statevector", "adversary.apply_attack")


def per_layer_metrics(wl: Workload, rows: list[dict], setup: dict) -> dict:
    sessions = isinstance(wl, Sessions)
    # Counts and times per 1000 groups (sessions) or per 1e5 trials (detection).
    base = 1000 if sessions else 100_000

    def norm(row):
        return base / row["work"] * row["scale"]

    first = rows[0]["layers"]
    f_norm = base / rows[0]["work"]

    def calls(name):
        return first["stats"].get(name, (0, 0.0, 0.0))[0]

    def counted(name):
        return first["counts"].get(name, 0)

    def time_median(name, field):
        return statistics.median(r["layers"]["stats"].get(name, (0, 0.0, 0.0))[field] * norm(r)
                                 for r in rows)

    m = {}
    for step in STEPS:
        m[f"protocol.{step}_s"] = (time_median(f"protocol.{step}", 1), "s")
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = (calls(name) * f_norm, "count")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (time_median(name, 2), "s")
    for basis in ("Z", "X", "BELL", "GHZ"):
        m[f"qcore.measure.calls.{basis}"] = (counted(f"qcore.measure.calls.{basis}") * f_norm,
                                             "count")
    m["qcore.statevector.count"] = (calls("qcore.statevector") * f_norm, "count")
    m["qcore.max_qubits"] = (first["max_qubits"], "count")
    draws, streams = counted("qcore.rng.draws"), counted("qcore.rng.streams")
    m["qcore.rng.draws"] = (draws * f_norm, "count")
    m["qcore.rng.streams"] = (streams * f_norm, "count")
    m["qcore.joint_distribution.calls"] = (setup["joint_distribution_calls"], "count")
    groups = rows[0]["work"] if sessions else 0
    trials = 0 if sessions else rows[0]["work"]
    m["qcore.statevector.per_group"] = (calls("qcore.statevector") / groups if groups else 0.0,
                                        "count")
    m["qcore.rng.draws.per_group"] = (draws / groups if groups else 0.0, "count")
    m["particles.merge.per_group"] = (calls("particles.merge") / groups if groups else 0.0,
                                      "count")
    m["adversary.table_build_s"] = (
        statistics.median(r["table_build_s"] for r in rows) if not sessions else 0.0, "s")
    m["adversary.rng_draws_per_trial"] = (draws / trials if trials else 0.0, "count")
    m["adversary.rng_streams_per_trial"] = (streams / trials if trials else 0.0, "count")
    for phase in ("import_s", "transform_chart_s", "swap_chart_s", "consistency_sets_s"):
        m[f"setup.{phase}"] = (setup[phase], "s")
    timed = [r for r in rows if r["plain_s"] > 0 and r["traced_s"] > 0] or [
        {"work": 0.0, "plain_s": 1.0, "traced_s": 1.0, "plain_raw_s": 1.0,
         "traced_raw_s": 1.0}]  # every call crashed
    m["trace.untraced_rate"] = (statistics.median(r["work"] / r["plain_s"] for r in timed), "1/s")
    m["trace.traced_rate"] = (statistics.median(r["work"] / r["traced_s"] for r in timed), "1/s")
    # Each pair runs back to back, so its raw times share the machine's speed.
    m["trace.overhead"] = (
        statistics.median(r["traced_raw_s"] / r["plain_raw_s"] for r in timed) - 1.0, "ratio")
    m["machine.reference_s"] = (statistics.median(REF_SECONDS / r["scale"] for r in rows), "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["session_clean", "session_entangled", "detection"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        fail("--seconds must be positive")

    bqsdc, cli = import_program()
    cls = Detection if args.workload == "detection" else Sessions
    wl = cls(args.workload, args.seed, cli)
    tally = Tally()

    setup = measure_setup(trace=bool(args.trace))
    warm_charts(bqsdc)
    if args.trace:
        rows = traced_run(wl, args.seconds, tally)
        metrics = per_layer_metrics(wl, rows, setup)
        print(f"{args.workload}: {len(rows)} rounds untraced and traced")
    else:
        heap = wl.peak_heap()
        rates = untraced_run(wl, args.seconds, tally) or [(0.0, 0.0)]
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "throughput": (statistics.median(r[0] for r in rates), "1/s"),
            "peak_heap_mb": (heap, "MB"),
        }
        print(f"{args.workload}: {len(rates)} rounds; throughput in {wl.unit}/s, median "
              f"over rounds, scaled to the reference speed (unscaled "
              f"{statistics.median(r[1] for r in rates):.6g})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}, "
          f"checker self-test {'ok' if tally.self_test_misses == [] else 'FAILED'}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
