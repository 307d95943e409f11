"""Command-line front door: codebook verification, session runs, attack
sweeps, and analysis reports.

Every command is deterministic under --seed (when omitted, a seed is drawn
from system entropy and recorded in the output). Exit codes: 0 success,
1 verification or assertion failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import secrets
import sys

from . import __version__, adversary, analysis, codebook, swap
from .adversary import AttackConfig, CheckTemplate
from .labels import GhzLabel
from .protocol import SessionConfig, random_message_bits, run_session
from .qcore import Rng

SEED_ENV_VAR = "BQSDC_SEED"


class UsageError(Exception):
    pass


def _resolve_seed(arg_seed: int | None) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return secrets.randbits(63)


def _open_out(path: str, newline: str | None = None):
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _write_text(path: str | None, text: str) -> None:
    if path:
        with _open_out(path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(path: str | None, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _parse_attack(args) -> AttackConfig | None:
    """Attack from --attack STRATEGY[:TARGET] plus the policy flags."""
    if not args.attack:
        return None
    strategy, target = args.attack, "S_C"
    if ":" in strategy:
        strategy, target = strategy.split(":", 1)
    return _build_attack(strategy, target, args.fake, args.eve_basis, args.beta2)


def _build_attack(strategy: str, target: str, fake: str | None,
                  eve_basis: str | None, beta2: float | None) -> AttackConfig:
    name = strategy.strip().lower().replace("-", "_")
    aliases = {
        "intercept": "intercept_resend",
        "intercept_resend": "intercept_resend",
        "measure_resend": "measure_resend",
        "entangle": "entangle_measure",
        "entangle_measure": "entangle_measure",
        "none": "none",
    }
    if name not in aliases:
        raise UsageError(f"unknown attack strategy {strategy!r}")
    name = aliases[name]
    try:
        if name == "entangle_measure":
            if beta2 is None:
                raise UsageError("entangle attack needs --beta2")
            base = AttackConfig.entangling(beta2, target=target)
            return base
        return AttackConfig(name, target=target, fake_state=fake, eve_basis=eve_basis)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _split_policy(text: str) -> tuple[str, str | None]:
    """'measure-resend:X' -> ('measure-resend', 'X')."""
    if ":" in text:
        head, policy = text.split(":", 1)
        return head, policy
    return text, None


def cmd_verify(args) -> int:
    csv_path = (args.csv_out or "swap_table.csv") if args.emit == "csv" else None
    transform = codebook.verify_transform_table()
    try:
        swap_rep = swap.verify_swap_table(csv_path=csv_path)
    except OSError as exc:
        raise UsageError(f"cannot write {csv_path}: {exc.strerror}") from None
    n_ok = (64 - transform["mismatches"]) + (64 - swap_rep["mismatches"])
    print(f"transform chart: {64 - transform['mismatches']}/64 entries verified")
    print(f"swap collections: {64 - swap_rep['mismatches']}/64 pairs verified")
    print(f"reference collection sets: {swap_rep['reference_set_matches']}/8 equal")
    print(f"total checks passed: {n_ok + swap_rep['reference_set_matches']}")
    payload = {
        "version": __version__,
        "transform_table": transform,
        "swap_table": {k: v for k, v in swap_rep.items() if k != "entries"},
        "swap_entries": swap_rep["entries"],
    }
    if args.out:
        _write_json(args.out, payload)
    if csv_path:
        print(f"wrote {csv_path}")
    failed = (transform["mismatches"] or swap_rep["mismatches"]
              or swap_rep["reference_set_matches"] != 8)
    return 1 if failed else 0


def cmd_run(args) -> int:
    seed = _resolve_seed(args.seed)
    attack = _parse_attack(args)
    try:
        initial = GhzLabel.from_token(args.initial) if args.initial else None
        cfg = SessionConfig(
            n_groups=args.N,
            seed=seed,
            decoys_step1=args.decoys,
            decoys_step3=args.decoys,
            decoys_step5=args.decoys,
            check_threshold=args.threshold,
            attack=attack,
            initial_label=initial,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.random_messages:
        msg_rng = Rng(seed, stream=2)
        alice = random_message_bits(args.N, msg_rng)
        bob = random_message_bits(args.N, msg_rng)
    else:
        if args.alice is None or args.bob is None:
            raise UsageError("provide --alice and --bob bits, or --random-messages")
        alice, bob = args.alice, args.bob
    try:
        transcript = run_session(cfg, alice, bob)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    for check in transcript.checks:
        print(f"check at step {check.step}: {check.errors}/{check.samples} errors "
              f"(rate {check.error_rate:.4f})")
    if transcript.aborted:
        print(f"session aborted at step {transcript.abort_step}")
    else:
        print(f"alice decoded: {transcript.alice_message_bits()}")
        print(f"bob decoded:   {transcript.bob_message_bits()}")
    _write_text(args.out, transcript.to_json())
    return 0


def cmd_attack(args) -> int:
    seed = _resolve_seed(args.seed)
    head, policy = _split_policy(args.strategy)
    name = head.strip().lower().replace("-", "_")
    fake = args.fake
    eve_basis = args.eve_basis
    if policy is not None:
        if name in ("intercept", "intercept_resend"):
            fake = policy
        elif name in ("measure_resend",):
            eve_basis = policy.upper()
        else:
            raise UsageError(f"strategy {args.strategy!r} takes no ':' policy")
    cfg = _build_attack(name, args.target, fake, eve_basis, args.beta2)
    try:
        template = CheckTemplate(
            sample_label=GhzLabel.from_token(args.sample),
            bob_basis=None if args.check_basis == "uniform" else args.check_basis,
            decoy_basis=None if args.decoy_basis == "uniform" else args.decoy_basis,
        )
        est = adversary.estimate_detection(cfg, template, trials=args.trials, seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"strategy {est.strategy} on {est.target}: rate {est.rate:.4f} "
          f"(ci95 {est.ci95:.4f}, exact {est.exact_value:.4f})")
    if est.claimed_value is not None:
        print(f"claimed {est.claimed_value:.4f}, abs error {est.abs_error:.4f}")
    payload = {"version": __version__, "seed": seed, **est.to_json_dict()}
    if args.out:
        _write_json(args.out, payload)
    return 0


def cmd_analyze(args) -> int:
    if args.monte_carlo is not None and args.monte_carlo < 1:
        raise UsageError("--monte-carlo needs at least one group")
    leak = analysis.leakage_report()
    cap = analysis.capacity_report()
    rows = analysis.comparison_report()
    print(f"observer entropy: {leak['computed']['entropy_bits']:.4f} bits "
          f"(claimed {leak['claimed']['entropy_bits']:.1f})")
    print(f"conditioned on announcement: {leak['computed']['conditional_entropy_bits']:.4f} bits")
    print(f"mutual information: {leak['computed']['mutual_information_bits']:.4f} bits "
          f"(claimed leakage {leak['claimed']['leaked_bits']:.1f}, "
          f"discrepancy={leak['discrepancy']})")
    print(f"efficiency: {cap['efficiency']:.1%} "
          f"({cap['bits_per_round']} bits / {cap['qubits_per_round']} qubits "
          f"+ {cap['classical_bits_per_round']} classical)")
    payload = {
        "version": __version__,
        "leakage": leak,
        "capacity": cap,
        "comparison": [r.to_json_dict() for r in rows],
    }
    if args.monte_carlo is not None:
        payload["leakage_monte_carlo"] = analysis.leakage_monte_carlo(
            n_groups=args.monte_carlo, seed=_resolve_seed(args.seed))
    if args.out:
        _write_json(args.out, payload)
    if args.emit == "csv":
        path = args.csv_out or "comparison.csv"
        with _open_out(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["protocol", "bits_per_round", "leaked_bits", "efficiency", "note"])
            for r in rows:
                writer.writerow([r.protocol, r.bits_per_round, r.leaked_bits,
                                 "" if r.efficiency is None else f"{r.efficiency:.4f}", r.note])
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqsdc",
        description="GHZ entanglement-swapping bidirectional QSDC simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="re-derive and verify both codebook charts")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--emit", choices=["json", "csv"], default="json")
    p.add_argument("--csv-out", help="path for the CSV table (with --emit csv)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="execute one protocol session")
    p.add_argument("--N", type=int, default=1, help="number of message groups")
    p.add_argument("--alice", help="Alice's 3N message bits")
    p.add_argument("--bob", help="Bob's 3N message bits")
    p.add_argument("--random-messages", action="store_true")
    p.add_argument("--initial", help="force the prepared state (psi0..psi7)")
    p.add_argument("--seed", type=int)
    p.add_argument("--decoys", type=int, help="decoys per check (default 16 or N)")
    p.add_argument("--threshold", type=float, default=0.0, help="abort threshold")
    p.add_argument("--attack", help="STRATEGY[:TARGET], e.g. intercept:S_C")
    p.add_argument("--fake", choices=["0", "1", "+", "-"], help="intercept fake state")
    p.add_argument("--eve-basis", choices=["Z", "X"], help="measure-resend basis")
    p.add_argument("--beta2", type=float, help="entangle attack flip probability")
    p.add_argument("--out", help="write the transcript JSON here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("attack", help="Monte Carlo detection-rate estimate")
    p.add_argument("--strategy", required=True,
                   help="none | intercept-resend[:FAKE] | measure-resend[:BASIS] | entangle")
    p.add_argument("--target", choices=["S_C", "S_B", "S_A"], default="S_C")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--fake", choices=["0", "1", "+", "-"])
    p.add_argument("--eve-basis", choices=["Z", "X"])
    p.add_argument("--beta2", type=float)
    p.add_argument("--sample", default="psi0", help="GHZ sample state for S_C checks")
    p.add_argument("--check-basis", choices=["Z", "X", "uniform"], default="uniform")
    p.add_argument("--decoy-basis", choices=["Z", "X", "uniform"], default="uniform")
    p.add_argument("--out", help="write the estimate JSON here")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("analyze", help="leakage, capacity, and comparison reports")
    p.add_argument("--seed", type=int)
    p.add_argument("--monte-carlo", type=int, metavar="GROUPS",
                   help="also run the empirical leakage estimate")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--emit", choices=["json", "csv"], default="json")
    p.add_argument("--csv-out", help="path for the comparison CSV (with --emit csv)")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
