"""Command-line front door: codebook verification, session runs, attack
sweeps, and analysis reports.

Every command is deterministic under --seed (when omitted, a seed is drawn
from system entropy and recorded in the output). Exit codes: 0 success, 1
verification or assertion failure or stdout closed, 2 usage or write error
(stdout's included), 130 interrupted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import secrets
import sys
from contextlib import ExitStack, contextmanager

from . import __version__, adversary, analysis, codebook, swap
from .adversary import STRATEGIES, TARGETS, AttackConfig, CheckTemplate
from .checks import DECOY_TOKENS
from .labels import GhzLabel
from .protocol import Session, SessionConfig, random_message_bits
from .qcore import Rng

SEED_ENV_VAR = "BQSDC_SEED"
# The most groups whose messages a command draws (run --random-messages,
# analyze --monte-carlo). The scalar draws hold three one-character strings
# of about 57 bytes a group while they are joined (182 bytes a group peak,
# tracemalloc at 10**5), so a command at the ceiling peaks near 0.18 GB.
MAX_DRAWN_GROUPS = 10 ** 6


class UsageError(Exception):
    pass


def _require_drawable(groups: int, flag: str) -> None:
    """Raise UsageError unless a command may draw the messages of groups."""
    if groups > MAX_DRAWN_GROUPS:
        raise UsageError(f"{flag} draws the messages of at most {MAX_DRAWN_GROUPS} groups, "
                         f"got {groups}")


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


class _File(io.FileIO):
    """An output file whose failed writes, on close too, are usage errors."""

    def write(self, data) -> int:
        try:
            return super().write(data)
        except OSError as exc:
            raise UsageError(f"cannot write {self.name}: {exc.strerror}") from None

    def text(self) -> io.TextIOWrapper:
        """The file as open(name, "w", newline="") wraps it, buffered by its block size."""
        return io.TextIOWrapper(io.BufferedWriter(self, self._blksize), newline="")


@contextmanager
def _open_outputs(*paths: str | None):
    """One open file per output path, None where a path is unset. Every path
    is opened, without truncation, before any file is truncated and before
    the work it records: an unwritable path, or two paths naming one file,
    fails at once and leaves the other outputs as they were. An interrupt
    removes the files this call created; one that existed is left as
    written so far."""
    named = [p for p in paths if p]
    made = []  # the paths this call created
    try:
        for i, path in enumerate(named):
            new = not os.path.exists(path)
            try:
                open(path, "a").close()
            except OSError as exc:
                raise UsageError(f"cannot write {path}: {exc.strerror}") from None
            if new:
                made.append(path)
            for other in named[:i]:
                if os.path.samefile(path, other):
                    raise UsageError(f"{other} and {path} are the same file")
    except (UsageError, KeyboardInterrupt):
        for p in made:
            os.remove(p)
        raise
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(_File(p, "w").text()) if p else None for p in paths]
    except KeyboardInterrupt:
        for p in made:
            os.remove(p)
        raise


def _csv_path(args, default: str) -> str | None:
    """Where --emit csv writes its table; --csv-out alone is a usage error."""
    if args.emit != "csv":
        if args.csv_out:
            raise UsageError("--csv-out needs --emit csv")
        return None
    return args.csv_out or default


def _write_json(fh, payload: dict) -> None:
    if fh is not None:
        fh.write(json.dumps(payload, indent=2) + "\n")


_SHORT_STRATEGIES = {"intercept": "intercept_resend", "entangle": "entangle_measure"}


def _attack_config(spec: str, target: str, args) -> AttackConfig:
    """Attack from STRATEGY[:ARG] plus the --fake, --eve-basis and --beta2
    flags. ARG is a target, an intercept fake state or a measure-resend
    basis, and takes precedence over the matching flag."""
    head, colon, arg = spec.partition(":")
    name = head.strip().lower().replace("-", "_")
    name = _SHORT_STRATEGIES.get(name, name)
    if name not in STRATEGIES:
        raise UsageError(f"unknown attack strategy {head!r}")
    fake, eve_basis = args.fake, args.eve_basis
    if colon:
        if arg in TARGETS:
            target = arg
        elif name == "intercept_resend" and arg in DECOY_TOKENS:
            fake = arg
        elif name == "measure_resend" and arg.upper() in ("Z", "X"):
            eve_basis = arg.upper()
        else:
            raise UsageError(f"bad attack {spec!r}: ARG must be a target ({', '.join(TARGETS)}), "
                             "an intercept fake state or a measure-resend basis")
    if (args.beta2 is None) == (name == "entangle_measure"):
        raise UsageError("the entangle attack needs --beta2, and no other attack takes it")
    try:
        return AttackConfig(name, target=target, fake_state=fake, eve_basis=eve_basis,
                            beta_squared=args.beta2 or 0.0)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_verify(args) -> int:
    csv_path = _csv_path(args, "swap_table.csv")
    with _open_outputs(args.out, csv_path) as (out, csv_fh):
        transform = codebook.verify_transform_table()
        swap_rep = swap.verify_swap_table()
        n_ok = (64 - transform["mismatches"]) + (64 - swap_rep["mismatches"])
        print(f"transform chart: {64 - transform['mismatches']}/64 entries verified")
        print(f"swap collections: {64 - swap_rep['mismatches']}/64 pairs verified")
        print(f"reference collection sets: {swap_rep['reference_set_matches']}/8 equal")
        print(f"total checks passed: {n_ok + swap_rep['reference_set_matches']}")
        _write_json(out, {
            "version": __version__,
            "transform_table": transform,
            "swap_table": {k: v for k, v in swap_rep.items() if k != "entries"},
            "swap_entries": swap_rep["entries"],
        })
        if csv_fh is not None:
            writer = csv.writer(csv_fh)
            writer.writerow(["g1", "g2", "collection", "support", "max_prob_deviation"])
            for e in swap_rep["entries"]:
                writer.writerow([e["g1"], e["g2"], e["collection"],
                                 ";".join(e["support"]), f"{e['max_prob_deviation']:.3e}"])
    if csv_path:
        print(f"wrote {csv_path}")
    failed = (transform["mismatches"] or swap_rep["mismatches"]
              or swap_rep["reference_set_matches"] != 8)
    return 1 if failed else 0


def cmd_run(args) -> int:
    seed = _resolve_seed(args.seed)
    # without --attack, the attack flags go to "none", which takes none of them
    attack = _attack_config(args.attack or "none", "S_C", args)
    try:
        initial = GhzLabel.from_token(args.initial) if args.initial else None
        cfg = SessionConfig(
            n_groups=args.N,
            seed=seed,
            decoys=args.decoys,
            check_threshold=args.threshold,
            attack=attack,
            initial_label=initial,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.random_messages:
        if args.alice is not None or args.bob is not None:
            raise UsageError("--random-messages draws both messages; drop --alice and --bob")
        _require_drawable(args.N, "--random-messages")
        msg_rng = Rng(seed, stream=2)
        alice = random_message_bits(args.N, msg_rng)
        bob = random_message_bits(args.N, msg_rng)
    else:
        if args.alice is None or args.bob is None:
            raise UsageError("provide --alice and --bob bits, or --random-messages")
        alice, bob = args.alice, args.bob
    try:
        session = Session(cfg, alice, bob)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    with _open_outputs(args.out) as (out,):
        transcript = session.run()
        for check in transcript.checks:
            print(f"check at step {check.step}: {check.errors}/{check.samples} errors "
                  f"(rate {check.error_rate:.4f})")
        if transcript.aborted:
            print(f"session aborted at step {transcript.abort_step}")
        else:
            print(f"alice decoded: {transcript.alice_message_bits()}")
            print(f"bob decoded:   {transcript.bob_message_bits()}")
        transcript.to_json(out or sys.stdout)
    return 0


def cmd_attack(args) -> int:
    seed = _resolve_seed(args.seed)
    cfg = _attack_config(args.strategy, args.target, args)
    if args.trials < 1:
        raise UsageError("--trials needs at least one trial")
    try:
        template = CheckTemplate(
            sample_label=GhzLabel.from_token(args.sample),
            bob_basis=None if args.check_basis == "uniform" else args.check_basis,
            decoy_basis=None if args.decoy_basis == "uniform" else args.decoy_basis,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    with _open_outputs(args.out) as (out,):
        est = adversary.estimate_detection(cfg, template, trials=args.trials, seed=seed)
        print(f"strategy {est.strategy} on {est.target}: rate {est.rate:.4f} "
              f"(ci95 {est.ci95:.4f}, exact {est.exact_value:.4f})")
        if est.claimed_value is not None:
            print(f"claimed {est.claimed_value:.4f}, abs error {est.abs_error:.4f}")
        _write_json(out, {"version": __version__, "seed": seed, **est.to_json_dict()})
    return 0


def cmd_analyze(args) -> int:
    seed = None
    if args.monte_carlo is not None:
        if args.monte_carlo < 1:
            raise UsageError("--monte-carlo needs at least one group")
        _require_drawable(args.monte_carlo, "--monte-carlo")
        seed = _resolve_seed(args.seed)
    csv_path = _csv_path(args, "comparison.csv")
    with _open_outputs(args.out, csv_path) as (out, csv_fh):
        leak = analysis.leakage_report()
        cap = analysis.capacity_report()
        rows = analysis.comparison_report()
        print(f"observer entropy: {leak['computed']['entropy_bits']:.4f} bits "
              f"(claimed {leak['claimed']['entropy_bits']:.1f})")
        print(f"conditioned on announcement: "
              f"{leak['computed']['conditional_entropy_bits']:.4f} bits")
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
        if seed is not None:
            payload["leakage_monte_carlo"] = analysis.leakage_monte_carlo(
                n_groups=args.monte_carlo, seed=seed)
        _write_json(out, payload)
        if csv_fh is not None:
            writer = csv.writer(csv_fh)
            writer.writerow(["protocol", "bits_per_round", "leaked_bits", "efficiency", "note"])
            for r in rows:
                writer.writerow([r.protocol, r.bits_per_round, r.leaked_bits,
                                 "" if r.efficiency is None else f"{r.efficiency:.4f}", r.note])
    if csv_path:
        print(f"wrote {csv_path}")
    return 0


ATTACK_HELP = ("none, intercept-resend, measure-resend or entangle; ARG is a target "
               "(S_C, S_B, S_A), an intercept fake state or a measure-resend basis")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqsdc",
        description="GHZ entanglement-swapping bidirectional QSDC simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    attack_flags = argparse.ArgumentParser(add_help=False)
    attack_flags.add_argument("--fake", choices=DECOY_TOKENS,
                              help="intercept fake state")
    attack_flags.add_argument("--eve-basis", choices=["Z", "X"], help="measure-resend basis")
    attack_flags.add_argument("--beta2", type=float, help="entangle attack flip probability")

    p = sub.add_parser("verify", help="re-derive and verify both codebook charts")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--emit", choices=["json", "csv"], default="json")
    p.add_argument("--csv-out", help="path for the CSV table (with --emit csv)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="execute one protocol session", parents=[attack_flags])
    p.add_argument("--N", type=int, default=1, help="number of message groups")
    p.add_argument("--alice", help="Alice's 3N message bits")
    p.add_argument("--bob", help="Bob's 3N message bits")
    p.add_argument("--random-messages", action="store_true")
    p.add_argument("--initial", help="force the prepared state (psi0..psi7)")
    p.add_argument("--seed", type=int)
    p.add_argument("--decoys", type=int, help="decoys per check (default 16 or N)")
    p.add_argument("--threshold", type=float, default=0.0, help="abort threshold")
    p.add_argument("--attack", metavar="STRATEGY[:ARG]", help=ATTACK_HELP)
    p.add_argument("--out", help="write the transcript JSON here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("attack", help="Monte Carlo detection-rate estimate",
                       parents=[attack_flags])
    p.add_argument("--strategy", required=True, metavar="STRATEGY[:ARG]", help=ATTACK_HELP)
    p.add_argument("--target", choices=TARGETS, default="S_C")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int)
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


# Built once: parsing leaves the parser as it was, and building it costs
# more than a whole detection estimate.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a failed flush is a failed write
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # _open_outputs removed the outputs it created
        print("interrupted", file=sys.stderr)
        return 130
    except OSError as exc:
        # every other output is a _File, so this is stdout, which the flush
        # at exit then finds pointed at the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # its reader left (`| head`)
            return 1
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
