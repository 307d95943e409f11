"""Golden transcripts: a sweep of sessions over every attack strategy and
target, fixed and uniform attack parameters, three decoy counts and two
abort thresholds, hashed together. The hash pins the exact random-draw
order and every measured outcome, so a refactor of the session engine
that changes any transcript byte fails here.

A second hash pins what the command line makes of its attack spellings:
`bqsdc run` transcripts under each strategy, and `bqsdc attack` estimates
for the fifteen acceptance detection cases as the benchmark spells them.

A deliberate format change bumps the transcript version and records the
new hash in CHANGES.md.
"""

import hashlib
import json

from bqsdc import cli
from bqsdc.adversary import AttackConfig
from bqsdc.protocol import SessionConfig, random_message_bits, run_session
from bqsdc.qcore import Rng

GOLDEN_SHA256 = "ca6f4da0bf1f39e74414df3eecbf205f73e7cfa35a6ba8459999e5038978e7d0"

N_GROUPS = 3


def sweep_attacks():
    yield None
    for target in ("S_C", "S_B", "S_A"):
        yield AttackConfig("none", target=target)
        yield AttackConfig("intercept_resend", target=target)
        yield AttackConfig("intercept_resend", target=target, fake_state="+")
        yield AttackConfig("measure_resend", target=target)
        yield AttackConfig("measure_resend", target=target, eve_basis="X")
        yield AttackConfig.entangling(0.25, target=target)


def sweep_transcripts():
    for seed in (0, 1):
        for attack in sweep_attacks():
            for decoys in (0, 3, None):
                for threshold in (0.0, 0.9):
                    cfg = SessionConfig(n_groups=N_GROUPS, seed=seed, decoys=decoys,
                                        check_threshold=threshold, attack=attack)
                    msg_rng = Rng(seed, stream=2)
                    alice = random_message_bits(N_GROUPS, msg_rng)
                    bob = random_message_bits(N_GROUPS, msg_rng)
                    yield run_session(cfg, alice, bob).to_json()


def test_golden_transcripts():
    digest = hashlib.sha256("".join(sweep_transcripts()).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


CLI_GOLDEN_SHA256 = "55e1ec2b72bce60acdfac81fdf2d7a4dd102b4cb51eaaf4baf6f81d7d32c8c7d"

RUN_ATTACKS = [
    [],
    ["--attack", "intercept:S_C"],
    ["--attack", "measure-resend:S_B"],
    ["--attack", "entangle:S_A", "--beta2", "0.25"],
]

ATTACK_SPELLINGS = [
    *(["--strategy", f"intercept-resend:{fake}", "--target", "S_C", "--check-basis", basis]
      for fake in ("0", "1", "+", "-") for basis in ("Z", "X")),
    *(["--strategy", f"measure-resend:{eve}", "--target", "S_C"] for eve in ("Z", "X")),
    ["--strategy", "intercept-resend", "--target", "S_B"],
    ["--strategy", "measure-resend", "--target", "S_B"],
    *(["--strategy", "entangle", "--beta2", b2, "--target", "S_A", "--decoy-basis", "Z"]
      for b2 in ("0.1", "0.25", "0.5")),
]

# Derived from beta**2 and the Born tables by float arithmetic whose last
# digits are not part of what the command line promises.
FLOAT_DERIVED = ("exact_value", "claimed_value", "abs_error")


def cli_outputs(out, capsys):
    for seed in ("0", "1"):
        for attack in RUN_ATTACKS:
            argv = ["run", "--N", "3", "--random-messages", "--seed", seed, *attack,
                    "--out", str(out)]
            assert cli.main(argv) == 0, argv
            yield capsys.readouterr().out + out.read_text()
    for spelling in ATTACK_SPELLINGS:
        argv = ["attack", *spelling, "--trials", "2000", "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
        doc = json.loads(out.read_text())
        for key in FLOAT_DERIVED:
            del doc[key]
        yield json.dumps(doc, sort_keys=True)


def test_golden_cli_outputs(tmp_path, capsys):
    text = "\n".join(cli_outputs(tmp_path / "out.json", capsys))
    assert hashlib.sha256(text.encode()).hexdigest() == CLI_GOLDEN_SHA256
