"""Golden transcripts: a sweep of sessions over every attack strategy and
target, fixed and uniform attack parameters, three decoy counts and two
abort thresholds, hashed together. The hash pins every keyed random draw
and every measured outcome, so a refactor of the session engine
that changes any transcript byte fails here.

A second hash pins what the command line makes of its attack spellings:
`bqsdc run` transcripts under each strategy, and `bqsdc attack` estimates
for the fifteen acceptance detection cases as the benchmark spells them.

A third check pins every output of tools/outputs.py's command matrix:
each case's exit code, and the hashes of what it printed and of the files
it wrote, CSVs included, against tests/cli_outputs.txt.

A deliberate format change bumps the transcript version, in the package
and in pyproject.toml alike, and records the new hash in CHANGES.md.
"""

import hashlib
import importlib.util
import json
import tomllib
from pathlib import Path

import bqsdc
from bqsdc import cli
from bqsdc.adversary import AttackConfig
from bqsdc.protocol import SessionConfig, random_message_bits, run_session
from bqsdc.qcore import Rng

GOLDEN_SHA256 = "a761c2eeade79b7322a0f76542ed4be2f99baebd526383d822fbb959d77dd005"

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


CLI_GOLDEN_SHA256 = "b53b655c875f3c298175d74fa908c256a007556fdfc6da3d008e7d87c6e390f6"

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


ROOT = Path(__file__).resolve().parent.parent


def test_every_cli_output_matches_golden_file(monkeypatch, tmp_path):
    """tools/outputs.py's lines equal tests/cli_outputs.txt. The file
    follows the rule of the golden hashes: it changes only in a deliberate
    format break, which bumps the version and is recorded, with the lines
    that changed, in CHANGES.md; a mismatch after a refactor is a defect of
    the refactor, never a reason to re-record."""
    spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    monkeypatch.chdir(tmp_path)
    assert outputs.lines() == (ROOT / "tests" / "cli_outputs.txt").read_text().splitlines()


def test_version_matches_pyproject():
    with (ROOT / "pyproject.toml").open("rb") as fh:
        assert bqsdc.__version__ == tomllib.load(fh)["project"]["version"]
