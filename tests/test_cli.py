import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqsdc import cli

CMD = [sys.executable, "-m", "bqsdc"]


def run_cli(*args, env=None):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, env=env)


def test_verify_exits_zero(tmp_path):
    out = tmp_path / "verify.json"
    csv_out = tmp_path / "table.csv"
    res = run_cli("verify", "--out", str(out), "--emit", "csv", "--csv-out", str(csv_out))
    assert res.returncode == 0
    assert "64/64" in res.stdout
    assert "8/8" in res.stdout
    doc = json.loads(out.read_text())
    assert doc["transform_table"]["mismatches"] == 0
    assert doc["swap_table"]["mismatches"] == 0
    lines = csv_out.read_text().strip().splitlines()
    assert len(lines) == 65  # header + 64 rows


def test_run_worked_example(tmp_path):
    out = tmp_path / "t.json"
    res = run_cli("run", "--N", "1", "--alice", "010", "--bob", "101",
                  "--initial", "psi0", "--seed", "7", "--out", str(out))
    assert res.returncode == 0
    assert "alice decoded: 101" in res.stdout
    assert "bob decoded:   010" in res.stdout
    doc = json.loads(out.read_text())
    assert doc["groups"][0]["announcement"] == "c7"
    assert doc["config"]["seed"] == 7


def test_run_attack_aborts(tmp_path):
    out = tmp_path / "t.json"
    res = run_cli("run", "--N", "1", "--alice", "010", "--bob", "101",
                  "--seed", "3", "--decoys", "64", "--attack", "intercept:S_C",
                  "--out", str(out))
    assert res.returncode == 0
    assert "aborted at step 2" in res.stdout
    doc = json.loads(out.read_text())
    assert doc["abort"] == {"aborted": True, "step": 2}


def test_attack_command(tmp_path):
    out = tmp_path / "est.json"
    res = run_cli("attack", "--strategy", "measure-resend:X", "--target", "S_C",
                  "--trials", "4000", "--seed", "1", "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["strategy"] == "measure_resend"
    assert doc["claimed_value"] == 0.375
    assert abs(doc["rate"] - doc["exact_value"]) < 0.03
    assert {"rate", "ci95", "trials", "params", "abs_error"} <= set(doc)


def test_attack_none_is_zero(tmp_path):
    out = tmp_path / "est.json"
    res = run_cli("attack", "--strategy", "none", "--trials", "200",
                  "--seed", "1", "--out", str(out))
    assert res.returncode == 0
    assert json.loads(out.read_text())["rate"] == 0.0


def test_analyze_command(tmp_path):
    out = tmp_path / "an.json"
    csv_out = tmp_path / "cmp.csv"
    res = run_cli("analyze", "--out", str(out), "--emit", "csv",
                  "--csv-out", str(csv_out), "--seed", "0")
    assert res.returncode == 0
    assert "6.0000 bits" in res.stdout
    assert "66.7%" in res.stdout
    doc = json.loads(out.read_text())
    assert doc["leakage"]["computed"]["entropy_bits"] == 6.0
    assert len(doc["comparison"]) == 19
    assert len(csv_out.read_text().strip().splitlines()) == 20


def test_usage_errors_exit_two(tmp_path):
    missing = str(tmp_path / "missing" / "x.json")
    # when one output fails, an existing output keeps its bytes and no new
    # file is left behind
    kept = {tmp_path / "a.json": b'{"kept": 1}\n', tmp_path / "t.csv": b"kept,1\n"}
    for path, data in kept.items():
        path.write_bytes(data)
    cases = [
        ("run", "--N", "2", "--alice", "010", "--bob", "101", "--seed", "1"),
        ("run", "--N", "1", "--alice", "010", "--bob", "101", "--initial", "psi9",
         "--seed", "1"),
        ("attack", "--strategy", "warp", "--seed", "1"),
        ("attack", "--strategy", "entangle", "--beta2", "1.5", "--seed", "1"),
        ("run", "--N", "1", "--random-messages", "--seed", "1", "--out", missing),
        ("verify", "--out", missing),
        ("attack", "--strategy", "none", "--trials", "10", "--seed", "1", "--out", missing),
        ("analyze", "--seed", "1", "--out", missing),
        ("analyze", "--monte-carlo", "-3", "--seed", "1"),
        ("analyze", "--monte-carlo", "0", "--seed", "1"),
        ("attack", "--strategy", "none", "--trials", "0", "--seed", "1"),
        ("analyze", "--out", str(tmp_path / "a.json"), "--emit", "csv", "--csv-out", missing),
        ("analyze", "--out", str(tmp_path / "new.json"), "--emit", "csv", "--csv-out", missing),
        ("verify", "--out", missing, "--emit", "csv", "--csv-out", str(tmp_path / "t.csv")),
        ("verify", "--csv-out", str(tmp_path / "t.csv")),
        ("analyze", "--csv-out", str(tmp_path / "t.csv")),
    ]
    for args in cases:
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert "error:" in res.stderr and "Traceback" not in res.stderr, args
        # every check, the writability of --out included, comes before any output
        assert res.stdout == "", args
    for path, data in kept.items():
        assert path.read_bytes() == data, path
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "t.csv"]
    assert run_cli("nonsense").returncode == 2


def recorded_attack(argv, tmp_path):
    """The attack that `run` or `attack` made of argv, as its output records it."""
    out = tmp_path / "out.json"
    if argv[0] == "run":
        argv = [*argv, "--N", "1", "--random-messages", "--decoys", "0"]
    else:
        argv = [*argv, "--trials", "1"]
    assert cli.main([*argv, "--seed", "1", "--out", str(out)]) == 0, argv
    doc = json.loads(out.read_text())
    if argv[0] == "run":
        return doc["config"]["attack"]
    return {"strategy": doc["strategy"], "target": doc["target"],
            **{k: doc["params"][k] for k in ("fake_state", "eve_basis", "beta_squared")}}


def attack(strategy, target="S_C", fake=None, eve=None, b2=0.0):
    return {"strategy": strategy, "target": target, "fake_state": fake,
            "eve_basis": eve, "beta_squared": b2}


# Spellings with the attack each one means. UNION_SPELLINGS cross the two
# commands: a fake state or a basis after `run --attack`, and a target
# after `attack --strategy`.
ACCEPTED_SPELLINGS = [
    (["run", "--attack", "intercept"], attack("intercept_resend")),
    (["run", "--attack", "intercept:S_B"], attack("intercept_resend", "S_B")),
    (["run", "--attack", "intercept-resend:S_A", "--fake", "+"],
     attack("intercept_resend", "S_A", fake="+")),
    (["run", "--attack", "measure-resend:S_B", "--eve-basis", "Z"],
     attack("measure_resend", "S_B", eve="Z")),
    (["run", "--attack", "entangle:S_A", "--beta2", "0.5"],
     attack("entangle_measure", "S_A", b2=0.5)),
    (["run", "--attack", "none:S_B"], None),
    (["attack", "--strategy", "intercept-resend:0", "--check-basis", "Z"],
     attack("intercept_resend", fake="0")),
    (["attack", "--strategy", "intercept:1", "--fake", "0"],
     attack("intercept_resend", fake="1")),
    (["attack", "--strategy", "INTERCEPT", "--fake", "-", "--target", "S_B"],
     attack("intercept_resend", "S_B", fake="-")),
    (["attack", "--strategy", "measure-resend:x", "--target", "S_B"],
     attack("measure_resend", "S_B", eve="X")),
    (["attack", "--strategy", "measure-resend:Z", "--eve-basis", "X"],
     attack("measure_resend", eve="Z")),
    (["attack", "--strategy", "measure-resend", "--eve-basis", "X", "--target", "S_A"],
     attack("measure_resend", "S_A", eve="X")),
    (["attack", "--strategy", "entangle", "--beta2", "0.25", "--target", "S_A"],
     attack("entangle_measure", "S_A", b2=0.25)),
    (["attack", "--strategy", "none"], attack("none")),
]

UNION_SPELLINGS = [
    (["run", "--attack", "intercept:+"], attack("intercept_resend", fake="+")),
    (["run", "--attack", "measure-resend:x", "--eve-basis", "Z"],
     attack("measure_resend", eve="X")),
    (["attack", "--strategy", "intercept:S_B"], attack("intercept_resend", "S_B")),
    (["attack", "--strategy", "measure-resend:S_A", "--target", "S_B"],
     attack("measure_resend", "S_A")),
    (["attack", "--strategy", "entangle:S_B", "--beta2", "0.5"],
     attack("entangle_measure", "S_B", b2=0.5)),
]

SPELLINGS = ACCEPTED_SPELLINGS + UNION_SPELLINGS


@pytest.mark.parametrize("argv,expected", SPELLINGS,
                         ids=[" ".join(argv) for argv, _ in SPELLINGS])
def test_attack_spellings(argv, expected, tmp_path):
    assert recorded_attack(argv, tmp_path) == expected


# Spellings no attack is made of: an unknown strategy, an ARG the strategy
# has no use for, or a flag that belongs to another strategy.
BAD_SPELLINGS = [
    "warp",
    "intercept:Z",
    "measure-resend:0",
    pytest.param("entangle:X --beta2 0.25", id="entangle:X"),
    "intercept:S_X",
    "Intercept_Resend:S_C --eve-basis X",
    "entangle-measure --beta2 0.1 --fake 0",
    "measure-resend --fake 1",
    "intercept --beta2 0.5",
]


@pytest.mark.parametrize("command", ["run --attack", "attack --strategy"])
@pytest.mark.parametrize("spec", BAD_SPELLINGS)
def test_bad_attack_spellings_exit_two(command, spec, capsys):
    argv = [*command.split(), *spec.split(), "--seed", "1"]
    if argv[0] == "run":
        argv += ["--random-messages"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_seed_env_var(tmp_path):
    import os
    env = dict(os.environ, BQSDC_SEED="4242")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    r1 = run_cli("run", "--N", "1", "--random-messages", "--out", str(out1), env=env)
    r2 = run_cli("run", "--N", "1", "--random-messages", "--out", str(out2), env=env)
    assert r1.returncode == r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["config"]["seed"] == 4242


def test_main_calls_in_sequence_share_no_state(tmp_path):
    """The parser is built once per process; one call's flags must not carry
    into the next."""
    assert recorded_attack(["run", "--attack", "entangle:S_A", "--beta2", "0.25"],
                           tmp_path) == attack("entangle_measure", "S_A", b2=0.25)
    assert recorded_attack(["run"], tmp_path) is None
    assert recorded_attack(["attack", "--strategy", "intercept:S_B", "--fake", "+"],
                           tmp_path) == attack("intercept_resend", "S_B", fake="+")
    assert recorded_attack(["attack", "--strategy", "intercept"],
                           tmp_path) == attack("intercept_resend")


# Each subcommand's flags with a few valid values each, a shared pool of
# bad ones (non-finite, negative and overflowing numbers, bad labels, empty
# strings, a missing value as None), and paths filled in per run (<out>
# writable, <missing> and <dir> not). The prefix makes a small valid
# command; a drawn flag overrides it. Sizes stay at 50 or below.
FLAGS = {
    "verify": {"--out": ["<out>"], "--emit": ["json", "csv"], "--csv-out": ["<out>"]},
    "run": {"--N": ["1", "2", "50"], "--alice": ["010", "101101"], "--bob": ["101", "011110"],
            "--random-messages": [], "--initial": ["psi0", "psi7"], "--seed": ["0", "-7"],
            "--decoys": ["0", "3", "50"], "--threshold": ["0", "0.5"],
            "--attack": ["entangle:S_A", "intercept:+", "measure-resend:x", "none:S_B"],
            "--out": ["<out>"], "--fake": ["0", "+"], "--eve-basis": ["Z", "X"],
            "--beta2": ["0", "0.25", "1"]},
    "attack": {"--strategy": ["none", "intercept:S_B", "entangle", "measure-resend:Z"],
               "--target": ["S_A", "S_B"], "--trials": ["1", "50"], "--seed": ["0", "-7"],
               "--sample": ["psi0", "psi5"], "--check-basis": ["Z", "uniform"],
               "--decoy-basis": ["X", "uniform"], "--out": ["<out>"], "--fake": ["1", "-"],
               "--eve-basis": ["X"], "--beta2": ["0.5"]},
    "analyze": {"--seed": ["0", "-7"], "--monte-carlo": ["1", "50"], "--out": ["<out>"],
                "--emit": ["json", "csv"], "--csv-out": ["<out>"]},
}
PREFIX = {"verify": [], "run": ["--seed", "1", "--alice", "010", "--bob", "101"],
          "attack": ["--seed", "1", "--trials", "20", "--strategy", "none"],
          "analyze": ["--seed", "1"]}
BAD_VALUES = ["-1", "-0.5", "nan", "inf", "-inf", "1e309", "", None, "psi9", "psi²",
              "S_Q", "intercept:", "warp:S_B", "entangle:S_A:S_B", "<missing>", "<dir>"]


def flag_with_value(command):
    def with_value(flag):
        if flag == "--random-messages":
            return st.just([flag])
        value = st.sampled_from(FLAGS[command][flag]) | st.sampled_from(BAD_VALUES)
        return value.map(lambda v: [flag] if v is None else [flag, v])
    return st.sampled_from(sorted(FLAGS[command])).flatmap(with_value)


ARGVS = st.sampled_from(sorted(FLAGS)).flatmap(
    lambda command: st.lists(flag_with_value(command), max_size=4).map(
        lambda args: [command, *PREFIX[command], *(x for arg in args for x in arg)]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(argv=ARGVS)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_any_argument_list_ends_in_an_exit_code(fuzz_dir, argv):
    """No argument list gets a traceback out of main: it returns 0, 1 or 2,
    or argparse exits with 0 or 2."""
    paths = {"<out>": str(fuzz_dir / "out.json"), "<missing>": str(fuzz_dir / "no" / "x"),
             "<dir>": str(fuzz_dir)}
    argv = [paths.get(arg, arg) for arg in argv]
    cwd = os.getcwd()
    os.chdir(fuzz_dir)  # default CSV outputs land here
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), argv
