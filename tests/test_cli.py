import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqsdc import analysis, cli
from bqsdc.protocol import Session, SessionTranscript

CMD = [sys.executable, "-m", "bqsdc"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env(env=None):
    """An environment whose child interpreter imports this checkout's
    package: its src first on PYTHONPATH, ahead of any value already there."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(*args, env=None):
    """The CLI in a child interpreter (child_env)."""
    return subprocess.run(CMD + list(args), capture_output=True, text=True, env=child_env(env))


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


def test_run_writes_transcript_as_json_dumps(tmp_path, capsys):
    # the transcript written to --out, and to stdout after the summary
    # lines without it, is what json.dumps(indent=2) writes for it
    argv = ["run", "--N", "3", "--random-messages", "--seed", "4",
            "--attack", "entangle:S_A", "--beta2", "0.3", "--threshold", "0.99"]
    out = tmp_path / "t.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    written = out.read_text()
    assert json.dumps(json.loads(written), indent=2) + "\n" == written
    capsys.readouterr()
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout[stdout.index("{\n"):] == written


@pytest.mark.parametrize("attack", [[], ["--attack", "entangle:S_A", "--beta2", "0.25",
                                         "--threshold", "0.99"]], ids=["clean", "entangle-S_A"])
def test_run_builds_no_group_record(attack, tmp_path, capsys, monkeypatch):
    # run writes its transcript and decoded lines from the session's
    # columns: with GroupRecord unconstructible it prints and writes what
    # it does with it
    argv = ["run", "--N", "300", "--random-messages", "--seed", "7", *attack]
    expected = tmp_path / "expected.json"
    assert cli.main([*argv, "--out", str(expected)]) == 0
    stdout = capsys.readouterr().out

    def no_record(*args, **kwargs):
        raise AssertionError("a GroupRecord was built")

    monkeypatch.setattr("bqsdc.protocol.GroupRecord", no_record)
    out = tmp_path / "t.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == stdout
    assert out.read_bytes() == expected.read_bytes()


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


class Drew(Exception):
    """Raised by a patched message draw once a command reaches it."""


def no_draws(*args):
    raise Drew


# (the flag that draws messages, its command at a group count, the module
# whose random_message_bits the command calls)
DRAWING = [("--random-messages", ["run", "--N", "{}", "--random-messages", "--seed", "1"], cli),
           ("--monte-carlo", ["analyze", "--monte-carlo", "{}", "--seed", "1"], analysis)]


@pytest.mark.parametrize("flag, argv, drawer", DRAWING, ids=["run", "analyze"])
def test_draws_above_the_ceiling_exit_two_before_any_work(flag, argv, drawer, tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.setattr(drawer, "random_message_bits", no_draws)
    out = tmp_path / "out.json"
    assert cli.main([*(a.format(10 ** 12) for a in argv), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {flag} draws the messages of at most "
                                       f"{cli.MAX_DRAWN_GROUPS} groups, got {10 ** 12}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, argv, drawer", DRAWING, ids=["run", "analyze"])
def test_draws_at_the_ceiling_are_made(flag, argv, drawer, tmp_path, monkeypatch):
    monkeypatch.setattr(drawer, "random_message_bits", no_draws)
    with pytest.raises(Drew):
        cli.main([*(a.format(cli.MAX_DRAWN_GROUPS) for a in argv),
                  "--out", str(tmp_path / "out.json")])


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
        ("run", "--N", "1", "--random-messages", "--alice", "010", "--seed", "1"),
        ("run", "--N", "1", "--random-messages", "--bob", "101", "--seed", "1"),
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


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_outputs_naming_one_file_exit_two(command, tmp_path, capsys):
    # --out and --csv-out must not overwrite each other: the same path, or
    # a second spelling of it, is a usage error before anything is written
    (tmp_path / "dir").mkdir()
    kept = tmp_path / "dir" / "x"
    kept.write_bytes(b'{"kept": 1}\n')
    spellings = [(kept, kept), (kept, tmp_path / "dir" / "." / "x"),
                 (tmp_path / "dir" / "new", tmp_path / "dir" / "." / "new")]
    for out, csv_out in spellings:
        argv = [command, "--out", str(out), "--emit", "csv", "--csv-out", str(csv_out)]
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), argv
    assert kept.read_bytes() == b'{"kept": 1}\n'
    assert [p.name for p in (tmp_path / "dir").iterdir()] == ["x"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    # the transcript fits the file's buffer, so the write fails on close
    ["run", "--N", "1", "--alice", "000", "--bob", "000", "--seed", "1", "--out", "/dev/full"],
    # the transcript overflows it, so a write fails
    ["run", "--N", "300", "--random-messages", "--seed", "1", "--out", "/dev/full"],
    ["verify", "--emit", "csv", "--csv-out", "/dev/full"],
])
def test_output_failing_while_written_exits_two(argv, capsys):
    # /dev/full opens, so the check before the work passes; every write fails
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


def test_stdout_closed_by_its_reader_exits_without_traceback():
    # as `bqsdc run ... | head -1`: the transcript is far larger than the
    # pipe's buffer, so the CLI is still writing when its reader leaves
    proc = subprocess.Popen(CMD + ["run", "--N", "20000", "--random-messages", "--seed", "1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    assert proc.stdout.readline().startswith(b"check at step 2")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


# One short case of each command, and a function that each one calls.
COMMANDS = {
    "run": (["run", "--N", "1", "--alice", "000", "--bob", "000", "--seed", "1"],
            (cli.Session, "run")),
    "verify": (["verify"], (cli.codebook, "verify_transform_table")),
    "analyze": (["analyze"], (cli.analysis, "leakage_report")),
    "attack": (["attack", "--strategy", "intercept", "--trials", "100", "--seed", "1"],
               (cli.adversary, "estimate_detection")),
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_stdout_failing_while_written_exits_two(command, buffered):
    # unbuffered, the first print fails; buffered, the flush before main
    # returns, and the flush at exit then finds nothing left to fail on
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        res = subprocess.run(CMD + COMMANDS[command][0], stdout=full, stderr=subprocess.PIPE,
                             text=True, env=child_env(env))
    assert res.returncode == 2
    assert res.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("command", list(COMMANDS))
def test_interrupt_exits_130_without_traceback(command, monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(*COMMANDS[command][1], interrupted)
    assert cli.main(COMMANDS[command][0]) == 130
    assert capsys.readouterr().err == "interrupted\n"


@pytest.mark.parametrize("existed", [False, True], ids=["created", "existed"])
@pytest.mark.parametrize("where", ["session", "writer"])
def test_interrupt_removes_only_the_out_file_it_created(tmp_path, monkeypatch, capsys, where,
                                                        existed):
    # interrupted in the session, with F opened and truncated, or partway
    # through writing the transcript: a new F goes, an old one is left as
    # written by then
    path = tmp_path / "t.json"
    if existed:
        path.write_text("before\n")
    write = SessionTranscript.to_json

    def interrupted(self, fh=None):
        if where == "writer":
            text = io.StringIO()
            write(self, text)
            fh.write(text.getvalue()[:100])
            fh.flush()
        raise KeyboardInterrupt

    monkeypatch.setattr(*((Session, "run") if where == "session" else (SessionTranscript,
                                                                       "to_json")), interrupted)
    argv = ["run", "--N", "4", "--random-messages", "--seed", "1", "--out", str(path)]
    assert cli.main(argv) == 130
    assert capsys.readouterr().err == "interrupted\n"
    if existed:
        text = path.read_text()
        assert len(text) == (100 if where == "writer" else 0)
        assert text == "" or text.startswith('{\n  "version"')
    else:
        assert not path.exists()


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


@pytest.mark.parametrize("flags", ["--fake 1", "--eve-basis X", "--beta2 0.3"])
def test_attack_flags_without_attack_exit_two(flags, capsys):
    # no --attack means no attack, which takes none of the attack flags
    assert cli.main(["run", "--N", "2", "--random-messages", "--seed", "1", *flags.split()]) == 2
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
