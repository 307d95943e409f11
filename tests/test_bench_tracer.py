"""The traced benchmark run (`python3 bench/run.py --trace 1`) wraps bqsdc
functions at the names their callers look up (bench/tracer.py). Installing
the tracer on the current tree fails on any such name that was renamed or
deleted; uninstalling must put every original back."""

import importlib.util
from pathlib import Path

from bqsdc import cli

TRACER_PY = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_traces_and_uninstalls(tmp_path, capsys):
    bench_tracer = load_tracer_module()
    tracer = bench_tracer.Tracer()
    bench_tracer.install_bqsdc(tracer)
    patched = list(tracer._patches)
    try:
        argv = ["run", "--N", "2", "--random-messages", "--seed", "1", "--decoys", "0",
                "--attack", "entangle:S_A", "--beta2", "0.25", "--out", str(tmp_path / "t.json")]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    stats = tracer.take()
    assert stats["stats"]["cli.main"][0] == 1
    assert stats["stats"]["protocol.decode"][0] == 1
    assert stats["stats"]["adversary.apply_attack"][0] > 0
    assert stats["counts"]["qcore.rng.draws"] > 0
    assert stats["max_qubits"] == 7
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr
