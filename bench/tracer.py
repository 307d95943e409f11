"""Tracing of the program's layers from outside, for the traced run.

The tracer replaces public functions at the name each caller looks up
(a module global imported by name, a module attribute, or a class
attribute) with wrappers that count calls, time them and record spans.
Nothing in the program is edited: `uninstall` puts every original back, so
untraced work runs the unmodified code.

A span is (name, start, end, parent); a layer's self time is its duration
minus the time covered by its child spans. Spans are kept in memory only
while `spans` is a list, and written out by the caller when the run ends.
Leaf calls made hundreds of thousands of times per second (random draws,
stream construction) are counted only, without a span.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.counts: dict[str, int] = defaultdict(int)
        self.max_qubits = 0
        self.spans: list | None = None
        self.names: dict[str, int] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing wrappers ---------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, on_call=None) -> None:
        """Time and count every call of owner.attr as a span called name."""
        fn = owner.__dict__[attr]
        stats = self.stats[name]
        name_id = self.names.setdefault(name, len(self.names))
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            spans = tracer.spans
            idx = -1
            if spans is not None:
                idx = len(spans)
                spans.append(None)
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                stats[0] += 1
                stats[1] += d
                stats[2] += d - frame[0]
                parent = -1
                if stack:
                    stack[-1][0] += d
                    parent = stack[-1][1]
                if idx >= 0:
                    spans[idx] = (name_id, t0, t1, parent)

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr without timing them."""
        fn = owner.__dict__[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-operation results -------------------------------------------

    def take(self) -> dict:
        """Counts and times gathered since the last take, then reset."""
        out = {"max_qubits": self.max_qubits, "counts": dict(self.counts),
               "stats": {k: tuple(v) for k, v in self.stats.items()}}
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.max_qubits = 0
        return out

    def span_dump(self) -> dict:
        """The recorded spans in a JSON-ready form, times in ns from the
        first span's start."""
        spans = [s for s in self.spans or () if s is not None]
        t_base = min((s[1] for s in spans), default=0.0)
        by_id = {v: k for k, v in self.names.items()}
        return {
            "names": [by_id[i] for i in range(len(by_id))],
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[n, round((t0 - t_base) * 1e9), round((t1 - t_base) * 1e9), p]
                      for n, t0, t1, p in spans],
        }


def install_bqsdc(tracer: Tracer) -> None:
    """Wrap the public functions of every bqsdc layer the workloads reach."""
    from bqsdc import adversary, cli, particles, protocol, qcore

    tracer.span(cli, "main", "cli.main")
    for step in ("prepare", "check1", "alice_encode", "check2", "check3",
                 "bob_encode", "swap_and_announce", "decode"):
        tracer.span(protocol.Session, step, f"protocol.{step}")
    tracer.span(protocol.SessionTranscript, "to_json", "protocol.to_json")

    # protocol and adversary import these by name; particles calls qcore
    # and merge through its own module namespace.
    tracer.span(protocol, "measure_particles", "particles.measure_particles")
    tracer.span(adversary, "measure_particles", "particles.measure_particles")
    tracer.span(particles, "merge", "particles.merge")
    tracer.span(adversary, "append_ancilla", "particles.append_ancilla")
    tracer.span(protocol, "apply_op", "particles.apply_op")

    def on_measure(args):
        tracer.counts[f"qcore.measure.calls.{args[1].value}"] += 1

    def on_statevector(args):
        # amps is still the caller's array here; its length is 2**n.
        n = len(args[0].amps).bit_length() - 1
        if n > tracer.max_qubits:
            tracer.max_qubits = n

    tracer.span(qcore, "measure", "qcore.measure", on_measure)
    tracer.span(qcore, "apply_single", "qcore.apply_single")
    tracer.span(qcore, "apply_unitary", "qcore.apply_unitary")
    tracer.span(qcore, "tensor", "qcore.tensor")
    tracer.span(qcore.StateVector, "__post_init__", "qcore.statevector", on_statevector)
    tracer.count(qcore.Rng, "u64", "qcore.rng.draws")
    tracer.count(qcore.Rng, "__init__", "qcore.rng.streams")

    tracer.span(protocol, "transform_label", "codebook.transform_label")
    tracer.span(protocol, "invert_transform", "codebook.invert_transform")
    tracer.span(protocol, "collection_of", "swap.collection_of")
    tracer.span(protocol, "collection_table", "swap.collection_table")
    tracer.span(protocol, "decoy_state", "checks.decoy_state")
    tracer.span(adversary, "decoy_state", "checks.decoy_state")
    tracer.span(protocol, "ghz_sample_ok", "checks.ghz_sample_ok")

    tracer.span(protocol, "apply_attack", "adversary.apply_attack")
    tracer.span(adversary, "estimate_detection", "adversary.estimate_detection")
