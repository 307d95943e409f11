"""The seven-step bidirectional secure direct communication session.

One session: Alice prepares N groups of two identical GHZ triples and
distributes the particles into three sequences; the third-particle sequence
travels first, guarded by GHZ samples (step 2 check). Alice encodes her
three bits per group on the first triple, then ships the second-particle
sequence and finally the first-particle sequence, each guarded by
single-particle decoys (step 4 and step 5 checks). Bob identifies the
prepared state of each group by a GHZ measurement on the untouched second
triple, rebuilds it, encodes his own three bits on it, swaps entanglement
between the two triples with three Bell measurements, and announces which
outcome collection occurred. Each side then infers the other's operation
from the announcement, its own operation, and the initial state.

Each GHZ triple, sample and decoy is its own register; whatever an attack
leaves behind joins the register it hits. The two triples of a group are
merged into one register exactly once, at Bob's swap, so no state is wider
than two triples plus one attack qubit (7 qubits).

The paper hides the samples and decoys at random positions of each
sequence. Eve treats every particle of a sequence alike, so a position would
change nothing but the order of the random draws, and positions are not
simulated. Instead every draw comes from a stream keyed by its place in the
protocol and the group, triple, sample or decoy it concerns (the stream ids
above Session). A transcript is therefore a pure function of the
configuration and the messages (byte-identical across runs), and group n's
record depends only on the seed, the attack, the initial state and group
n's own messages: not on N, the decoy count or the other groups.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache

from . import particles
from .adversary import AttackConfig, apply_attack
from .checks import DECOY_STATES, DECOY_TOKENS, decoy_state, ghz_sample_ok
from .codebook import (CompositeOp, MessageTriple, ghz_state, invert_transform,
                       message_to_op, transform_label)
from .labels import CollectionLabel, GhzLabel
from .particles import Register, apply_op, measure_particles
from .qcore import MeasBasis, Rng
from .swap import BellTriple, collection_of, collection_table

def default_decoy_count(n_groups: int) -> int:
    """Per-check decoy count used when the config leaves it unset: enough to
    make detection overwhelming, without dominating small desk runs."""
    return 16 if n_groups <= 16 else n_groups


@dataclass(frozen=True)
class SessionConfig:
    """Configuration of one deterministic session."""

    n_groups: int
    seed: int = 0
    decoys: int | None = None  # per check; None means default_decoy_count
    check_threshold: float = 0.0
    attack: AttackConfig | None = None
    initial_label: GhzLabel | None = None  # force every group's prepared state

    def __post_init__(self):
        if self.n_groups < 1:
            raise ValueError("need at least one message group")
        if not 0.0 <= self.check_threshold < 1.0:
            raise ValueError("check_threshold must lie in [0, 1)")
        if self.decoys is not None and self.decoys < 0:
            raise ValueError("decoy counts must be nonnegative")
        if self.attack is not None and self.attack.strategy == "none":
            # no attack, whatever target it names
            object.__setattr__(self, "attack", None)

    def resolved_decoys(self) -> int:
        return self.decoys if self.decoys is not None else default_decoy_count(self.n_groups)

    def to_json_dict(self) -> dict:
        attack = None
        if self.attack is not None:
            attack = {
                "strategy": self.attack.strategy,
                "target": self.attack.target,
                "fake_state": self.attack.fake_state,
                "eve_basis": self.attack.eve_basis,
                "beta_squared": round(self.attack.beta_squared, 12),
            }
        return {
            "n_groups": self.n_groups,
            "seed": self.seed,
            "decoys": self.resolved_decoys(),
            "check_threshold": self.check_threshold,
            "attack": attack,
            "initial_label": self.initial_label.token if self.initial_label else None,
        }


@dataclass
class CheckRecord:
    step: int
    samples: int
    errors: int
    error_rate: float
    aborted: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class GroupRecord:
    """Everything the transcript keeps about one message group."""

    index: int
    prepared_label: GhzLabel
    a_op: CompositeOp | None = None
    p_label: GhzLabel | None = None
    b_op: CompositeOp | None = None
    bell_triple: BellTriple | None = None
    announcement: CollectionLabel | None = None
    decoded_by_alice: str | None = None
    decoded_by_bob: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "n": self.index,
            "prepared_label": self.prepared_label.token,
            "a_op": self.a_op.token if self.a_op is not None else None,
            "p_label": self.p_label.token if self.p_label is not None else None,
            "b_op": self.b_op.token if self.b_op is not None else None,
            "bell_triple": self.bell_triple.token if self.bell_triple else None,
            "announcement": self.announcement.token if self.announcement is not None else None,
            "decoded_by_alice": self.decoded_by_alice,
            "decoded_by_bob": self.decoded_by_bob,
        }


@dataclass
class SessionTranscript:
    """Deterministic record of one session."""

    config: SessionConfig
    groups: list[GroupRecord] = field(default_factory=list)
    checks: list[CheckRecord] = field(default_factory=list)
    abort_step: int | None = None

    @property
    def aborted(self) -> bool:
        return self.abort_step is not None

    def alice_message_bits(self) -> str | None:
        """Bob's secrets as decoded by Alice, concatenated; None on abort."""
        if self.aborted:
            return None
        return "".join(g.decoded_by_alice for g in self.groups)

    def bob_message_bits(self) -> str | None:
        if self.aborted:
            return None
        return "".join(g.decoded_by_bob for g in self.groups)

    def to_json_dict(self) -> dict:
        from . import __version__
        return {
            "version": __version__,
            "config": self.config.to_json_dict(),
            "groups": [g.to_json_dict() for g in self.groups],
            "checks": [c.to_json_dict() for c in self.checks],
            "abort": {"aborted": self.aborted, "step": self.abort_step},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def message_triples(bits: str, n_groups: int) -> list[MessageTriple]:
    """Split a 0/1 string into 3-bit triples, validating its length."""
    if len(bits) != 3 * n_groups or any(c not in "01" for c in bits):
        raise ValueError(f"need exactly {3 * n_groups} message bits of 0/1")
    return [(int(bits[3 * i]), int(bits[3 * i + 1]), int(bits[3 * i + 2]))
            for i in range(n_groups)]


def random_message_bits(n_groups: int, rng: Rng) -> str:
    return "".join(str(rng.randrange(2)) for _ in range(3 * n_groups))


@lru_cache(maxsize=None)
def _counterpart_table() -> dict[tuple[GhzLabel, CollectionLabel, str], GhzLabel]:
    """(own label, announcement, own side) -> the counterpart's label, read
    off the swap chart; each chart row and column is a permutation."""
    table = {}
    for first in GhzLabel:
        for second in GhzLabel:
            m = collection_table(first, second)
            for key, other in (((first, m, "first"), second), ((second, m, "second"), first)):
                if key in table:
                    raise AssertionError("swap chart rows are not permutations")
                table[key] = other
    return table


def infer_op_from_announcement(initial: GhzLabel, own_op: CompositeOp,
                               announcement: CollectionLabel,
                               own_side: str) -> CompositeOp:
    """Deduce the counterpart's operation from the announced collection.

    own_side is "first" when the decoder encoded the first triple of the
    swapped pair (Alice) and "second" for the second triple (Bob).
    """
    own_label = transform_label(initial, own_op)
    return invert_transform(initial, _counterpart_table()[(own_label, announcement, own_side)])


def alice_decode(prepared: GhzLabel, a_op: CompositeOp,
                 announcement: CollectionLabel) -> MessageTriple:
    """Bob's message bits for one group, from Alice's knowledge."""
    return infer_op_from_announcement(prepared, a_op, announcement, "first").bits


def bob_decode(measured: GhzLabel, b_op: CompositeOp,
               announcement: CollectionLabel) -> MessageTriple:
    """Alice's message bits for one group, from Bob's knowledge."""
    return infer_op_from_announcement(measured, b_op, announcement, "second").bits


# Stream ids. Every draw of a session comes from Rng(cfg.seed, stream=id),
# id = place << _UNIT_BITS | unit: the place in the protocol in the top byte,
# the index of the group, triple, sample or decoy it concerns below it. Places
# start at 1, so no session stream is one of the message streams 1 and 2 that
# cli and analysis draw from. Draws within one stream keep a fixed order.
_UNIT_BITS = 56
_GROUP_LABEL = 1                                  # unit: group n
_SAMPLE_LABEL = 2                                 # unit: GHZ sample i
_DECOY_TOKEN = {"S_B": 3, "S_A": 4}               # unit: decoy i of that sequence
_CHECK = {"S_C": 5, "S_B": 6, "S_A": 7}           # unit: sample or decoy i measured
_BOB_GHZ = 8                                      # unit: group n
_SWAP = 9                                         # unit: group n
_EVE_TRIPLES = {"S_C": 10, "S_B": 11, "S_A": 12}  # unit: triple t (2n odd, 2n+1 even)
_EVE_EXTRAS = {"S_C": 13, "S_B": 14, "S_A": 15}   # unit: sample or decoy i in flight

# Each sequence carries the particle at this role of every triple (and, in
# S_C, of every GHZ sample).
_ROLES = {"S_A": 0, "S_B": 1, "S_C": 2}


class Session:
    """Single-threaded deterministic run of the seven protocol steps.

    Use run_session for the whole pipeline; the step methods exist so tests
    and experiments can drive or inspect intermediate states.

    A transmitted sequence is the particle at its role of every triple plus
    its samples or decoys, in no particular order: positions are not
    simulated (see the module docstring). Each draw comes from the stream
    of its place and unit (_rng), so no step depends on how many draws an
    earlier one made.
    """

    def __init__(self, cfg: SessionConfig, alice_bits: str, bob_bits: str):
        self.cfg = cfg
        self.alice_ops = [message_to_op(t) for t in message_triples(alice_bits, cfg.n_groups)]
        self.bob_ops = [message_to_op(t) for t in message_triples(bob_bits, cfg.n_groups)]
        self.transcript = SessionTranscript(config=cfg)
        # Group n's odd triple at index 2n and its even triple at 2n+1; roles
        # 0, 1, 2 are the particles sent in S_A, S_B, S_C.
        self.triples: list[Register] = []
        # GHZ samples (label, register), whose third particles travel in S_C,
        # and the decoys (token, register) that travel in S_B and in S_A.
        self.samples: list[tuple[GhzLabel, Register]] = []
        self.decoys: dict[str, list[tuple[str, Register]]] = {}

    def _rng(self, place: int, unit: int) -> Rng:
        return Rng(self.cfg.seed, stream=place << _UNIT_BITS | unit)

    # -- step 1 ----------------------------------------------------------

    def prepare(self) -> None:
        """Draw labels, build two identical GHZ triples per group and the
        GHZ samples, and transmit the third-particle sequence."""
        cfg = self.cfg
        for n in range(cfg.n_groups):
            label = cfg.initial_label if cfg.initial_label is not None \
                else GhzLabel(self._rng(_GROUP_LABEL, n).randrange(8))
            self.transcript.groups.append(GroupRecord(index=n + 1, prepared_label=label))
            self.triples.append(Register(ghz_state(label)))
            self.triples.append(Register(ghz_state(label)))
        for i in range(cfg.resolved_decoys()):
            label = GhzLabel(self._rng(_SAMPLE_LABEL, i).randrange(8))
            self.samples.append((label, Register(ghz_state(label))))
        self._transmit("S_C")

    def _transmit(self, name: str) -> None:
        """Eve's pass over one sequence: the particle at its role of every
        triple, then its samples (S_C) or decoys (S_B, S_A)."""
        attack = self.cfg.attack
        if attack is None or attack.target != name:
            return
        role = _ROLES[name]
        for t, reg in enumerate(self.triples):
            apply_attack(reg, role, attack, self._rng(_EVE_TRIPLES[name], t))
        # a decoy is a single particle, at role 0 of its register
        extras, extra_role = (self.samples, role) if name == "S_C" else (self.decoys[name], 0)
        for i, (_, reg) in enumerate(extras):
            apply_attack(reg, extra_role, attack, self._rng(_EVE_EXTRAS[name], i))

    # -- step 2 ----------------------------------------------------------

    def check1(self) -> CheckRecord:
        """GHZ-sample correlation check on the delivered third particles."""
        errors = 0
        for i, (label, reg) in enumerate(self.samples):
            rng = self._rng(_CHECK["S_C"], i)
            basis = MeasBasis.Z if rng.randrange(2) == 0 else MeasBasis.X
            c_out = measure_particles(basis, reg, [2], rng)
            a_out = measure_particles(basis, reg, [0], rng)
            b_out = measure_particles(basis, reg, [1], rng)
            errors += not ghz_sample_ok(label, basis, (a_out, b_out, c_out))
        return self._record_check(2, len(self.samples), errors)

    def _record_check(self, step: int, samples: int, errors: int) -> CheckRecord:
        rate = errors / samples if samples else 0.0
        rec = CheckRecord(step, samples, errors, rate, rate > self.cfg.check_threshold)
        self.transcript.checks.append(rec)
        if rec.aborted:
            self.transcript.abort_step = step
        return rec

    # -- step 3 ----------------------------------------------------------

    def alice_encode(self) -> None:
        """Encode Alice's bits on the odd triples, then send the
        second-particle sequence with fresh single-particle decoys."""
        for n, op in enumerate(self.alice_ops):
            apply_op(self.triples[2 * n], 0, op.first)
            apply_op(self.triples[2 * n], 1, op.second)
            self.transcript.groups[n].a_op = op
        self._draw_decoys("S_B")
        self._transmit("S_B")

    def _draw_decoys(self, name: str) -> None:
        """Fresh single-particle decoys to travel in the named sequence."""
        tokens = [DECOY_TOKENS[self._rng(_DECOY_TOKEN[name], i).randrange(4)]
                  for i in range(self.cfg.resolved_decoys())]
        self.decoys[name] = [(token, Register(decoy_state(token))) for token in tokens]

    # -- steps 4 and 5 ---------------------------------------------------

    def check2(self) -> CheckRecord:
        """Decoy check on the delivered second-particle sequence."""
        return self._decoy_check(4, "S_B")

    def check3(self) -> CheckRecord:
        """Send the first-particle sequence with fresh decoys, then check."""
        self._draw_decoys("S_A")
        self._transmit("S_A")
        return self._decoy_check(5, "S_A")

    def _decoy_check(self, step: int, name: str) -> CheckRecord:
        errors = 0
        for i, (token, reg) in enumerate(self.decoys[name]):
            prep = DECOY_STATES[token]
            out = measure_particles(prep.basis, reg, [0], self._rng(_CHECK[name], i))
            errors += out != prep.expected
        return self._record_check(step, len(self.decoys[name]), errors)

    # -- step 6 ----------------------------------------------------------

    def bob_encode(self) -> None:
        """Identify each group's prepared state from the even triple,
        rebuild it fresh, and encode Bob's bits on it."""
        for n, op in enumerate(self.bob_ops):
            i = 2 * n + 1
            p_label = measure_particles(MeasBasis.GHZ, self.triples[i], [0, 1, 2],
                                        self._rng(_BOB_GHZ, n))
            fresh = Register(ghz_state(p_label))
            apply_op(fresh, 0, op.first)
            apply_op(fresh, 1, op.second)
            self.triples[i] = fresh
            self.transcript.groups[n].p_label = p_label
            self.transcript.groups[n].b_op = op

    # -- step 7 ----------------------------------------------------------

    def swap_and_announce(self) -> list[CollectionLabel]:
        """Bell-measure the three cross pairs of each group and announce the
        outcome collection over the (ideal) classical channel."""
        announcements = []
        for n in range(self.cfg.n_groups):
            # merge is looked up on the module, where bench/tracer.py counts it
            joint = particles.merge(self.triples[2 * n], self.triples[2 * n + 1])
            rng = self._rng(_SWAP, n)
            triple = BellTriple(*(measure_particles(MeasBasis.BELL, joint, [r, r + 3], rng)
                                  for r in range(3)))
            m = collection_of(triple)
            announcements.append(m)
            rec = self.transcript.groups[n]
            rec.bell_triple = triple
            rec.announcement = m
        return announcements

    def decode(self) -> None:
        for rec in self.transcript.groups:
            a_bits = alice_decode(rec.prepared_label, rec.a_op, rec.announcement)
            b_bits = bob_decode(rec.p_label, rec.b_op, rec.announcement)
            rec.decoded_by_alice = "".join(map(str, a_bits))
            rec.decoded_by_bob = "".join(map(str, b_bits))

    # ---------------------------------------------------------------------

    def run(self) -> SessionTranscript:
        self.prepare()
        if self.check1().aborted:
            return self.transcript
        self.alice_encode()
        if self.check2().aborted:
            return self.transcript
        if self.check3().aborted:
            return self.transcript
        self.bob_encode()
        self.swap_and_announce()
        self.decode()
        return self.transcript


def run_session(cfg: SessionConfig, alice_bits: str, bob_bits: str) -> SessionTranscript:
    """Execute the seven steps in order; on a failed check the transcript
    carries the abort step and no decoded messages."""
    return Session(cfg, alice_bits, bob_bits).run()
