"""The seven-step bidirectional secure direct communication session.

Alice prepares N groups of two identical GHZ triples and distributes the
particles into three sequences; the third-particle sequence travels first,
guarded by GHZ samples (step 2 check). Alice encodes her three bits per
group on the first triple, then ships the second-particle and finally the
first-particle sequence, each guarded by single-particle decoys (steps 4
and 5). Bob identifies each group's prepared state by a GHZ measurement on
the untouched second triple, rebuilds it, encodes his own three bits on it,
swaps entanglement between the two triples with three Bell measurements,
and announces the outcome collection. Each side infers the other's
operation from the announcement and its own operation alone: the
announcement depends on the two operations only (swap.announcement).

Every unit starts as one of 8 GHZ states or 4 decoys, and every operation,
choice of Eve's and outcome is one of a handful, so a session reaches a few
dozen distinct states whatever N is. It holds each triple, sample and decoy
as an id into its StateTable, and each step is a memoized transition on
ids or a walk of the Born tables of the ids' states (Branches): the dense
kernels run once per distinct state, not per unit. A register's roles are
its qubits: a triple's particles of S_A, S_B and S_C are qubits 0, 1 and 2,
a decoy is qubit 0, and an attack appends what it leaves behind. Only the
swap joins two triples, so no state is wider than 7 qubits.

The paper hides the samples and decoys at random positions of each
sequence. Eve treats every particle of a sequence alike, so positions are
not simulated: every draw comes from a stream keyed by its place in the
protocol and the unit it concerns (the stream ids above Session). A
transcript is therefore a pure function of the configuration and the
messages, and group n's record depends only on the seed, the attack, the
initial state and group n's own messages: not on N, the decoy count or the
other groups.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from . import particles, qcore
from .adversary import EVE_BASES, AttackConfig, apply_attack, attack_choices, decoy_rows
# decoy_state, transform_label, invert_transform, collection_table and
# measure_particles have no caller here: bench/tracer.py wraps them in this
# namespace, so they stay imported until the tracer no longer names them.
from .checks import DECOY_STATES, DECOY_TOKENS, decoy_state, ghz_sample_ok  # noqa: F401
from .codebook import CompositeOp, ghz_rows, invert_transform, transform_label  # noqa: F401
from .labels import CollectionLabel, GhzLabel
from .particles import apply_op, measure_particles  # noqa: F401
from .qcore import MeasBasis, Rng, StreamBlock, basis_labels
from .swap import BellTriple, announcement, collection_of, collection_table  # noqa: F401

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


@dataclass(frozen=True)
class GroupRecord:
    """Everything the transcript keeps about one message group, None where
    the session stopped before the step that sets it: a read view of the
    transcript's columns (SessionTranscript.groups)."""

    index: int
    prepared_label: GhzLabel
    a_op: CompositeOp | None
    p_label: GhzLabel | None
    b_op: CompositeOp | None
    bell_triple: BellTriple | None
    announcement: CollectionLabel | None
    decoded_by_alice: str | None
    decoded_by_bob: str | None


# The rows of SessionTranscript.columns, an entry per group, -1 before the
# step that sets it: the prepared label, Alice's op, the label Bob measures,
# Bob's op, the swap's Bell indices a, b, c as 16a + 4b + c, and the ops
# Alice and Bob decode.
_PREPARED, _A_OP, _P_LABEL, _B_OP, _BELL, _BY_ALICE, _BY_BOB = range(7)
# The row behind each GroupRecord (and _GROUP_JSON) field after the index:
# the Bell index gives both the triple and its collection.
_FIELD_ROWS = (_PREPARED, _A_OP, _P_LABEL, _B_OP, _BELL, _BELL, _BY_ALICE, _BY_BOB)


def _columns(n_groups: int) -> np.ndarray:
    """The columns of n_groups groups that no step has reached."""
    return np.full((7, n_groups), -1, dtype=np.int8)


@dataclass(eq=False)
class SessionTranscript:
    """Deterministic record of one session. Its groups are integer columns
    (_PREPARED, ...), from which the records of groups and the JSON text are
    built when read. Compare transcripts by their to_json text."""

    config: SessionConfig
    checks: list[CheckRecord] = field(default_factory=list)
    abort_step: int | None = None
    columns: np.ndarray = field(default_factory=lambda: _columns(0))

    @property
    def aborted(self) -> bool:
        return self.abort_step is not None

    @property
    def groups(self) -> list[GroupRecord]:
        """A record per group, built from the columns on every read."""
        return [GroupRecord(*fields) for fields in self._fields(_field_values())]

    def _fields(self, tables) -> zip:
        """Each group's number from 1, then its fields in GroupRecord order:
        field i's column entry looked up in tables[i]."""
        rows = self.columns.tolist()
        return zip(range(1, self.columns.shape[1] + 1),
                   *([table[k] for k in rows[row]] for row, table in zip(_FIELD_ROWS, tables)))

    def alice_message_bits(self) -> str | None:
        """Bob's secrets as decoded by Alice, concatenated; None on abort."""
        return None if self.aborted else "".join(
            [_BITS[k] for k in self.columns[_BY_ALICE].tolist()])

    def bob_message_bits(self) -> str | None:
        return None if self.aborted else "".join([_BITS[k] for k in self.columns[_BY_BOB].tolist()])

    def to_json(self) -> str:
        """The transcript as json.dumps(..., indent=2) would write it, plus a
        newline: json.dumps writes the header and footer, and each group is a
        _GROUP_JSON template filled from its column entries (_field_json)."""
        from . import __version__
        head = json.dumps({"version": __version__, "config": self.config.to_json_dict()},
                          indent=2)
        tail = json.dumps({"checks": [c.to_json_dict() for c in self.checks],
                           "abort": {"aborted": self.aborted, "step": self.abort_step}},
                          indent=2)
        groups = ",\n".join([_GROUP_JSON % fields for fields in self._fields(_field_json())])
        groups = f"[\n{groups}\n  ]" if groups else "[]"
        # head ends in "\n}" and tail starts with "{\n": splice the groups between
        return f'{head[:-2]},\n  "groups": {groups},\n{tail[2:]}\n'


# One group as json.dumps(indent=2) writes it, the fields in GroupRecord order.
_GROUP_JSON = """\
    {
      "n": %d,
      "prepared_label": %s,
      "a_op": %s,
      "p_label": %s,
      "b_op": %s,
      "bell_triple": %s,
      "announcement": %s,
      "decoded_by_alice": %s,
      "decoded_by_bob": %s
    }"""


@lru_cache(maxsize=None)
def _field_values() -> tuple[tuple, ...]:
    """Per GroupRecord field after index, the value of each entry its column
    can hold, by entry: labels, ops, Bell triples, collections and 3-bit
    strings, with None last, at entry -1."""
    return tuple((*values, None) for values in (
        GhzLabel, CompositeOp, GhzLabel, CompositeOp, *_swap_outcomes(), _BITS, _BITS))


@lru_cache(maxsize=None)
def _field_json() -> tuple[tuple[str, ...], ...]:
    """The JSON text of every _field_values() value, None as null."""
    return tuple(tuple("null" if v is None else json.dumps(v if isinstance(v, str) else v.token)
                       for v in values) for values in _field_values())


def message_ops(bits: str, n_groups: int) -> np.ndarray:
    """The composite operation index of every group: its three message bits
    read as a binary number (message_to_op)."""
    digits = np.frombuffer(bits.encode(), dtype=np.uint8) - np.uint8(ord("0"))
    if len(bits) != 3 * n_groups or digits.size != len(bits) or (digits > 1).any():
        raise ValueError(f"need exactly {3 * n_groups} message bits of 0/1")
    return digits.reshape(-1, 3) @ _BIT_WEIGHTS


def random_message_bits(n_groups: int, rng: Rng) -> str:
    return "".join(str(rng.randrange(2)) for _ in range(3 * n_groups))


def _invert_announcements(announced) -> np.ndarray:
    """decoded[side, own op, announcement] from announced[a][b]: Bob's op as
    Alice (side 0) reads it along her row a, Alice's as Bob (side 1) reads
    it down his column b. Raises unless each row and column is a permutation."""
    decoded = np.full((2, 8, 8), -1, dtype=np.int8)
    for a in CompositeOp:
        for b in CompositeOp:
            m = announced[a][b]
            for side, own, other in ((0, a, b), (1, b, a)):
                if decoded[side, own, m] >= 0:
                    raise AssertionError(f"announcement {m.token} repeats for {own.token} "
                                         f"on side {side}; it cannot be decoded")
                decoded[side, own, m] = other
    return decoded


@lru_cache(maxsize=None)
def _decoded() -> np.ndarray:
    """The decode table of the announcement chart (_invert_announcements)."""
    return _invert_announcements([[announcement(a, b) for b in CompositeOp]
                                  for a in CompositeOp])


@lru_cache(maxsize=None)
def _sample_ok() -> np.ndarray:
    """ok[label, w, 4a + 2b + c]: whether the outcome indices a, b, c of the
    first, second and third particle pass the check of a GHZ sample in state
    label measured in _CHECK_BASES[w] (ghz_sample_ok)."""
    ok = np.empty((len(GhzLabel), len(_CHECK_BASES), 8), dtype=bool)
    for label in GhzLabel:
        for w, basis in enumerate(_CHECK_BASES):
            names = basis_labels(basis)
            for k in range(8):
                ok[label, w, k] = ghz_sample_ok(
                    label, basis, (names[k >> 2], names[k >> 1 & 1], names[k & 1]))
    return ok


@lru_cache(maxsize=None)
def _swap_outcomes() -> tuple[tuple[BellTriple, ...], tuple[CollectionLabel, ...]]:
    """The Bell triples and their collections, for the Bell outcome indices
    a, b, c of the three cross pairs at index 16a + 4b + c."""
    bell = basis_labels(MeasBasis.BELL)
    triples = tuple(BellTriple(bell[k >> 4], bell[k >> 2 & 3], bell[k & 3]) for k in range(64))
    return triples, tuple(map(collection_of, triples))


# Stream ids. Every draw of a session comes from Rng(cfg.seed, stream=id),
# id = place << _UNIT_BITS | unit: the place in the protocol in the top byte,
# the index of the group, triple, sample or decoy it concerns below it. Places
# start at 1, so no session stream is one of the message streams 1 and 2 that
# cli and analysis draw from. Draws within one stream keep a fixed order.
_UNIT_BITS = 56
_GROUP_LABEL = 1                                  # unit: group n
_UNITS = {"S_C": 2, "S_B": 3, "S_A": 4}           # unit: GHZ sample or decoy i drawn
_CHECK = {"S_C": 5, "S_B": 6, "S_A": 7}           # unit: sample or decoy i measured
_BOB_GHZ = 8                                      # unit: group n
_SWAP = 9                                         # unit: group n
_EVE_TRIPLES = {"S_C": 10, "S_B": 11, "S_A": 12}  # unit: triple t (2n odd, 2n+1 even)
_EVE_EXTRAS = {"S_C": 13, "S_B": 14, "S_A": 15}   # unit: sample or decoy i in flight

# Each sequence carries this qubit of every triple (and S_C of every sample).
_ROLES = {"S_A": 0, "S_B": 1, "S_C": 2}

# Groups (twice as many triples), samples or decoys per block of draws; the
# swap's block buffers take about 110 bytes a group (tracemalloc).
_BLOCK = 128
# A table expands at most this many new keys at once, which bounds what the
# swap holds: its joint states, their expansion and the table take up to
# 0.44 MB clean and 0.83 MB under an entangling attack on S_A (tracemalloc).
_SWAP_CHUNK = 64
# Choices per transition (StateTable.move): the eight composite ops.
_CHOICES = 8
# A swap key holds the odd id above this many bits and the even id below.
_PAIR = 32

_BITS = tuple(f"{k:03b}" for k in range(8))  # the message of op k
_BIT_WEIGHTS = np.array([4, 2, 1], dtype=np.uint8)
# The first and second factor of every composite op, stacked in op order.
_FIRST = np.stack([op.first.matrix for op in CompositeOp])
_SECOND = np.stack([op.second.matrix for op in CompositeOp])
# The check bases, drawn Z for 0 and X for 1; each decoy token's basis in
# that order, and the index of the outcome a clean channel gives it.
_CHECK_BASES = (MeasBasis.Z, MeasBasis.X)
_DECOY_BASIS = np.array([_CHECK_BASES.index(DECOY_STATES[t].basis) for t in DECOY_TOKENS])
_DECOY_EXPECTED = np.array([basis_labels(DECOY_STATES[t].basis).index(DECOY_STATES[t].expected)
                            for t in DECOY_TOKENS])


class StateTable:
    """A session's distinct states, each an integer id, interned by the
    exact bytes of its amplitudes: the GHZ states are ids 0-7 in label
    order, the decoys 8-11 in DECOY_TOKENS order. Transitions are memoized
    per kind as moves[kind][id, choice], -1 where not yet known."""

    def __init__(self):
        self.ids: dict[bytes, int] = {}
        self.rows: list[np.ndarray] = []
        self.moves: dict[object, np.ndarray] = {}
        self.intern(ghz_rows())
        self.intern(decoy_rows())

    def intern(self, amps: np.ndarray) -> np.ndarray:
        """The id of every row of amps, the rows not met before added."""
        out = []
        for row in amps:
            i = self.ids.setdefault(row.tobytes(), len(self.rows))
            if i == len(self.rows):
                self.rows.append(row)
            out.append(i)
        return np.array(out, dtype=np.intp)

    def amps(self, ids: np.ndarray) -> np.ndarray:
        """The states of ids, one width, as the rows of one array."""
        return np.array([self.rows[i] for i in ids.tolist()])

    def move(self, kind, ids: np.ndarray, choices, build) -> np.ndarray:
        """The ids after transition kind, unit i taking choices[i] (or one
        choice for all) below _CHOICES; build(amps, choices), the row
        kernel, runs once over the missing distinct (id, choice) pairs."""
        table = self.moves.setdefault(kind, np.empty((0, _CHOICES), dtype=np.intp))
        if len(table) < len(self.rows):
            unknown = np.full((2 * len(self.rows) - len(table), _CHOICES), -1, dtype=np.intp)
            table = self.moves[kind] = np.concatenate([table, unknown])
        out = table[ids, choices]
        miss = out < 0
        if miss.any():
            codes = ids[miss] * _CHOICES + (choices[miss] if np.ndim(choices) else choices)
            codes = np.array(list(dict.fromkeys(codes.tolist())), dtype=np.intp)
            src, picked = np.divmod(codes, _CHOICES)
            table[src, picked] = self.intern(build(self.amps(src), picked))
            out = table[ids, choices]
        return out


def _certain(tables: list[np.ndarray]) -> np.ndarray:
    """Per row of branch_rows tables, each round's outcome where every round
    on its path has one live outcome, which _pick takes for any draw, and
    -1 otherwise: a row with a single live entry in its last table."""
    live = tables[-1].reshape(len(tables[-1]), -1) > qcore.ZERO_TOL
    paths = (tables[-1].shape[-1],) * len(tables)
    fixed = np.stack(np.unravel_index(live.argmax(axis=1), paths), axis=1)
    fixed[live.sum(axis=1) != 1] = -1
    return fixed


class Branches:
    """The Born tables of one measurement: the branch_rows tables of each
    distinct key 2 * id + the index of the state's basis in bases, built
    _SWAP_CHUNK keys at a time."""

    def __init__(self, bases, rounds):
        self.bases, self.rounds = bases, rounds
        self.entries: dict[int, int] = {}
        self.probs: list[np.ndarray] = []  # per round, (entries, d**k, d)
        self.fixed = np.empty((0, 0), dtype=np.intp)  # per entry, _certain

    def build(self, states: StateTable, keys: np.ndarray) -> list[np.ndarray]:
        """The branch_rows tables of the keys' states, each in its basis."""
        return qcore.branch_rows(states.amps(keys >> 1), self.bases, self.rounds, which=keys & 1)

    def entries_of(self, states: StateTable, keys: np.ndarray) -> np.ndarray:
        """The entry of every key; the keys not met before are expanded."""
        keys, entries = keys.tolist(), self.entries
        missing = sorted(set(keys).difference(entries))
        for start in range(0, len(missing), _SWAP_CHUNK):
            new, old = self.build(states, np.array(missing[start:start + _SWAP_CHUNK])), self.probs
            self.probs = [np.concatenate(pair) for pair in zip(old, new)] or new
            self.fixed = np.concatenate([self.fixed, _certain(new)]) if old else _certain(new)
        entries.update(zip(missing, range(len(entries), len(entries) + len(missing))))
        return np.fromiter(map(entries.__getitem__, keys), np.intp, len(keys))

    def sample(self, states: StateTable, keys: np.ndarray, lanes) -> list[np.ndarray]:
        """Each round's outcome index for every key, as measure_rows draws
        it, from the keys' streams that lanes() keys; neither keyed nor
        drawn when every outcome is certain (_certain)."""
        entries = self.entries_of(states, keys)
        fixed = self.fixed[entries]
        if (fixed >= 0).all():
            return list(fixed.T)
        return qcore.sample_branches(self.probs, entries, lanes().random(len(self.probs)))


class SwapTable(Branches):
    """The swap's Bell branches, one entry per distinct (odd id, even id)
    pair, keyed odd << _PAIR | even: the tables of the pair's joint state
    (particles.merge, once per pair), whose three rounds measure the cross
    pairs (r, w + r), w the odd state's qubit count."""

    def __init__(self):
        super().__init__(MeasBasis.BELL, None)

    def build(self, states: StateTable, keys: np.ndarray) -> list[np.ndarray]:
        odd, even = states.amps(keys >> _PAIR), states.amps(keys & (1 << _PAIR) - 1)
        w = odd.shape[1].bit_length() - 1
        # merge is looked up on the module, where bench/tracer.py counts it
        return qcore.branch_rows(particles.merge(odd, even), MeasBasis.BELL,
                                 [(r, w + r) for r in range(3)])


def _spans(count: int, size: int | None = None):
    """(start, stop) of count units in consecutive blocks of at most size
    (default _BLOCK)."""
    size = size or _BLOCK
    return ((start, min(start + size, count)) for start in range(0, count, size))


def _encode(amps: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Composite op ops[i] on the first and second particle of row i."""
    return apply_op(amps, [(0, _FIRST[ops]), (1, _SECOND[ops])])


class Session:
    """Single-threaded deterministic run of the seven protocol steps; the
    step methods drive or inspect intermediate states. triples holds the
    ids of each group's odd and even triple. A check draws, attacks and
    measures its own samples or decoys a block at a time (_checked_units),
    so none is held between steps. The swap, the last step that reads the
    states, releases the ids and every table.
    """

    def __init__(self, cfg: SessionConfig, alice_bits: str, bob_bits: str):
        self.cfg = cfg
        self.alice_ops = message_ops(alice_bits, cfg.n_groups)
        self.bob_ops = message_ops(bob_bits, cfg.n_groups)
        self.transcript = SessionTranscript(config=cfg)
        self.triples: np.ndarray | None = None  # (n_groups, 2) ids, set by prepare
        self.states = StateTable()
        self.tables: dict[tuple, Branches] = {}  # by (bases, rounds); _table
        self.swap_table = SwapTable()
        self._streams = StreamBlock(cfg.seed, 2 * _BLOCK)  # a block of triples

    def _key(self, place: int, start: int, stop: int) -> StreamBlock:
        """The session's lanes, lane j keyed to the stream
        Rng(seed, place << _UNIT_BITS | start + j) of unit start + j < stop."""
        self._streams.key(place << _UNIT_BITS | start, stop - start)
        return self._streams

    def _table(self, bases, rounds) -> Branches:
        """The session's Branches of one measurement."""
        table = self.tables.get((bases, rounds))
        if table is None:
            table = self.tables[bases, rounds] = Branches(bases, rounds)
        return table

    def prepare(self) -> None:
        """Step 1: draw labels, build two identical GHZ triples per group,
        and transmit the third-particle sequence."""
        cfg = self.cfg
        labels = (np.concatenate([self._key(_GROUP_LABEL, start, stop).randrange(8)
                                  for start, stop in _spans(cfg.n_groups)])
                  if cfg.initial_label is None else np.full(cfg.n_groups, int(cfg.initial_label)))
        self.transcript.columns = _columns(cfg.n_groups)
        self.transcript.columns[_PREPARED] = labels
        # GHZ label k is state k; triple t of the sequence is triples.flat[t]
        self.triples = np.repeat(labels, 2).reshape(-1, 2).astype(np.intp)
        self._transmit("S_C")

    def _transmit(self, name: str) -> None:
        """Eve's pass over the named sequence's qubit of every triple."""
        attack = self.cfg.attack
        if attack is None or attack.target != name:
            return
        flat = self.triples.reshape(-1)
        for start, stop in _spans(len(flat), 2 * _BLOCK):
            flat[start:stop] = self._attack(flat[start:stop], _ROLES[name],
                                            _EVE_TRIPLES[name], start)

    def _attack(self, ids: np.ndarray, role: int, place: int, start: int) -> np.ndarray:
        """The ids after Eve's pass over qubit role of the units start, ...,
        each drawing her choice from its stream at place (attack_choices)."""
        attack, stop = self.cfg.attack, start + len(ids)

        def outcomes(basis, lanes):
            table = self._table(EVE_BASES, ((role,),))
            return table.sample(self.states, 2 * ids + basis, lanes)[0]

        choices = attack_choices(attack, lambda: self._key(place, start, stop), outcomes)
        return self.states.move(("attack", role), ids, choices,
                                lambda amps, picked: apply_attack(amps, role, attack, picked))

    def _checked_units(self, name: str, kinds: int, first: int, role: int):
        """The GHZ samples (kinds 8 from state 0, role 2) or decoys (kinds 4
        from state 8, role 0) of the named sequence, a block at a time:
        yields (units, ids, lanes), the drawn kinds, their ids after Eve's
        pass when she targets the sequence, and lanes() keying their checks."""
        attack = self.cfg.attack
        attacked = attack is not None and attack.target == name
        for start, stop in _spans(self.cfg.resolved_decoys()):
            units = self._key(_UNITS[name], start, stop).randrange(kinds)
            ids = units + first
            if attacked:
                ids = self._attack(ids, role, _EVE_EXTRAS[name], start)
            yield units, ids, lambda: self._key(_CHECK[name], start, stop)

    def check1(self) -> CheckRecord:
        """Step 2: GHZ-sample correlation check on the third particles."""
        ok = _sample_ok()
        table = self._table(_CHECK_BASES, ((2,), (0,), (1,)))  # C, then A, then B
        errors = 0
        for labels, ids, lanes in self._checked_units("S_C", len(GhzLabel), 0, _ROLES["S_C"]):
            rng = lanes()
            which = rng.randrange(len(_CHECK_BASES))
            c, a, b = table.sample(self.states, 2 * ids + which, lambda: rng)
            errors += int(np.count_nonzero(~ok[labels, which, 4 * a + 2 * b + c]))
        return self._record_check(2, errors)

    def _record_check(self, step: int, errors: int) -> CheckRecord:
        samples = self.cfg.resolved_decoys()
        rate = errors / samples if samples else 0.0
        rec = CheckRecord(step, samples, errors, rate, rate > self.cfg.check_threshold)
        self.transcript.checks.append(rec)
        if rec.aborted:
            self.transcript.abort_step = step
        return rec

    def alice_encode(self) -> None:
        """Step 3: encode Alice's bits on the odd triples, then send the
        second-particle sequence."""
        odd = self.triples[:, 0]
        odd[:] = self.states.move("op", odd, self.alice_ops, _encode)
        self.transcript.columns[_A_OP] = self.alice_ops
        self._transmit("S_B")

    def check2(self) -> CheckRecord:
        """Step 4: decoy check on the delivered second-particle sequence."""
        return self._decoy_check(4, "S_B")

    def check3(self) -> CheckRecord:
        """Step 5: send the first-particle sequence, then check its decoys."""
        self._transmit("S_A")
        return self._decoy_check(5, "S_A")

    def _decoy_check(self, step: int, name: str) -> CheckRecord:
        """Measure each decoy of the named sequence in the basis of its
        state; an outcome other than that state is an error."""
        table = self._table(_CHECK_BASES, ((0,),))
        errors = 0
        for kinds, ids, lanes in self._checked_units(name, len(DECOY_TOKENS), len(GhzLabel), 0):
            (out,) = table.sample(self.states, 2 * ids + _DECOY_BASIS[kinds], lanes)
            errors += int(np.count_nonzero(out != _DECOY_EXPECTED[kinds]))
        return self._record_check(step, errors)

    def bob_encode(self) -> None:
        """Step 6: identify each group's prepared state from the even
        triple, rebuild it fresh, and encode Bob's bits on it."""
        columns, even = self.transcript.columns, self.triples[:, 1]
        table = self._table((MeasBasis.GHZ,), ((0, 1, 2),))
        for start, stop in _spans(self.cfg.n_groups):
            (found,) = table.sample(self.states, 2 * even[start:stop],
                                    lambda: self._key(_BOB_GHZ, start, stop))
            columns[_P_LABEL, start:stop] = found
        # the found label is the fresh state's id
        even[:] = self.states.move("op", columns[_P_LABEL].astype(np.intp), self.bob_ops, _encode)
        columns[_B_OP] = self.bob_ops

    def swap_and_announce(self) -> None:
        """Step 7: Bell-measure the three cross pairs of each group and
        announce the outcome collection over the (ideal) classical channel."""
        odd, even = self.triples.T

        def pairs(start, stop):
            return odd[start:stop] << _PAIR | even[start:stop]

        # the distinct pairs first, so that the new ones are joined in full chunks
        distinct = set()
        for start, stop in _spans(len(odd)):
            distinct.update(pairs(start, stop).tolist())
        self.swap_table.entries_of(self.states, np.array(sorted(distinct)))
        for start, stop in _spans(len(odd)):
            a, b, c = self.swap_table.sample(self.states, pairs(start, stop),
                                             lambda: self._key(_SWAP, start, stop))
            self.transcript.columns[_BELL, start:stop] = 16 * a + 4 * b + c
        # no later step draws or reads the states, so they go with the swap
        self.triples = self.states = self.tables = self.swap_table = self._streams = None
        self.alice_ops = self.bob_ops = None  # in the columns now

    def decode(self) -> None:
        """Each side reads the other's operation off the announcement and its
        own operation (_decoded); neither needs the prepared state."""
        alice, bob = _decoded()
        columns = self.transcript.columns
        announced = np.array(_swap_outcomes()[1])[columns[_BELL]]
        columns[_BY_ALICE] = alice[columns[_A_OP], announced]
        columns[_BY_BOB] = bob[columns[_B_OP], announced]

    def run(self) -> SessionTranscript:
        self.prepare()
        if self.check1().aborted:
            return self.transcript
        self.alice_encode()
        if self.check2().aborted or self.check3().aborted:
            return self.transcript
        self.bob_encode()
        self.swap_and_announce()
        self.decode()
        return self.transcript


def run_session(cfg: SessionConfig, alice_bits: str, bob_bits: str) -> SessionTranscript:
    """Execute the seven steps in order; on a failed check the transcript
    carries the abort step and no decoded messages."""
    return Session(cfg, alice_bits, bob_bits).run()
