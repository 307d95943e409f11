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
from the announcement and its own operation alone: the announcement depends
only on the two operations (swap.announcement), not on the prepared state.

The triples, samples and decoys of a sequence are held in blocks, the rows
of one amplitude array for up to _BLOCK groups, samples or decoys, built by
indexing a table of the GHZ or the decoy states, and a step runs once per
block, not once per particle. The samples and decoys serve one check each:
the check draws them, lets Eve at them and measures them a block at a time,
so none outlives its block. A register's roles are its qubits: a triple's
first, second and third particle (those of S_A, S_B and S_C) are qubits 0,
1 and 2, and a decoy is qubit 0; an attack appends what it leaves behind
after them. The two triples of a group meet only at Bob's swap, and are
joined only when the session has not met their pair of states before
(SwapTable): the swap expands each distinct pair's three Bell rounds once
into a table of branch probabilities and draws every group's outcomes from
its pair's table. No state is wider than two triples plus one attack qubit
(7 qubits).

A transcript keeps its groups as integer columns, one entry per group
(SessionTranscript.columns): every label, operation and outcome it records
is an index below 64. Each step writes its block's slice of them, and the
records of SessionTranscript.groups and the JSON text are built from the
columns when read.

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

import numpy as np

from . import particles, qcore
from .adversary import AttackConfig, apply_attack, decoy_rows
# decoy_state, transform_label, invert_transform and collection_table have
# no caller here: bench/tracer.py wraps them in this namespace, so they stay
# imported until the tracer no longer names them.
from .checks import DECOY_STATES, DECOY_TOKENS, decoy_state, ghz_sample_ok  # noqa: F401
from .codebook import CompositeOp, ghz_rows, invert_transform, transform_label  # noqa: F401
from .labels import CollectionLabel, GhzLabel
from .particles import apply_op, measure_particles
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


# The rows of SessionTranscript.columns, one entry per group: the prepared
# label, Alice's op, the label Bob measures, Bob's op, the swap's Bell
# outcome indices a, b, c as 16a + 4b + c, and the op Alice decodes and the
# op Bob decodes. An entry is -1 where the session stopped before the step
# that sets it.
_PREPARED, _A_OP, _P_LABEL, _B_OP, _BELL, _BY_ALICE, _BY_BOB = range(7)
# The row behind each GroupRecord field after index, which is also each
# _GROUP_JSON field after "n": the Bell index gives both the triple and
# its collection.
_FIELD_ROWS = (_PREPARED, _A_OP, _P_LABEL, _B_OP, _BELL, _BELL, _BY_ALICE, _BY_BOB)


def _columns(n_groups: int) -> np.ndarray:
    """The columns of n_groups groups that no step has reached."""
    return np.full((7, n_groups), -1, dtype=np.int8)


@dataclass(eq=False)
class SessionTranscript:
    """Deterministic record of one session. Its groups are integer columns,
    a row of columns per field (_PREPARED, ...) with an entry per group,
    which the steps fill a block at a time; the records of groups and the
    JSON text are built from them when read. Compare transcripts by their
    to_json text."""

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
        field i's column entry looked up in tables[i], where entry -1 is a
        step the session did not reach."""
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
        newline: json.dumps formats the header (version and config) and the
        footer (checks and abort), and each group is one _GROUP_JSON template
        filled with the JSON text of its column entries (_field_json)."""
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


# One group of the transcript, at the indentation json.dumps(indent=2) gives
# it; the fields in GroupRecord order.
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
    can hold, indexed by the entry: labels, ops, Bell triples, collections
    and 3-bit strings, with None last, at entry -1."""
    return tuple((*values, None) for values in (
        GhzLabel, CompositeOp, GhzLabel, CompositeOp, *_swap_outcomes(), _BITS, _BITS))


@lru_cache(maxsize=None)
def _field_json() -> tuple[tuple[str, ...], ...]:
    """The JSON text of every _field_values() value, None as null."""
    return tuple(tuple("null" if v is None else json.dumps(v if isinstance(v, str) else v.token)
                       for v in values) for values in _field_values())


def message_ops(bits: str, n_groups: int) -> np.ndarray:
    """The composite operation index of every group, its three message bits
    read as a binary number (message_to_op), the whole string validated at
    once."""
    digits = np.frombuffer(bits.encode(), dtype=np.uint8) - np.uint8(ord("0"))
    if len(bits) != 3 * n_groups or digits.size != len(bits) or (digits > 1).any():
        raise ValueError(f"need exactly {3 * n_groups} message bits of 0/1")
    return digits.reshape(-1, 3) @ _BIT_WEIGHTS


def random_message_bits(n_groups: int, rng: Rng) -> str:
    return "".join(str(rng.randrange(2)) for _ in range(3 * n_groups))


def _invert_announcements(announced) -> np.ndarray:
    """decoded[side, own op, announcement] from announced[a][b]: the index
    of Bob's operation that Alice (side 0) reads along her row a, and of
    Alice's that Bob (side 1) reads down his column b. Raises unless every
    row and column is a permutation of the collections."""
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

# Each sequence carries this qubit of every triple (and, in S_C, of every
# GHZ sample).
_ROLES = {"S_A": 0, "S_B": 1, "S_C": 2}

# Groups (twice as many triples), samples or decoys per block. The swap's
# block buffers are the session's peak heap: a 1000-group session
# (bench/run.py, seeds 3-5) peaks at 0.64 MB clean and at 0.98-0.99 MB
# under an entangling attack on S_A. bob_encode, which frees each triple
# block as it consumes it, peaks about 0.29 MB lower (tracemalloc around
# each step). The swap's buffers are a block's pair keys (about 420 bytes
# a group) and the joined states of at most _SWAP_CHUNK new pairs with
# their branch expansion; its table, about 190 KB at the 170
# pairs of such a session, grows with the distinct pairs, not with N. At
# 256 the session peaks at 0.70-0.71 and 1.07-1.10 MB, 1.1x as much, for
# about 1.12x and 1.15x as many groups/s.
_BLOCK = 128
# The swap joins and expands at most this many new pairs at once, so the
# first block, where most of a session's pairs are new, holds a quarter of
# the joint states that one merge of the whole block would.
_SWAP_CHUNK = 32

_BITS = tuple(f"{k:03b}" for k in range(8))  # the message of op k
_BIT_WEIGHTS = np.array([4, 2, 1], dtype=np.intp)
# The first and second factor of every composite op, stacked in op order.
_FIRST = np.stack([op.first.matrix for op in CompositeOp])
_SECOND = np.stack([op.second.matrix for op in CompositeOp])
# The check bases, drawn Z for 0 and X for 1; each decoy token's basis in
# that order, and the index of the outcome a clean channel gives it.
_CHECK_BASES = (MeasBasis.Z, MeasBasis.X)
_DECOY_BASIS = np.array([_CHECK_BASES.index(DECOY_STATES[t].basis) for t in DECOY_TOKENS])
_DECOY_EXPECTED = np.array([basis_labels(DECOY_STATES[t].basis).index(DECOY_STATES[t].expected)
                            for t in DECOY_TOKENS])


def _pair_keys(odd: np.ndarray, even: np.ndarray) -> list[bytes]:
    """The exact bytes of every odd row followed by those of its even row;
    the block-sized copies are freed on return, before any pair is joined."""
    pairs = np.concatenate([odd, even], axis=1)
    buf, width = pairs.tobytes(), pairs.shape[1] * pairs.itemsize
    return [buf[at:at + width] for at in range(0, len(buf), width)]


class SwapTable:
    """The Bell branches of the swap, one entry per distinct (odd row, even
    row) pair of a session: the qcore.branch_rows tables of the pair's joint
    state, whose three rounds measure the cross pairs (r, w + r), w the odd
    row's qubit count.

    A pair is keyed by the exact bytes of its odd row followed by those of
    its even row, a fresh triple. Those bytes fix the joint state, and
    their length fixes w, so they fix the qubits measured too. The table is
    bounded by the distinct pairs a session reaches, not by N.
    """

    def __init__(self):
        self.entries: dict[bytes, int] = {}
        self.probs: list[np.ndarray] = []  # per round, (entries, 4**k, 4)

    def entries_of(self, odd: np.ndarray, even: np.ndarray) -> np.ndarray:
        """The entry of every row pair of the two blocks. The pairs not seen
        before are joined (particles.merge, once per pair) and expanded."""
        keys = _pair_keys(odd, even)
        entries = self.entries
        # a row of each pair not seen before; equal bytes, so any row will do
        missing = {key: row for row, key in enumerate(keys) if key not in entries}
        rows = list(missing.values())
        w = odd.shape[1].bit_length() - 1
        for at in range(0, len(rows), _SWAP_CHUNK):
            part = rows[at:at + _SWAP_CHUNK]
            # merge is looked up on the module, where bench/tracer.py counts it
            new = qcore.branch_rows(particles.merge(odd[part], even[part]), MeasBasis.BELL,
                                    [(r, w + r) for r in range(3)])
            self.probs = [np.concatenate(pair) for pair in zip(self.probs, new)] or new
        entries.update(zip(missing, range(len(entries), len(entries) + len(rows))))
        return np.array([entries[key] for key in keys])


class Session:
    """Single-threaded deterministic run of the seven protocol steps.

    Use run_session for the whole pipeline; the step methods exist so tests
    and experiments can drive or inspect intermediate states.

    A transmitted sequence is its qubit of every triple plus its samples
    or decoys, in no particular order: positions are not simulated (see the
    module docstring). Each draw comes from the stream of its place and
    unit, so no step depends on how many draws an earlier one made.

    Each step runs once per block as one batched operation of particles,
    with the units' draws taken side by side from their keyed streams
    (_blocks); memory for a step's buffers does not grow with N. A check
    draws, attacks and measures its own samples or decoys a block at a time
    (_checked_units), so the session holds none of them between steps.
    """

    def __init__(self, cfg: SessionConfig, alice_bits: str, bob_bits: str):
        self.cfg = cfg
        self.alice_ops = message_ops(alice_bits, cfg.n_groups)
        self.bob_ops = message_ops(bob_bits, cfg.n_groups)
        self.transcript = SessionTranscript(config=cfg)
        # Triple t at row t of the blocks in order (group n's odd triple at
        # 2n, its even one at 2n + 1), qubits 0, 1, 2 sent in S_A, S_B, S_C;
        # bob_encode splits each block into its odd and even rows (pairs).
        self.triples: list[np.ndarray] = []
        self.pairs: list[tuple[np.ndarray, np.ndarray]] = []
        self._streams = StreamBlock(cfg.seed, 2 * _BLOCK)  # a triple block's rows
        self.swap_table = SwapTable()

    def _key(self, place: int, start: int, stop: int) -> StreamBlock:
        """The session's lanes, lane j keyed to the stream
        Rng(seed, place << _UNIT_BITS | start + j) of unit start + j < stop."""
        self._streams.key(place << _UNIT_BITS | start, stop - start)
        return self._streams

    def _blocks(self, place: int, count: int, size: int | None = None):
        """The count units at place in consecutive blocks of at most size
        (default _BLOCK): yields (start, stop, rng), rng keyed to the units
        start, ..., stop - 1 (_key)."""
        size = size or _BLOCK
        for start in range(0, count, size):
            stop = min(start + size, count)
            yield start, stop, self._key(place, start, stop)

    # -- step 1 ----------------------------------------------------------

    def prepare(self) -> None:
        """Draw labels, build two identical GHZ triples per group, and
        transmit the third-particle sequence."""
        cfg, rows = self.cfg, ghz_rows()
        labels = (np.concatenate([rng.randrange(8) for _, _, rng
                                  in self._blocks(_GROUP_LABEL, cfg.n_groups)])
                  if cfg.initial_label is None else np.full(cfg.n_groups, cfg.initial_label))
        self.transcript.columns = _columns(cfg.n_groups)
        self.transcript.columns[_PREPARED] = labels
        self.triples = [rows[labels[start:start + _BLOCK].repeat(2)]
                        for start in range(0, cfg.n_groups, _BLOCK)]
        self._transmit("S_C")

    def _transmit(self, name: str) -> None:
        """Eve's pass over the named sequence's qubit of every triple; its
        samples or decoys pass her in their check (_checked_units)."""
        attack = self.cfg.attack
        if attack is None or attack.target != name:
            return
        keyed = self._blocks(_EVE_TRIPLES[name], 2 * self.cfg.n_groups, 2 * _BLOCK)
        self.triples = [apply_attack(block, _ROLES[name], attack, rng)
                        for block, (_, _, rng) in zip(self.triples, keyed)]

    def _checked_units(self, name: str, rows: np.ndarray, role: int):
        """The GHZ samples (rows ghz_rows(), role 2) or single-particle decoys
        (decoy_rows(), role 0) that travel in the named sequence, a block at
        a time: yields (units, block, rng), units the drawn indices into rows,
        block their registers after Eve's pass over the qubit role when she
        targets the sequence, and rng keyed to the units' check streams."""
        attack = self.cfg.attack
        attacked = attack is not None and attack.target == name
        for start, stop, rng in self._blocks(_UNITS[name], self.cfg.resolved_decoys()):
            units = rng.randrange(len(rows))
            block = rows[units]
            if attacked:
                block = apply_attack(block, role, attack, self._key(_EVE_EXTRAS[name], start, stop))
            yield units, block, self._key(_CHECK[name], start, stop)

    # -- step 2 ----------------------------------------------------------

    def check1(self) -> CheckRecord:
        """GHZ-sample correlation check on the delivered third particles."""
        ok = _sample_ok()
        errors = 0
        for labels, block, rng in self._checked_units("S_C", ghz_rows(), _ROLES["S_C"]):
            which = rng.randrange(len(_CHECK_BASES))
            draws = [rng.random() for _ in range(3)]  # for C, then A, then B
            (c, a, b), _ = measure_particles(block, _CHECK_BASES, [(2,), (0,), (1,)], draws,
                                             collapse=False, which=which)
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

    # -- step 3 ----------------------------------------------------------

    def alice_encode(self) -> None:
        """Encode Alice's bits on the odd triples, then send the
        second-particle sequence."""
        for start, block in zip(range(0, self.cfg.n_groups, _BLOCK), self.triples):
            k = self.alice_ops[start:start + _BLOCK]
            block[0::2] = apply_op(block[0::2], [(0, _FIRST[k]), (1, _SECOND[k])])
        self.transcript.columns[_A_OP] = self.alice_ops
        self._transmit("S_B")

    # -- steps 4 and 5 ---------------------------------------------------

    def check2(self) -> CheckRecord:
        """Decoy check on the delivered second-particle sequence."""
        return self._decoy_check(4, "S_B")

    def check3(self) -> CheckRecord:
        """Send the first-particle sequence, then check its decoys."""
        self._transmit("S_A")
        return self._decoy_check(5, "S_A")

    def _decoy_check(self, step: int, name: str) -> CheckRecord:
        """Measure each decoy of the named sequence in the basis of its
        state; an outcome other than that state is an error."""
        errors = 0
        for kinds, block, rng in self._checked_units(name, decoy_rows(), 0):
            (out,), _ = measure_particles(block, _CHECK_BASES, [(0,)], [rng.random()],
                                          collapse=False, which=_DECOY_BASIS[kinds])
            errors += int(np.count_nonzero(out != _DECOY_EXPECTED[kinds]))
        return self._record_check(step, errors)

    # -- step 6 ----------------------------------------------------------

    def bob_encode(self) -> None:
        """Identify each group's prepared state from the even triple,
        rebuild it fresh, and encode Bob's bits on it."""
        columns, ops = self.transcript.columns, self.bob_ops
        # popped in order, so each block is freed once its rows are consumed
        triples, self.triples = self.triples[::-1], []
        for start, stop, rng in self._blocks(_BOB_GHZ, self.cfg.n_groups):
            block = triples.pop()
            (found,), _ = measure_particles(block[1::2], MeasBasis.GHZ, [(0, 1, 2)],
                                            [rng.random()], collapse=False)
            k = ops[start:stop]
            even = apply_op(ghz_rows()[found], [(0, _FIRST[k]), (1, _SECOND[k])])
            # a copy, so that the measured even rows are freed with the block
            self.pairs.append((block[0::2].copy(), even))
            columns[_P_LABEL, start:stop] = found
        columns[_B_OP] = ops

    # -- step 7 ----------------------------------------------------------

    def swap_and_announce(self) -> None:
        """Bell-measure the three cross pairs of each group and announce the
        outcome collection over the (ideal) classical channel."""
        table = self.swap_table
        for (odd, even), (start, stop, rng) in zip(self.pairs,
                                                   self._blocks(_SWAP, self.cfg.n_groups)):
            entries = table.entries_of(odd, even)
            draws = [rng.random() for _ in range(3)]
            a, b, c = qcore.sample_branches(table.probs, entries, draws)
            self.transcript.columns[_BELL, start:stop] = 16 * a + 4 * b + c

    def decode(self) -> None:
        """Each side reads the other's operation off the announcement and its
        own operation (_decoded); neither needs the prepared state."""
        alice, bob = _decoded()
        columns = self.transcript.columns
        announced = np.array(_swap_outcomes()[1])[columns[_BELL]]
        columns[_BY_ALICE] = alice[columns[_A_OP], announced]
        columns[_BY_BOB] = bob[columns[_B_OP], announced]

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
