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
announcement depends on the two operations only (swap.announcement_chart).

Every unit starts as one of 8 GHZ states or 4 decoys, and every operation,
choice of Eve's and outcome is one of a handful, so a session reaches a few
dozen distinct states whatever N is. It holds each triple, sample and decoy
as an id into its StateTable, which interns states up to sign, and whose
one memo is a dense array per kind over (id, second index), a miss built
once over the distinct missing pairs (StateTable.lookup): an op or Eve's
choice maps (id, choice) to an id, a measurement (id, basis) and the swap
(odd id, even id) to an entry of their Born tables (Branches). So the
dense kernels run once per distinct state, not per unit. Bob's rebuilt
triple is never sent, so his op needs no kernel: the triple is the GHZ
state of its transform-chart label, whose id is the label, and the swap's
memo is 8 wide. Every memo starts from the tables of the states each
StateTable starts with: the op memo from the transform chart, and each
Born table from its seed (_seeded), derived once per process on its first
use: the swap's from the tables the swap chart is read off
(swap.ghz_swap_tables), and each measurement's from every measurement of
a GHZ state, and the decoys' in Eve's table of qubit 0, which the decoy
check reads (_seed_tables). So a clean session runs no dense kernel; what
a session builds is the tables of the states an attack creates. A
register's roles are its qubits: a triple's particles of S_A, S_B and S_C
are qubits 0, 1 and 2, a decoy is qubit 0, and an attack appends what it
leaves behind. Only the swap joins two
triples, so no state is wider than 7 qubits.

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

import io
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import qcore
from .adversary import AttackConfig, apply_attack, attack_choices
# decoy_state, ghz_sample_ok, transform_label, invert_transform, collection_of,
# collection_table and measure_particles have no caller here: bench/tracer.py
# wraps them in this namespace, so they stay imported until the tracer no
# longer names them.
from .checks import (CHECK_BASES, DECOY_BASIS, DECOY_ERRORS, DECOY_TOKENS,  # noqa: F401
                     decoy_rows, decoy_state, ghz_sample_ok, sample_errors)
from .codebook import (FIRST_FACTORS, SECOND_FACTORS, CompositeOp, ghz_rows,  # noqa: F401
                       invert_transform, transform_chart, transform_label)
from .labels import CollectionLabel, GhzLabel
from .qcore import MeasBasis, Rng, StreamBlock, apply_op
from .qcore import measure_rows as measure_particles  # noqa: F401
from .swap import (announcement_chart, bell_tables, bell_triples, collection_of,  # noqa: F401
                   collection_table, ghz_swap_tables, swap_chart)

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
        if self.initial_label is not None:
            object.__setattr__(self, "initial_label", GhzLabel(self.initial_label))

    def resolved_decoys(self) -> int:
        return self.decoys if self.decoys is not None else default_decoy_count(self.n_groups)

    def to_json_dict(self) -> dict:
        return {
            "n_groups": self.n_groups,
            "seed": self.seed,
            "decoys": self.resolved_decoys(),
            "check_threshold": self.check_threshold,
            "attack": None if self.attack is None else self.attack.to_json_dict(),
            "initial_label": None if self.initial_label is None else self.initial_label.token,
        }


@dataclass
class CheckRecord:
    step: int
    samples: int
    errors: int
    error_rate: float
    aborted: bool

    def to_json_dict(self) -> dict:
        return {"step": self.step, "samples": self.samples, "errors": self.errors,
                "error_rate": self.error_rate, "aborted": self.aborted}


# The rows of SessionTranscript.columns, an entry per group, -1 before the
# step that sets it: the prepared label, Alice's op, the label Bob measures,
# Bob's op, the swap's Bell indices a, b, c as 16a + 4b + c, and the ops
# Alice and Bob decode.
_PREPARED, _A_OP, _P_LABEL, _B_OP, _BELL, _BY_ALICE, _BY_BOB = range(7)


def _columns(n_groups: int) -> np.ndarray:
    """The columns of n_groups groups that no step has reached."""
    return np.full((7, n_groups), -1, dtype=np.int8)


@dataclass(eq=False)
class SessionTranscript:
    """Deterministic record of one session. Its groups are integer columns
    (_PREPARED, ...), from which the JSON text and the decoded message
    strings are built when read. Compare transcripts by their to_json text."""

    config: SessionConfig
    checks: list[CheckRecord] = field(default_factory=list)
    abort_step: int | None = None
    columns: np.ndarray = field(default_factory=lambda: _columns(0))

    @property
    def aborted(self) -> bool:
        return self.abort_step is not None

    def alice_message_bits(self) -> str | None:
        """Bob's secrets as decoded by Alice, concatenated; None until decode
        has filled the column (-1 before), so on abort too."""
        return _message_bits(self.columns[_BY_ALICE])

    def bob_message_bits(self) -> str | None:
        return _message_bits(self.columns[_BY_BOB])

    def to_json(self, fh=None) -> str | None:
        """The transcript as json.dumps(..., indent=2) would write it, plus a
        newline: json.dumps writes the header and footer, and each group is
        its number between the template's first two pieces, then one entry of
        each of the four _group_tables, indexed by its column entries. With
        fh, the text goes to fh _BLOCK groups at a time and is not returned,
        so no text of the whole transcript is held."""
        if fh is None:
            text = io.StringIO()
            self.to_json(text)
            return text.getvalue()
        from . import __version__
        head = json.dumps({"version": __version__, "config": self.config.to_json_dict()},
                          indent=2)
        tail = json.dumps({"checks": [c.to_json_dict() for c in self.checks],
                           "abort": {"aborted": self.aborted, "step": self.abort_step}},
                          indent=2)
        # head ends in "\n}" and tail starts with "{\n": write the groups between
        fh.write(f'{head[:-2]},\n  "groups": [')
        tables, (before, after) = _group_tables(), _GROUP_JSON.split("%s")[0].split("%d")
        for start, stop in _spans(self.columns.shape[1]):
            columns = self.columns[:, start:stop]
            texts = [table[tuple(columns[rows])].tolist() for table, rows in tables]
            fh.write((",\n" if start else "\n") + ",\n".join(
                [f"{before}{n}{after}{a}{b}{c}{d}"
                 for n, a, b, c, d in zip(range(start + 1, stop + 1), *texts)]))
        fh.write(("\n  ]," if self.columns.shape[1] else "],") + f"\n{tail[2:]}\n")


# One group as json.dumps(indent=2) writes it, a field per column row in row
# order, the Bell index giving both the triple and its collection.
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
def _group_tables() -> tuple[tuple[np.ndarray, list[int]], ...]:
    """The text of a group after its prepared_label key, as four read-only
    tables of strings, each with the column rows that index it: (prepared,
    a_op) 9 by 9, (p_label, b_op) 9 by 9, the Bell index, which gives both
    the triple and its collection, 65, and (decoded by Alice, by Bob) 9 by
    9. An entry is its fields' JSON, the token or 3-bit string of a column
    entry (null at -1), each followed by the _GROUP_JSON text up to the
    next field."""
    values = (GhzLabel, CompositeOp, GhzLabel, CompositeOp, bell_triples(),
              map(CollectionLabel, swap_chart()[1].tolist()), _BITS, _BITS)
    texts = [np.array([*(json.dumps(getattr(v, "token", v)) for v in field), "null"], dtype=object)
             + after for field, after in zip(values, _GROUP_JSON.split("%s")[1:])]
    tables = (np.add.outer(texts[0], texts[1]), np.add.outer(texts[2], texts[3]),
              texts[4] + texts[5], np.add.outer(texts[6], texts[7]))
    for table in tables:
        table.setflags(write=False)
    return tuple(zip(tables, ([_PREPARED, _A_OP], [_P_LABEL, _B_OP], [_BELL],
                              [_BY_ALICE, _BY_BOB])))


def message_ops(bits: str, n_groups: int) -> np.ndarray:
    """The composite operation index of every group: its three message bits
    read as a binary number (message_to_op)."""
    digits = np.frombuffer(bits.encode(), dtype=np.uint8) - np.uint8(ord("0"))
    if len(bits) != 3 * n_groups or digits.size != len(bits) or (digits > 1).any():
        raise ValueError(f"need exactly {3 * n_groups} message bits of 0/1")
    return digits.reshape(-1, 3) @ _BIT_WEIGHTS


def _message_bits(ops: np.ndarray) -> str | None:
    """The messages of a decoded column of ops, concatenated; None where the
    column is empty or holds an op not decoded (-1)."""
    return None if not ops.size or ops.min() < 0 else _BIT_TEXT[ops].tobytes().decode()


def random_message_bits(n_groups: int, rng: Rng) -> str:
    """3 * n_groups message bits, one scalar draw each, joined from a list
    of the shared strings "0" and "1", so that no bit holds its own string."""
    return "".join(["01"[rng.randrange(2)] for _ in range(3 * n_groups)])


def _invert_announcements(announced) -> np.ndarray:
    """The read-only decoded[side, own op, announcement] of announced[a][b]:
    Bob's op as Alice (side 0) reads it along her row a, Alice's as Bob (side
    1) reads it down his column b. Raises unless each row and column is a permutation."""
    sides = np.stack([announced, np.transpose(announced)])  # [side, own op, other op]
    if (np.sort(sides, axis=2) != np.arange(len(CompositeOp))).any():
        raise AssertionError("an announcement repeats in a row or column; it cannot be decoded")
    decoded = np.argsort(sides, axis=2).astype(np.int8)
    decoded.setflags(write=False)
    return decoded


@lru_cache(maxsize=None)
def _decoded() -> np.ndarray:
    """The decode table of the announcement chart (_invert_announcements)."""
    return _invert_announcements(announcement_chart())


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

# Groups (twice as many triples), samples or decoys per block of draws, and
# groups per chunk of written transcript. Each block costs a fixed count of
# numpy calls (memo lookups, keyed draws, and sample_branches' one gather and
# one comparison a round), so larger blocks run faster, and cost memory: the
# swap's block buffers take about 105 bytes a group, 54 KB a block, and
# writing a transcript to a file about 0.32 MB at any N (tracemalloc). At
# 1024, a run of 1000 clean groups peaked 12-48 % higher than at 128.
_BLOCK = 512
# A table expands at most this many new pairs at once, which bounds what the
# swap holds: its joint states, their expansion and the table take up to
# 0.77 MB under an entangling attack on S_A at 1000 groups (tracemalloc). A
# clean session joins no pair, and its swap peaks at 0.09 MB.
_SWAP_CHUNK = 64
# Choices per transition (StateTable.move): the eight composite ops.
_CHOICES = 8

_BITS = tuple(f"{k:03b}" for k in range(8))  # the message of op k
_BIT_TEXT = np.frombuffer("".join(_BITS).encode(), dtype=np.uint8).reshape(len(_BITS), 3)
_BIT_WEIGHTS = np.array([4, 2, 1], dtype=np.uint8)


def _keys(amps: np.ndarray) -> list[bytes]:
    """The key of every row of the C-contiguous amps (rows, 2**n), computed
    in one pass: its float pairs times the sign of its first nonzero float,
    plus 0.0 so that -0.0 is 0.0, as bytes. x and -x get one key; x and
    i x do not."""
    flat = amps.view(np.float64)
    sign = np.sign(flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)])
    keyed = flat * sign[:, None] + 0.0
    return keyed.view(f"V{keyed.itemsize * keyed.shape[1]}").ravel().tolist()


@lru_cache(maxsize=None)
def _seed_ids() -> tuple[tuple[bytes, int], ...]:
    """(key, id) of the states every StateTable starts with (_keys)."""
    return tuple((key, i) for i, key in enumerate(_keys(ghz_rows()) + _keys(decoy_rows())))


class StateTable:
    """A session's distinct states, each an integer id, interned up to sign
    (_keys): the GHZ states are ids 0-7 in label order, the decoys 8-11 in
    DECOY_TOKENS order, and a state and its negative share an id. That
    moves no byte of a transcript. Under round-to-nearest, negating a row
    negates exactly what every row kernel makes of it (an op, an attack, a
    join, a collapse), and every Born table squares amplitudes, so x and -x
    get the same tables, and their moves lead to states that again differ
    only in sign. A phase of i is not folded: it swaps a row's real and
    imaginary floats, so the Born sums add the same terms in another order.
    Everything the session memoizes over its states is a dense int32 array
    per kind (lookup)."""

    def __init__(self):
        self.rows: list[np.ndarray] = [*ghz_rows(), *decoy_rows()]
        self.ids = dict(_seed_ids())
        self.memos: dict[object, np.ndarray] = {}  # by kind, (ids, width)

    def intern(self, amps: np.ndarray) -> np.ndarray:
        """The id of every row of amps, the rows of keys not met before added."""
        ids = [self.ids.setdefault(key, len(self.ids)) for key in _keys(amps)]
        for row, i in zip(amps, ids):
            if i == len(self.rows):  # the first row keyed to a new id
                self.rows.append(row)
        return np.array(ids, dtype=np.intp)

    def amps(self, ids: np.ndarray) -> np.ndarray:
        """The states of ids, one width, as the rows of one array."""
        return np.array([self.rows[i] for i in ids.tolist()])

    def lookup(self, kind, ids: np.ndarray, other, width: int, build) -> np.ndarray:
        """memos[kind][ids[i], other[i]] (or one other for all), each other
        below width, -1 in the memo where not yet known: build(states, src,
        other), states this table, gives the values of the missing distinct
        pairs, once per call."""
        memo = self.memos.get(kind)
        if memo is None or len(memo) < len(self.rows):
            grown = np.full((2 * len(self.rows), width), -1, dtype=np.int32)
            if memo is not None:
                grown[:len(memo)] = memo
            memo = self.memos[kind] = grown
        out = memo[ids, other]
        if out.min() < 0:
            codes = list(dict.fromkeys((ids * width + other)[out < 0].tolist()))
            del out  # off the heap while the misses are built
            src, picked = np.divmod(np.array(codes, dtype=np.intp), width)
            memo[src, picked] = build(self, src, picked)
            out = memo[ids, other]
        return out

    def move(self, kind, ids: np.ndarray, choices, kernel) -> np.ndarray:
        """The ids after transition kind, unit i taking choices[i] (or one for
        all) below _CHOICES; the row kernel(amps, choices) builds the misses."""
        return self.lookup(kind, ids, choices, _CHOICES, lambda states, src, picked:
                           states.intern(kernel(states.amps(src), picked)))


def _certain(tables: list[np.ndarray]) -> np.ndarray:
    """Per row of branch_thresholds tables, each round's outcome where every
    round on its path has one live outcome, which sample_branches takes for
    any draw, and -1 otherwise: a row with a single live entry (>= 0, the
    row end 1.0 where it is the only one) in its last table."""
    live = tables[-1].reshape(len(tables[-1]), -1) >= 0
    paths = (tables[-1].shape[-1],) * len(tables)
    fixed = np.array(np.unravel_index(live.argmax(axis=1), paths)).T
    fixed[live.sum(axis=1) != 1] = -1
    return fixed


def _seeded(thresholds: Sequence[np.ndarray], width: int):
    """A Branches seed of branch_thresholds tables, an entry per pair (i, k)
    of the states i that every StateTable starts with, k below width:
    (thresholds, their _certain outcomes, memo), read-only, the memo
    mapping (i, k) to entry width * i + k."""
    fixed = _certain(thresholds)
    memo = np.arange(len(fixed), dtype=np.int32).reshape(-1, width)
    for table in (*thresholds, fixed, memo):
        table.setflags(write=False)
    return tuple(thresholds), fixed, memo


@lru_cache(maxsize=None)
def _swap_seed():
    """The swap's seed: the 64 pairs of GHZ states, entry 8 g1 + g2 the pair
    (g1, g2) (swap.ghz_swap_tables)."""
    return _seeded(ghz_swap_tables(), len(GhzLabel))


@lru_cache(maxsize=None)
def _seed_tables(bases: tuple[MeasBasis, ...], rounds: tuple[tuple[int, ...], ...]):
    """The seed of Branches.measuring(bases, rounds) (_seeded): the GHZ
    states measured in every basis, and the decoys too where the measurement
    is of qubit 0 alone, a decoy's only qubit. Each width's pairs are built
    by one branch_rows call, as a session builds its misses (Branches
    tables), so each entry is bit for bit the one a session would build,
    the kernels treating each row alone."""
    parts = []
    for rows in (ghz_rows(), decoy_rows())[:2 if rounds == ((0,),) else 1]:
        ids, k = np.divmod(np.arange(len(rows) * len(bases)), len(bases))
        parts.append(qcore.branch_thresholds(qcore.branch_rows(rows[ids], bases, rounds, which=k)))
    return _seeded([np.concatenate(tables) for tables in zip(*parts)], len(bases))


class Branches:
    """The Born tables of one measurement as branch_thresholds, an entry per
    distinct pair (id, k), k below width, that its memo (StateTable.lookup,
    kind the Branches itself) maps to the entry. tables(states, ids, k) are
    the pairs' branch_rows tables, built _SWAP_CHUNK pairs at a time. The
    first lookup starts the tables and the memo from seed(), the read-only
    entries of states that every StateTable starts with (_seeded), derived
    once per process by the same tables function."""

    def __init__(self, width: int, tables, seed):
        self.width, self.tables, self.seed = width, tables, seed
        # set from seed() by the first lookup
        self.thresholds: Sequence[np.ndarray]  # per round, (entries, d**k, d)
        self.fixed: np.ndarray  # per entry, _certain

    @classmethod
    def measuring(cls, bases, rounds) -> Branches:
        """The tables of each state measured in bases[k] (branch_rows),
        seeded by _seed_tables."""
        return cls(len(bases), lambda states, ids, k: qcore.branch_rows(
            states.amps(ids), bases, rounds, which=k), lambda: _seed_tables(bases, rounds))

    @classmethod
    def swapping(cls) -> Branches:
        """The swap's tables of each pair (odd id, even id), the even triple
        a GHZ state, so its id is its label (Session.bob_encode): the
        swap.bell_tables of the pair, seeded by _swap_seed, whose tables
        are built by the same function."""
        return cls(len(GhzLabel), lambda states, odd, even: bell_tables(
            states.amps(odd), states.amps(even)), _swap_seed)

    def _append(self, states: StateTable, ids: np.ndarray, other: np.ndarray) -> np.ndarray:
        """The entries of new pairs, their tables appended."""
        for start in range(0, len(ids), _SWAP_CHUNK):
            part = slice(start, start + _SWAP_CHUNK)
            new = qcore.branch_thresholds(self.tables(states, ids[part], other[part]))
            self.thresholds = [np.concatenate(pair) for pair in zip(self.thresholds, new)]
            self.fixed = np.concatenate([self.fixed, _certain(new)])
        return np.arange(len(self.fixed) - len(ids), len(self.fixed))

    def lookup(self, states: StateTable, ids: np.ndarray, other) -> np.ndarray:
        """The entry of every pair (ids[i], other[i]), or (ids[i], other)."""
        if self not in states.memos:
            self.thresholds, self.fixed, memo = self.seed()
            states.memos[self] = memo.copy()
        return states.lookup(self, ids, other, self.width, self._append)

    def sample(self, states: StateTable, ids: np.ndarray, other, lanes) -> list[np.ndarray]:
        """Each round's outcome index for every pair, as measure_rows draws
        it, from the units' streams that lanes() keys; neither keyed nor
        drawn when every outcome is certain (_certain)."""
        entries = self.lookup(states, ids, other)
        fixed = self.fixed.take(entries, axis=0)
        if fixed.min() >= 0:
            return list(fixed.T)
        return qcore.sample_branches(self.thresholds, entries,
                                     lanes().random(len(self.thresholds)))


def _spans(count: int):
    """(start, stop) of count units in consecutive blocks of at most _BLOCK."""
    return ((start, min(start + _BLOCK, count)) for start in range(0, count, _BLOCK))


def _encode(amps: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Composite op ops[i] on the first and second particle of row i."""
    return apply_op(amps, [(0, FIRST_FACTORS[ops]), (1, SECOND_FACTORS[ops])])


class Session:
    """Single-threaded deterministic run of the seven protocol steps; the
    step methods drive or inspect intermediate states. triples holds the
    ids of each group's odd and even triple. A check draws, attacks and
    measures its own samples or decoys a block at a time (_checked_units),
    so none is held between steps. The swap, the last step that reads the
    states, releases the ids and every table."""

    def __init__(self, cfg: SessionConfig, alice_bits: str, bob_bits: str):
        self.cfg = cfg
        self.alice_ops = message_ops(alice_bits, cfg.n_groups)
        self.bob_ops = message_ops(bob_bits, cfg.n_groups)
        self.transcript = SessionTranscript(config=cfg)
        self.triples: np.ndarray | None = None  # (n_groups, 2) ids, set by prepare
        self.states = StateTable()
        # op k moves GHZ state p to plus or minus GHZ state transform_chart()[p, k]
        # (the ops hold 0 and +-1 only), whose id is that label
        self.states.memos["op"] = transform_chart().astype(np.int32)
        # Born tables: Eve's measurement of each qubit (eve[0] the decoy check's
        # too), the sample check, Bob's identification, each seeded on its
        # first lookup
        self.eve = [Branches.measuring(CHECK_BASES, ((role,),)) for role in range(3)]
        self.samples = Branches.measuring(CHECK_BASES, ((2,), (0,), (1,)))  # C, then A, then B
        self.identify = Branches.measuring((MeasBasis.GHZ,), ((0, 1, 2),))
        self.swap = Branches.swapping()
        self._streams = StreamBlock(cfg.seed, 2 * _BLOCK)  # a block of triples

    def _key(self, place: int, start: int, stop: int) -> StreamBlock:
        """The session's lanes, lane j keyed to the stream
        Rng(seed, place << _UNIT_BITS | start + j) of unit start + j < stop."""
        self._streams.key(place << _UNIT_BITS | start, stop - start)
        return self._streams

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
        """Eve's pass over the named sequence's qubit of every triple, a block
        of groups at a time: group n's triples are units 2n and 2n + 1."""
        attack = self.cfg.attack
        if attack is None or attack.target != name:
            return
        for start, stop in _spans(self.cfg.n_groups):
            block = self.triples[start:stop]
            block[:] = self._attack(block.reshape(-1), _ROLES[name], _EVE_TRIPLES[name],
                                    2 * start).reshape(block.shape)

    def _attack(self, ids: np.ndarray, role: int, place: int, start: int) -> np.ndarray:
        """The ids after Eve's pass over qubit role of the units start, ...,
        each drawing her choice from its stream at place (attack_choices)."""
        attack, stop = self.cfg.attack, start + len(ids)

        choices = attack_choices(attack, lambda: self._key(place, start, stop),
                                 lambda basis, lanes: self.eve[role].sample(
                                     self.states, ids, basis, lanes)[0])
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
        errors = 0
        for labels, ids, lanes in self._checked_units("S_C", len(GhzLabel), 0, _ROLES["S_C"]):
            rng = lanes()
            which = rng.randrange(len(CHECK_BASES))
            c, a, b = self.samples.sample(self.states, ids, which, lambda: rng)
            errors += int(np.count_nonzero(sample_errors()[labels, which, 4 * a + 2 * b + c]))
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
        state; an outcome other than that state is an error. The check
        bases are Eve's, so the check reads her table of qubit 0."""
        errors = 0
        for kinds, ids, lanes in self._checked_units(name, len(DECOY_TOKENS), len(GhzLabel), 0):
            (out,) = self.eve[0].sample(self.states, ids, DECOY_BASIS[kinds], lanes)
            errors += int(np.count_nonzero(DECOY_ERRORS[kinds, out]))
        return self._record_check(step, errors)

    def bob_encode(self) -> None:
        """Step 6: identify each group's prepared state from the even
        triple, rebuild it fresh, and encode Bob's bits on it."""
        columns, even = self.transcript.columns, self.triples[:, 1]
        for start, stop in _spans(self.cfg.n_groups):
            (found,) = self.identify.sample(self.states, even[start:stop], 0,
                                            lambda: self._key(_BOB_GHZ, start, stop))
            columns[_P_LABEL, start:stop] = found
        # the fresh triple is never sent, so Bob's op only relabels it
        # (transform_chart), its sign unseen by any measurement
        even[:] = transform_chart()[columns[_P_LABEL], self.bob_ops]
        columns[_B_OP] = self.bob_ops

    def swap_and_announce(self) -> None:
        """Step 7: Bell-measure the three cross pairs of each group and
        announce the outcome collection over the (ideal) classical channel."""
        states, swap, (odd, even) = self.states, self.swap, self.triples.T
        # one lookup over the session builds its new pairs _SWAP_CHUNK at a
        # time across blocks; the blocks then only read the memo
        swap.lookup(states, odd, even)
        for start, stop in _spans(len(odd)):
            a, b, c = swap.sample(states, odd[start:stop], even[start:stop],
                                  lambda: self._key(_SWAP, start, stop))
            self.transcript.columns[_BELL, start:stop] = 16 * a + 4 * b + c
        # no later step draws or reads the states, and the ops are in the columns
        self.triples = self.states = self._streams = self.alice_ops = self.bob_ops = None
        self.eve = self.samples = self.identify = self.swap = None

    def decode(self) -> None:
        """Each side reads the other's operation off the announcement and its
        own operation (_decoded); neither needs the prepared state."""
        alice, bob = _decoded()
        columns = self.transcript.columns
        announced = swap_chart()[1][columns[_BELL]]
        columns[_BY_ALICE] = alice[columns[_A_OP], announced]
        columns[_BY_BOB] = bob[columns[_B_OP], announced]
        # an entry no step has set (-1) would index triple 63's collection or
        # op 7, so a side decodes to -1 where the announcement or its op is unset
        unswapped = columns[_BELL] < 0
        columns[_BY_ALICE, unswapped | (columns[_A_OP] < 0)] = -1
        columns[_BY_BOB, unswapped | (columns[_B_OP] < 0)] = -1

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
