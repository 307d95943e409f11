"""Dense state-vector engine for few-qubit protocol simulation.

A state is a row of complex amplitudes indexed by bitstring, qubit 0 the
most significant, so kets transcribe left to right, and an operation is a
read-only matrix. Every kernel is a pure function on the states of many
registers of one layout, stacked as the rows of one (rows, 2**n) array,
with every check and guard applied to each row; randomness enters only
through explicit draws. _check_rows checks rows entering the engine.
Unitaries and normalized projections keep the norm by construction, so
their results stand on two cheap guards, which fail on NaN too:
apply_unitary_rows checks the norm of its result, and a measurement checks
that each round's probabilities total 1. Grouping k qubits is a gather plan
computed once per (n, qubits), and every basis vector is real, so a
measurement projects onto all of them in one real matmul.

branch_rows is the one Born expansion: it gathers several rounds of
disjoint qubits once, each round projects the normalized remainders the
round before it left, and it follows every outcome, so its tables hold the
probability of every outcome on every path. Every Born table reads it.
sample_branches is the one sampler: it walks those tables in their
branch_thresholds form, running totals with each row closed at 1.0, so a
draw in [0, 1) always lands below an entry, and a round is one gather of
rows and one comparison with the draws. collapse_rows is the one collapse,
the same pass along given outcomes, expanded once at the end.
measure_rows is the three in turn. StateVector and the functions on
one (tensor, apply_single, apply_unitary, measure) are their one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Hashable, Iterable, Sequence

import numpy as np

from .labels import BellLabel, GhzLabel, bell_amplitudes, ghz_amplitudes

# Tolerances: ATOL for algebraic identities (norms, unitarity, state
# equality), ZERO_TOL below which a probability counts as exactly zero.
ATOL = 1e-9
ZERO_TOL = 1e-12

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer; a bijection on 64-bit integers."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Rng:
    """Counter-based keyed random stream (SplitMix64): draw i of the stream
    keyed by (seed, stream) is a pure function of (seed, stream, i), so
    equal keys replay equal sequences and distinct streams are independent.
    """

    __slots__ = ("seed", "stream", "_state")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        self._state = _mix64(_mix64(self.seed) + self.stream)

    def u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.u64() >> 11) * 2.0 ** -53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.u64() % n


_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64_inplace(x: np.ndarray, tmp: np.ndarray) -> None:
    """_mix64 on every element of the uint64 array x, using tmp as scratch;
    numpy's uint64 arithmetic wraps modulo 2**64 as the masks do."""
    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= _MIX1
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= _MIX2
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp


class StreamBlock:
    """The keyed streams (seed, start), ..., (seed, start + n - 1) drawn side
    by side in numpy uint64 buffers of `size` lanes, reused block after block.
    Lane j of draw(i) equals draw i (0-based) of Rng(seed, start + j): a
    stream's state after i + 1 draws is its key plus (i + 1) golden-ratio
    increments. u64 and randrange take the lanes' next draw, as the Rng
    methods of the same names do for one stream; random(k) the next k.
    """

    __slots__ = ("size", "n", "drawn", "_base", "_lanes", "_keys", "_out", "_tmp")

    def __init__(self, seed: int, size: int):
        self.size = size
        self.n = 0
        self.drawn = 0
        self._base = _mix64(seed & _MASK64)
        self._lanes = np.arange(size, dtype=np.uint64)
        self._keys = np.empty(size, dtype=np.uint64)
        self._out = np.empty(size, dtype=np.uint64)
        self._tmp = np.empty(size, dtype=np.uint64)

    def key(self, start: int, n: int) -> None:
        """Key the n <= size lanes to the streams start, ..., start + n - 1
        (each masked to 64 bits, as Rng masks its stream), none drawn yet."""
        if not 0 < n <= self.size:
            raise ValueError(f"a block holds 1 to {self.size} streams, got {n}")
        self.n = n
        self.drawn = 0
        keys = self._keys[:n]
        np.add(self._lanes[:n], np.uint64((self._base + start) & _MASK64), out=keys)
        _mix64_inplace(keys, self._tmp[:n])

    def draw(self, i: int) -> np.ndarray:
        """Draw i of every keyed lane, as a view the next draw overwrites."""
        out = self._out[:self.n]
        np.add(self._keys[:self.n], np.uint64((i + 1) * _GOLDEN & _MASK64), out=out)
        _mix64_inplace(out, self._tmp[:self.n])
        return out

    def u64(self) -> np.ndarray:
        """The next draw of every lane, as a view the next draw overwrites."""
        self.drawn += 1
        return self.draw(self.drawn - 1)

    def random(self, k: int) -> np.ndarray:
        """Rng.random of every lane's next k draws, (u >> 11) * 2**-53 exact
        in float64, as the rows of a (k, n) array."""
        steps = [(self.drawn + d) * _GOLDEN & _MASK64 for d in range(1, k + 1)]
        self.drawn += k
        u = self._keys[:self.n] + np.array(steps, dtype=np.uint64)[:, None]
        _mix64_inplace(u, np.empty_like(u))
        u >>= np.uint64(11)
        return u * 2.0 ** -53

    def randrange(self, n: int) -> np.ndarray:
        """Rng.randrange(n) of every lane: u % n, as indices."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return (self.u64() % np.uint64(n)).astype(np.intp)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitude vector over n qubits (length 2**n)."""

    amps: np.ndarray

    def __post_init__(self):
        a = _as_row(np.array(self.amps, dtype=np.complex128))
        _check_rows(a[None])
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def num_qubits(self) -> int:
        return self.amps.size.bit_length() - 1


def _as_row(amps) -> np.ndarray:
    """amps as a complex128 amplitude row, not copied when it is one
    already; raises ValueError unless it is one-dimensional with a length
    that is a power of two >= 2."""
    a = np.asarray(amps, dtype=np.complex128)
    if a.ndim != 1 or a.size < 2 or a.size & (a.size - 1):
        raise ValueError("amplitude vector length must be a power of two >= 2")
    return a


_NORM2_LO, _NORM2_HI = (1.0 - ATOL) ** 2, (1.0 + ATOL) ** 2


def _require_unit_norms(norm2: np.ndarray, what: str) -> None:
    """Raise unless every norm sqrt(norm2[i]) lies within ATOL of 1; NaN
    fails the comparisons and raises too."""
    if not (_NORM2_LO <= norm2.min() and norm2.max() <= _NORM2_HI):
        err = np.abs(np.sqrt(norm2) - 1.0)
        row = int(np.flatnonzero(~(err <= ATOL))[0])
        raise ValueError(f"{what} not normalized: |norm - 1| = {err[row]:.3e}"
                         + (f" in row {row}" if err.size > 1 else ""))


def _check_rows(amps: np.ndarray) -> None:
    """Raise unless every row of the C-contiguous amps (rows, 2**n) is
    finite, then unless each is normalized, as a state entering the engine
    must be."""
    flat = amps.view(np.float64)
    norm2 = (flat * flat).sum(axis=1)
    # one pass for both checks: a row's squared norm is finite exactly when
    # every amplitude is, since it sums their nonnegative squares
    if not np.isfinite(norm2).all() and not np.isfinite(flat).all():
        raise ValueError("amplitudes must be finite")
    _require_unit_norms(norm2, "state")


# The single-particle operations, read-only 2x2 matrices: views of one
# read-only array. i*sigma_y maps |0> to -|1> and |1> to |0>; real-valued
# like the other three.
_SINGLE = np.array([[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]]],
                   dtype=np.complex128)
_SINGLE.setflags(write=False)
I, SZ, SX, ISY = _SINGLE


class MeasBasis(Enum):
    """Projective measurement basis: single-qubit Z or X, two-qubit Bell,
    or three-qubit GHZ."""

    Z = "Z"
    X = "X"
    BELL = "BELL"
    GHZ = "GHZ"

    @property
    def arity(self) -> int:
        return {"Z": 1, "X": 1, "BELL": 2, "GHZ": 3}[self.value]


@lru_cache(maxsize=None)
def basis_outcomes(basis: MeasBasis) -> tuple[tuple[Hashable, np.ndarray], ...]:
    """Ordered (label, unit vector) pairs spanning the measured subsystem."""
    inv = 2.0 ** -0.5
    if basis is MeasBasis.Z:
        pairs = [(0, np.array([1, 0], complex)), (1, np.array([0, 1], complex))]
    elif basis is MeasBasis.X:
        pairs = [("+", np.array([inv, inv], complex)), ("-", np.array([inv, -inv], complex))]
    elif basis is MeasBasis.BELL:
        pairs = [(lab, bell_amplitudes(lab)) for lab in BellLabel]
    else:
        pairs = [(lab, ghz_amplitudes(lab)) for lab in GhzLabel]
    for _, vec in pairs:
        vec.setflags(write=False)
    return tuple(pairs)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product with a's qubits first (most significant)."""
    return StateVector((a.amps[:, None] * b.amps).reshape(-1))


def tensor_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tensor on every row: row i of the result is a[i] (x) b[i], with b
    one row for all rows or one per row. Each row is checked as a state
    entering the engine (_check_rows)."""
    out = (a[:, :, None] * b[..., None, :]).reshape(len(a), -1)
    _check_rows(out)
    return out


def apply_single(s: StateVector, matrix: np.ndarray, q: int) -> StateVector:
    """Apply a single-qubit unitary at qubit index q."""
    return apply_unitary(s, matrix, (q,))


def apply_unitary(s: StateVector, matrix: np.ndarray, qubits: Sequence[int]) -> StateVector:
    """Apply a k-qubit unitary to the given (distinct) qubit indices.

    Raises ValueError when the result is not normalized (the matrix is not
    unitary on this state) or not finite.
    """
    return StateVector(apply_unitary_rows(s.amps[None], matrix, qubits)[0])


def apply_unitary_rows(amps: np.ndarray, matrix: np.ndarray,
                       qubits: Sequence[int]) -> np.ndarray:
    """apply_unitary on every row of amps (rows, 2**n): one (2**k, 2**k)
    matrix for all rows, or one per row stacked (rows, 2**k, 2**k).

    Returns a fresh array; raises ValueError when any row of it is not
    normalized or not finite.
    """
    qs = tuple(qubits)
    rows, size = amps.shape
    idx, inverse = _plan(size.bit_length() - 1, qs)
    out = (np.asarray(matrix, dtype=np.complex128)
           @ amps.take(idx, axis=1).reshape(rows, 1 << len(qs), -1)
           ).reshape(rows, -1).take(inverse, axis=1)
    flat = out.view(np.float64)
    _require_unit_norms((flat * flat).sum(axis=1), "apply_unitary result")
    return out


def apply_op(amps: np.ndarray, ops: Sequence[tuple[int, np.ndarray]]) -> np.ndarray:
    """Apply single-qubit unitaries in order: each (qubit, matrices) puts
    matrices[i] on that qubit of row i."""
    for qubit, matrices in ops:
        amps = apply_unitary_rows(amps, matrices, (qubit,))
    return amps


@lru_cache(maxsize=None)
def _plan(n: int, qubits: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Gather plans that bring the given qubits of an n-qubit state to the
    front and back: amps[..., plan].reshape(2**k, -1) has a row per bit
    pattern of the qubits (qubits[0] most significant) and a column per
    pattern of the others; mat.reshape(-1)[..., inverse] undoes it."""
    qs = list(qubits)
    if len(set(qs)) != len(qs):
        raise ValueError("qubit indices must be distinct")
    if any(not 0 <= q < n for q in qs):
        raise IndexError(f"qubit indices {qs} out of range for {n} qubits")
    perm = qs + [i for i in range(n) if i not in qs]
    idx = np.arange(1 << n).reshape((2,) * n).transpose(perm).reshape(-1)
    inverse = np.argsort(idx)
    idx.setflags(write=False)
    inverse.setflags(write=False)
    return idx, inverse


@lru_cache(maxsize=None)
def _basis_matrices(basis: MeasBasis) -> tuple[tuple, np.ndarray]:
    """(labels, vecs) of a basis, in basis order: vecs holds the basis
    vectors as float rows (every basis vector here is real)."""
    labels, kets = zip(*basis_outcomes(basis))
    kets = np.array(kets)
    if np.any(kets.imag):
        raise AssertionError(f"{basis.value} basis vectors are not real")
    vecs = kets.real.copy()
    vecs.setflags(write=False)
    return labels, vecs


@lru_cache(maxsize=None)
def _stacked_matrices(bases: tuple[MeasBasis, ...]) -> np.ndarray:
    """The vecs of several bases of one arity, stacked (bases, 2**k, 2**k);
    np.stack raises ValueError on bases of two arities."""
    vecs = np.stack([_basis_matrices(basis)[1] for basis in bases])
    vecs.setflags(write=False)
    return vecs


def basis_labels(basis: MeasBasis) -> tuple:
    """The outcome labels of a basis in basis order: outcome index j of
    measure_rows is the label basis_labels(basis)[j]."""
    return _basis_matrices(basis)[0]


def _gather_rounds(amps: np.ndarray, outcomes: int,
                   rounds: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of amps (rows, 2**n) with every round's qubits brought to
    the front, round by round, as float64 pairs (real, imaginary), and the
    plan that puts them back; raises ValueError when a round is not the
    size a basis of that many outcomes measures, or two rounds share a
    qubit (_plan)."""
    for qs in rounds:
        if 1 << len(qs) != outcomes:
            raise ValueError(f"the basis measures {outcomes.bit_length() - 1} qubits, "
                             f"got {len(qs)}")
    idx, inverse = _plan(amps.shape[1].bit_length() - 1, sum(map(tuple, rounds), ()))
    return amps.take(idx, axis=1).view(np.float64), inverse


def _project(vecs: np.ndarray, rem: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(projs, probs) of the float-pair rows rem, whose leading qubits the
    basis vecs (one for all rows, or one per row) measures: projs[i, j] the
    unnormalized remainder of outcome j in row i, probs[i, j] its weight."""
    projs = vecs @ rem.reshape(len(rem), vecs.shape[-1], -1)
    return projs, (projs * projs).sum(axis=2)


def _remainder(projs: np.ndarray, probs: np.ndarray, src: np.ndarray,
               j: np.ndarray) -> np.ndarray:
    """The normalized remainder of row src[i] in outcome j[i], as complex
    rows, divided in place (collapse_rows and branch_rows share it)."""
    rem = projs[src, j].view(np.complex128)
    rem /= np.sqrt(probs[src, j])[:, None]
    return rem


def born_distribution(amps: np.ndarray, basis: MeasBasis, qubits: Sequence[int]) -> dict:
    """Exact outcome probabilities of a projective measurement of the
    amplitude row amps, over every basis label: the one-round table of
    branch_rows; raises ValueError as _as_row and branch_rows do."""
    (table,) = branch_rows(_as_row(amps)[None], basis, [qubits])
    return dict(zip(basis_labels(basis), table[0, 0].tolist()))


def measure(s: StateVector, basis: MeasBasis, qubits: Sequence[int], rng: Rng):
    """Sample one outcome by the Born rule and collapse: (outcome label,
    collapsed StateVector). Raises ValueError when the outcome probabilities
    do not total 1.
    """
    (j,), post = measure_rows(s.amps[None], basis, [qubits], [np.array([rng.random()])])
    return basis_labels(basis)[j[0]], StateVector(post[0])


def measure_rows(amps: np.ndarray, basis: MeasBasis, rounds: Sequence[Sequence[int]],
                 draws: Sequence[np.ndarray]):
    """measure on every row of amps (rows, 2**n), for each round of qubits
    in turn, row i drawing with the uniform draws[k][i] in [0, 1) in round
    k. The rounds are disjoint, and each measures as many qubits as the
    basis does.

    Returns (js, post): js[k][i] the index of row i's outcome in round k,
    in basis order (basis_labels), post the collapsed rows as a fresh
    array. Raises ValueError when two rounds share a qubit, a round's size
    is not the basis's arity, any row's outcome probabilities in any round
    do not total 1, or the draws are not one per round.
    """
    thresholds = branch_thresholds(branch_rows(amps, basis, rounds))
    js = sample_branches(thresholds, np.arange(len(amps)), draws)
    return js, collapse_rows(amps, basis, rounds, js)


def collapse_rows(amps: np.ndarray, basis: MeasBasis | Sequence[MeasBasis],
                  rounds: Sequence[Sequence[int]], js: Sequence[np.ndarray],
                  which: np.ndarray | None = None) -> np.ndarray:
    """The rows of amps collapsed when row i takes outcome js[k][i], of
    probability above ZERO_TOL, in round k (basis and which as in
    branch_rows): each round projects the normalized remainder the round
    before it left, and the state is expanded once, at the end. Raises
    ValueError as branch_rows does, on the path taken."""
    vecs = _basis_matrices(basis)[1] if which is None else _stacked_matrices(tuple(basis))[which]
    rem, inverse = _gather_rounds(amps, vecs.shape[-1], rounds)
    rows = np.arange(len(amps))
    for j in js:
        projs, probs = _project(vecs, rem)
        _require_unit_norms(probs.sum(axis=1), "measured state")
        rem = _remainder(projs, probs, rows, j).view(np.float64)
    # the collapsed state, vecs[j_1] (x) ... (x) the last remainder, as
    # float pairs: real basis vectors scale both parts of an amplitude alike
    for j in reversed(js):
        vec = vecs[j] if which is None else vecs[rows, j]
        rem = (vec[:, :, None] * rem[:, None, :]).reshape(len(rem), -1)
    return rem.view(np.complex128).take(inverse, axis=1)


def branch_rows(amps: np.ndarray, basis: MeasBasis | Sequence[MeasBasis],
                rounds: Sequence[Sequence[int]],
                which: np.ndarray | None = None) -> list[np.ndarray]:
    """The Born tree of measuring the rounds of qubits in turn, for every
    row of amps (rows, 2**n): every outcome of every round on every path.
    basis is one MeasBasis for all rows or, with which, a sequence of bases
    of one arity: row i is measured in basis[which[i]].

    Returns one array per round: tables[k][i, p, j] the probability of
    outcome j in round k of row i after outcomes j_0, ..., j_(k-1) before
    it, p = j_0 d**(k-1) + ... + j_(k-1) with d outcomes per round. A
    branch at or below ZERO_TOL is never taken or divided: the entries below
    it are 0. Raises ValueError when two rounds share a qubit, a round's
    size is not the basis's arity, or the outcome probabilities of a live
    branch do not total 1.
    """
    vecs = _basis_matrices(basis)[1] if which is None else _stacked_matrices(tuple(basis))[which]
    outcomes = vecs.shape[-1]
    rem, _ = _gather_rounds(amps, outcomes, rounds)
    # live[b]: the index i * d**k + p of live branch b, one per row of rem
    live = np.arange(len(amps))
    tables = []
    for k in range(len(rounds)):
        projs, probs = _project(vecs, rem)
        del rem  # off the heap before the next round's remainders are built
        _require_unit_norms(probs.sum(axis=1), "measured state")
        table = np.zeros((len(amps) * outcomes ** k, outcomes))
        table[live] = probs
        tables.append(table.reshape(len(amps), -1, outcomes))
        if k + 1 < len(rounds):
            src, j = np.nonzero(probs > ZERO_TOL)
            rem = _remainder(projs, probs, src, j).view(np.float64)
            live = live[src] * outcomes + j
            if which is not None:
                vecs = vecs[src]
    return tables


def branch_thresholds(tables: Sequence[np.ndarray]) -> list[np.ndarray]:
    """branch_rows' tables as sample_branches walks them. An entry whose
    probability is above ZERO_TOL (live) holds the running total of its row
    up to it, summed left to right, but a row's last live entry holds 1.0,
    the row's end. Every other entry is -1, so a row with no live entry, a
    path through a dead branch, is -1 throughout. A draw r in [0, 1) is
    below the row end, so the first entry above r is the first running
    total above r or, where rounding left the total at or below r, the last
    live outcome, which exact arithmetic would take."""
    out = []
    for table in tables:
        live = table > ZERO_TOL
        closed = np.where(live, table.cumsum(axis=-1), -1.0)
        # a row's last live entry is the one live entry counted from its end
        closed[live & (live[..., ::-1].cumsum(axis=-1)[..., ::-1] == 1)] = 1.0
        out.append(closed)
    return out


def sample_branches(thresholds: Sequence[np.ndarray], rows: np.ndarray,
                    draws: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Walk branch_rows' tables in their branch_thresholds form: sample i
    follows row rows[i] of the tables, drawing with draws[k][i] in round k
    and taking the first outcome whose entry is above the draw. Round k
    reads the table as (entries * d**k, d), sample i's row at the flat
    index rows[i] d**k + p of its path p so far. Returns each round's
    outcome indices; raises ValueError unless there is one draw per
    round."""
    if len(draws) != len(thresholds):
        raise ValueError(f"{len(thresholds)} rounds need as many draws, got {len(draws)}")
    flat = np.asarray(rows)
    js = []
    for table, r in zip(thresholds, draws):
        d = table.shape[-1]
        js.append((r[:, None] < table.reshape(-1, d).take(flat, axis=0)).argmax(axis=1))
        flat = flat * d + js[-1]
    return js


def joint_distribution(amps: np.ndarray, basis: MeasBasis,
                       groups: Iterable[Sequence[int]]) -> dict[tuple, float]:
    """Joint distribution of the same-basis measurement of several disjoint
    qubit groups of the amplitude row amps: a path's probability is the
    product of its rounds' entries in the branch_rows tables of amps; raises
    ValueError as _as_row and branch_rows do. Keys are outcome tuples in group order, lexicographic
    in basis order, exactly the support.
    """
    tables = branch_rows(_as_row(amps)[None], basis, list(groups))
    labels = basis_labels(basis)
    outs, weights, path = [()], np.ones(1), np.zeros(1, dtype=np.intp)
    for table in tables:
        probs = table[0, path]
        src, js = np.nonzero(probs > ZERO_TOL)
        outs = [outs[b] + (labels[j],) for b, j in zip(src.tolist(), js.tolist())]
        weights = weights[src] * probs[src, js]
        path = path[src] * len(labels) + js
    return dict(zip(outs, weights.tolist()))
