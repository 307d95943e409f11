"""Dense state-vector engine for few-qubit protocol simulation.

A state is an immutable vector of complex amplitudes indexed by bitstring,
with qubit 0 in the leftmost (most significant) position so kets transcribe
left to right. All operations are pure functions of their inputs; sampling
randomness enters only through an explicit Rng argument, never through
ambient state.

A state is validated where it enters the engine: StateVector(...) copies
its amplitudes and checks their length, finiteness and norm, and tensor,
which builds the widest states, goes through it. The results of
apply_unitary and of the measurement collapses skip that copy and those
checks, because a unitary and a normalized projection keep the norm by
construction. Two cheap guards, which fail on NaN as well, stand in for
them: apply_unitary checks the norm of its result, which catches a matrix
that is not unitary on the state, and measure checks that the outcome
probabilities of each round, which sum to the squared norm of what it
measures, total 1.

Every kernel works on rows: the *_rows functions take the states of many
registers of one layout stacked as the rows of one (rows, 2**n) array and
run one numpy pass over all of them, with every check and guard applied
to each row (tensor_rows checks each row as StateVector(...) does). The
one-state functions are the one-row case of the same code. The index work
of grouping k qubits is computed once per (n, qubits) as a gather plan.
Every basis vector is real, so a measurement projects onto all of them in
one real matmul on the float64 view of the amplitudes. measure_rows takes
several rounds of disjoint qubits in one pass: it gathers them once, each
round projects the normalized remainder the round before it left, and the
collapsed state is expanded once, at the end, and only when it is kept.
"""

from __future__ import annotations

import math
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
    """Counter-based keyed random stream (SplitMix64).

    Draw i of the stream keyed by (seed, stream) is a pure function of
    (seed, stream, i): two instances with the same key replay identical
    sequences, and distinct stream ids give independent sequences, so
    parallel Monte Carlo trials can each take stream = trial index.
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
    increments, so any draw of any stream is computed without the ones
    before it. u64, random and randrange take the lanes' next draw, as the
    Rng methods of the same names do for one stream.
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

    def random(self) -> np.ndarray:
        """Rng.random of every lane: (u >> 11) * 2**-53, exact in float64."""
        u = self.u64()
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
        a = np.array(self.amps, dtype=np.complex128)
        if a.ndim != 1 or a.size < 2 or a.size & (a.size - 1):
            raise ValueError("amplitude vector length must be a power of two >= 2")
        # one pass for both checks: the squared norm is finite exactly when
        # every amplitude is, since it sums their nonnegative squares
        norm2 = np.vdot(a, a).real
        if not math.isfinite(norm2) and not np.isfinite(a.view(np.float64)).all():
            raise ValueError("amplitudes must be finite")
        norm = math.sqrt(norm2)
        if not abs(norm - 1.0) <= ATOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def num_qubits(self) -> int:
        return self.amps.size.bit_length() - 1


def _unchecked_state(amps: np.ndarray) -> StateVector:
    """A StateVector around a read-only complex128 vector, without the copy
    and checks of StateVector(...): only for the rows of rows_as_states."""
    s = object.__new__(StateVector)
    object.__setattr__(s, "amps", amps)
    return s


_NORM2_LO, _NORM2_HI = (1.0 - ATOL) ** 2, (1.0 + ATOL) ** 2


def _require_unit_norms(norm2: np.ndarray, what: str) -> None:
    """Raise unless every norm sqrt(norm2[i]) lies within ATOL of 1, as
    StateVector requires; NaN fails the comparisons and raises too."""
    if not (_NORM2_LO <= norm2.min() and norm2.max() <= _NORM2_HI):
        err = np.abs(np.sqrt(norm2) - 1.0)
        row = int(np.flatnonzero(~(err <= ATOL))[0])
        raise ValueError(f"{what} not normalized: |norm - 1| = {err[row]:.3e}"
                         + (f" in row {row}" if err.size > 1 else ""))


@dataclass(frozen=True, eq=False)
class SingleQubitOp:
    """Named 2x2 unitary acting on a single particle."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


I = SingleQubitOp("I", [[1, 0], [0, 1]])
SZ = SingleQubitOp("SZ", [[1, 0], [0, -1]])
SX = SingleQubitOp("SX", [[0, 1], [1, 0]])
# i*sigma_y maps |0> to -|1> and |1> to |0>; real-valued like the other three.
ISY = SingleQubitOp("ISY", [[0, 1], [-1, 0]])


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


@lru_cache(maxsize=None)
def make_basis_state(bits: str) -> StateVector:
    """Computational basis state |bits> (shared: the result is immutable)."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"bits must be a nonempty 0/1 string, got {bits!r}")
    amps = np.zeros(1 << len(bits), dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return StateVector(amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product with a's qubits first (most significant)."""
    return StateVector((a.amps[:, None] * b.amps).reshape(-1))


def tensor_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tensor on every row: row i of the result is a[i] (x) b[i], with b
    one row for all rows or one per row. Each row is checked as
    StateVector(...) checks a state: finite and normalized."""
    out = (a[:, :, None] * b[..., None, :]).reshape(len(a), -1)
    flat = out.view(np.float64)
    norm2 = (flat * flat).sum(axis=1)
    # as in StateVector, a row's squared norm is finite exactly when its
    # amplitudes are
    if not np.isfinite(norm2).all() and not np.isfinite(flat).all():
        raise ValueError("amplitudes must be finite")
    _require_unit_norms(norm2, "state")
    return out


def rows_as_states(amps: np.ndarray) -> list[StateVector]:
    """The rows of a row kernel's result as states, without the copy and
    checks of StateVector(...): the kernel's guards have checked each row.
    The array becomes read-only, and each state holds a view of its row."""
    amps.setflags(write=False)
    return [_unchecked_state(row) for row in amps]


def apply_single(s: StateVector, op: SingleQubitOp, q: int) -> StateVector:
    """Apply a single-qubit unitary at qubit index q."""
    return apply_unitary(s, op.matrix, (q,))


def apply_unitary(s: StateVector, matrix: np.ndarray, qubits: Sequence[int]) -> StateVector:
    """Apply a k-qubit unitary to the given (distinct) qubit indices.

    Raises ValueError when the result is not normalized (the matrix is not
    unitary on this state) or not finite.
    """
    return rows_as_states(apply_unitary_rows(s.amps[None], matrix, qubits))[0]


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


@lru_cache(maxsize=None)
def _plan(n: int, qubits: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Gather plans that bring the given qubits of an n-qubit state to the
    front and back: amps[..., plan].reshape(2**k, -1) has one row per bit
    pattern of the qubits (qubits[0] most significant) and one column per
    pattern of the others, in order; mat.reshape(-1)[..., inverse] puts a
    matrix of that shape back in state order."""
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


def _gather(amps: np.ndarray, qubits: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of amps (rows, 2**n) with the given (distinct) qubits brought
    to the front, in order, as float64 pairs (real, imaginary), and the plan
    that puts them back."""
    idx, inverse = _plan(amps.shape[1].bit_length() - 1, qubits)
    return amps.take(idx, axis=1).view(np.float64), inverse


def _project(vecs: np.ndarray, rem: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(projs, probs) of the float-pair rows rem, whose leading qubits the
    basis vecs (one for all rows, or one per row) measures: projs[i, j] the
    unnormalized remainder of outcome j in row i, probs[i, j] its weight."""
    projs = vecs @ rem.reshape(len(rem), vecs.shape[-1], -1)
    return projs, (projs * projs).sum(axis=2)


def _born(amps: np.ndarray, basis: MeasBasis, qubits: Sequence[int]):
    """The Born projection of every row of amps (rows, 2**n) onto every
    outcome of basis: one real matmul and one vector operation. Returns
    (labels, vecs, inverse, projs, probs) as _project, outcomes in basis
    order."""
    labels, vecs = _basis_matrices(basis)
    qs = tuple(qubits)
    if 1 << len(qs) != len(labels):
        raise ValueError(f"{basis.value} basis measures {basis.arity} qubits, got {len(qs)}")
    rem, inverse = _gather(amps, qs)
    projs, probs = _project(vecs, rem)
    return labels, vecs, inverse, projs, probs


def _remainder(projs: np.ndarray, probs: np.ndarray, src: np.ndarray,
               j: np.ndarray) -> np.ndarray:
    """The remainder of row src[i] in outcome j[i], normalized, as complex
    rows (a complex-by-real division, which every collapse shares)."""
    return projs[src, j].view(np.complex128) / np.sqrt(probs[src, j])[:, None]


def _collapse(vecs: np.ndarray, projs: np.ndarray, probs: np.ndarray, src: np.ndarray,
              j: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Post-measurement amplitudes: row i is row src[i] of _born's input
    collapsed to outcome j[i]. The basis vectors are real, so each amplitude
    is a real multiple of the normalized remainder."""
    post = _remainder(projs, probs, src, j)
    out = vecs[j][:, :, None] * post.view(np.float64)[:, None, :]
    return out.view(np.complex128).reshape(j.size, -1).take(inverse, axis=1)


def _pick(probs: np.ndarray, cum: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per row i, the first outcome j with r[i] < cum[i, j] = probs[i, 0] +
    ... + probs[i, j] (summed left to right) and probs[i, j] above ZERO_TOL.
    Where rounding left the total at or below r[i] < 1, the last outcome
    with nonzero probability, which exact arithmetic would take."""
    live = probs > ZERO_TOL
    hit = (r[:, None] < cum) & live
    j = hit.argmax(axis=1)
    found = hit.any(axis=1)
    if not found.all():
        short = ~found
        j[short] = probs.shape[1] - 1 - live[short, ::-1].argmax(axis=1)
    return j


def born_distribution(s: StateVector, basis: MeasBasis, qubits: Sequence[int]) -> dict:
    """Exact outcome probabilities for a projective measurement.

    Returns the full map over basis labels; probabilities sum to one.
    """
    labels, _, _, _, probs = _born(s.amps[None], basis, qubits)
    return dict(zip(labels, probs[0].tolist()))


def measure(s: StateVector, basis: MeasBasis, qubits: Sequence[int], rng: Rng):
    """Sample one outcome by the Born rule and collapse.

    Returns (outcome label, collapsed StateVector). Re-measuring the same
    qubits in the same basis then reproduces the outcome with certainty.
    Raises ValueError when the outcome probabilities do not total 1.
    """
    (j,), post = measure_rows(s.amps[None], basis, [qubits], [np.array([rng.random()])])
    return basis_labels(basis)[j[0]], rows_as_states(post)[0]


def measure_rows(amps: np.ndarray, basis: MeasBasis | Sequence[MeasBasis],
                 rounds: Sequence[Sequence[int]], draws: Sequence[np.ndarray],
                 collapse: bool = True, which: np.ndarray | None = None):
    """measure on every row of amps (rows, 2**n), for each round of qubits
    in turn, row i drawing with the uniform draws[k][i] in [0, 1) in round
    k. The rounds are disjoint, and each measures as many qubits as the
    basis does. basis is one MeasBasis for all rows or, with which, a
    sequence of bases of one arity: row i is measured in basis[which[i]].

    One pass: the qubits of every round are gathered once, and each round
    projects the normalized remainder of the round before it, never the
    re-expanded state. Returns (js, post): js[k][i] the index of row i's
    outcome in round k, in its basis order (basis_labels), post the
    collapsed rows as a fresh array, or None without collapse, for a
    measurement nothing reads again. Raises ValueError when two rounds
    share a qubit, a round's size is not the basis's arity, or any row's
    outcome probabilities in any round do not total 1.
    """
    if len(draws) != len(rounds):
        raise ValueError(f"{len(rounds)} rounds need as many draws, got {len(draws)}")
    vecs = _basis_matrices(basis)[1] if which is None else _stacked_matrices(tuple(basis))
    outcomes = vecs.shape[-1]
    for qs in rounds:
        if 1 << len(qs) != outcomes:
            raise ValueError(f"the basis measures {outcomes.bit_length() - 1} qubits, "
                             f"got {len(qs)}")
    rem, inverse = _gather(amps, sum(map(tuple, rounds), ()))
    if which is not None:
        vecs = vecs[which]
    rows = np.arange(len(amps))
    js = []
    for k, r in enumerate(draws):
        projs, probs = _project(vecs, rem)
        cum = probs.cumsum(axis=1)
        _require_unit_norms(cum[:, -1], "measured state")
        js.append(_pick(probs, cum, r))
        if collapse or k + 1 < len(draws):
            rem = _remainder(projs, probs, rows, js[-1]).view(np.float64)
    if not collapse:
        return js, None
    # the collapsed state, vecs[j_1] (x) ... (x) the last remainder, as
    # float pairs: real basis vectors scale both parts of an amplitude alike
    for j in reversed(js):
        vec = vecs[j] if which is None else vecs[rows, j]
        rem = (vec[:, :, None] * rem[:, None, :]).reshape(len(rem), -1)
    return js, rem.view(np.complex128).take(inverse, axis=1)


def measurement_branches(s: StateVector, basis: MeasBasis,
                         qubits: Sequence[int]) -> list[tuple]:
    """All (label, probability, collapsed state) branches of one projective
    measurement, zero-probability outcomes dropped."""
    labels, vecs, inverse, projs, probs = _born(s.amps[None], basis, qubits)
    js = np.flatnonzero(probs[0] > ZERO_TOL)
    post = _collapse(vecs, projs, probs, np.zeros_like(js), js, inverse)
    return [(labels[j], p, state)
            for j, p, state in zip(js.tolist(), probs[0, js].tolist(), rows_as_states(post))]


def joint_distribution(s: StateVector, basis: MeasBasis,
                       groups: Iterable[Sequence[int]]) -> dict[tuple, float]:
    """Joint distribution of the same-basis measurement applied to several
    disjoint qubit groups, by exact branch expansion: the branches are the
    rows of one array, each group's measurement splits every row into its
    nonzero outcomes.

    Keys are outcome tuples in group order; zero-probability branches are
    dropped, so the keys are exactly the support.
    """
    outs, weights, amps = [()], np.ones(1), s.amps[None]
    for qs in groups:
        labels, vecs, inverse, projs, probs = _born(amps, basis, qs)
        src, js = np.nonzero(probs > ZERO_TOL)
        outs = [outs[b] + (labels[j],) for b, j in zip(src.tolist(), js.tolist())]
        weights = weights[src] * probs[src, js]
        amps = _collapse(vecs, projs, probs, src, js, inverse)
    return dict(zip(outs, weights.tolist()))
