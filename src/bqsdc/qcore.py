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
them: apply_unitary checks the norm of its result with one vdot, which
catches a matrix that is not unitary on the state, and measure checks
that its outcome probabilities, which sum to the squared norm of the
state, total 1.

The index work of grouping k qubits is computed once per (n, qubits) as a
gather plan, and a measurement projects onto every basis vector in one
matmul.
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

    def choice(self, seq: Sequence):
        return seq[self.randrange(len(seq))]


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
    before it.
    """

    __slots__ = ("size", "n", "_base", "_lanes", "_keys", "_out", "_tmp")

    def __init__(self, seed: int, size: int):
        self.size = size
        self.n = 0
        self._base = _mix64(seed & _MASK64)
        self._lanes = np.arange(size, dtype=np.uint64)
        self._keys = np.empty(size, dtype=np.uint64)
        self._out = np.empty(size, dtype=np.uint64)
        self._tmp = np.empty(size, dtype=np.uint64)

    def key(self, start: int, n: int) -> None:
        """Key the n <= size lanes to the streams start, ..., start + n - 1
        (each masked to 64 bits, as Rng masks its stream)."""
        if not 0 < n <= self.size:
            raise ValueError(f"a block holds 1 to {self.size} streams, got {n}")
        self.n = n
        keys = self._keys[:n]
        np.add(self._lanes[:n], np.uint64((self._base + start) & _MASK64), out=keys)
        _mix64_inplace(keys, self._tmp[:n])

    def draw(self, i: int) -> np.ndarray:
        """Draw i of every keyed lane, as a view the next draw overwrites."""
        out = self._out[:self.n]
        np.add(self._keys[:self.n], np.uint64((i + 1) * _GOLDEN & _MASK64), out=out)
        _mix64_inplace(out, self._tmp[:self.n])
        return out


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitude vector over n qubits (length 2**n)."""

    amps: np.ndarray

    def __post_init__(self):
        a = np.array(self.amps, dtype=np.complex128)
        if a.ndim != 1 or a.size < 2 or a.size & (a.size - 1):
            raise ValueError("amplitude vector length must be a power of two >= 2")
        if not np.all(np.isfinite(a.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def num_qubits(self) -> int:
        return self.amps.size.bit_length() - 1

    def amplitude(self, bits: str) -> complex:
        if len(bits) != self.num_qubits:
            raise ValueError("bitstring length mismatch")
        return complex(self.amps[int(bits, 2)])


def _unchecked_state(amps: np.ndarray) -> StateVector:
    """A StateVector around a fresh complex128 vector, without the copy and
    checks of StateVector(...): only for the results of apply_unitary and of
    measurement collapses, which keep the norm by construction."""
    amps.setflags(write=False)
    s = object.__new__(StateVector)
    object.__setattr__(s, "amps", amps)
    return s


def _require_unit_norm(norm2: float, what: str) -> None:
    """Raise unless the norm sqrt(norm2) lies within ATOL of 1, as
    StateVector requires; NaN fails the comparison and raises too."""
    err = abs(math.sqrt(norm2) - 1.0)
    if not err <= ATOL:
        raise ValueError(f"{what} not normalized: |norm - 1| = {err:.3e}")


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

SINGLE_OPS = {op.name: op for op in (I, SX, ISY, SZ)}


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
    return StateVector(np.multiply.outer(a.amps, b.amps).reshape(-1))


def apply_single(s: StateVector, op: SingleQubitOp, q: int) -> StateVector:
    """Apply a single-qubit unitary at qubit index q."""
    return apply_unitary(s, op.matrix, (q,))


def apply_unitary(s: StateVector, matrix: np.ndarray, qubits: Sequence[int]) -> StateVector:
    """Apply a k-qubit unitary to the given (distinct) qubit indices.

    Raises ValueError when the result is not normalized (the matrix is not
    unitary on this state) or not finite.
    """
    qs = tuple(qubits)
    idx = _plan(s.num_qubits, qs)
    out = np.empty_like(s.amps)
    out[idx] = (np.asarray(matrix, dtype=np.complex128)
                @ s.amps[idx].reshape(1 << len(qs), -1)).reshape(-1)
    _require_unit_norm(np.vdot(out, out).real, "apply_unitary result")
    return _unchecked_state(out)


@lru_cache(maxsize=None)
def _plan(n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Gather plan that brings the given qubits of an n-qubit state to the
    front: amps[plan].reshape(2**k, -1) has one row per bit pattern of the
    qubits (qubits[0] most significant) and one column per pattern of the
    others, in order; out[plan] = mat.reshape(-1) scatters it back."""
    qs = list(qubits)
    if len(set(qs)) != len(qs):
        raise ValueError("qubit indices must be distinct")
    if any(not 0 <= q < n for q in qs):
        raise IndexError(f"qubit indices {qs} out of range for {n} qubits")
    perm = qs + [i for i in range(n) if i not in qs]
    idx = np.arange(1 << n).reshape((2,) * n).transpose(perm).reshape(-1)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _basis_matrices(basis: MeasBasis) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(labels, bras, kets) of a basis: bras holds the conjugated basis
    vectors as rows, kets the vectors themselves, both in basis order."""
    labels, vecs = zip(*basis_outcomes(basis))
    kets = np.array(vecs)
    bras = kets.conj()
    kets.setflags(write=False)
    bras.setflags(write=False)
    return labels, bras, kets


def _born(amps: np.ndarray, basis: MeasBasis, qubits: Sequence[int]):
    """The Born projection: every outcome's projection in one matmul and
    every probability in one vector operation. Returns (labels, kets, plan,
    projs, probs), projs[j] the unnormalized remainder of outcome j and
    probs a list, both in basis order."""
    labels, bras, kets = _basis_matrices(basis)
    qs = tuple(qubits)
    if 1 << len(qs) != len(labels):
        raise ValueError(f"{basis.value} basis measures {basis.arity} qubits, got {len(qs)}")
    idx = _plan(amps.size.bit_length() - 1, qs)
    projs = bras @ amps[idx].reshape(len(labels), -1)
    flat = projs.view(np.float64)  # real and imaginary parts side by side
    probs = (flat * flat).sum(axis=1).tolist()
    return labels, kets, idx, projs, probs


def _collapse(kets: np.ndarray, projs: np.ndarray, j: int, prob: float,
              idx: np.ndarray) -> np.ndarray:
    """Post-measurement amplitudes for outcome j of _born."""
    out = np.empty(idx.size, dtype=np.complex128)
    out[idx] = np.multiply.outer(kets[j], projs[j] / math.sqrt(prob)).reshape(-1)
    return out


def born_distribution(s: StateVector, basis: MeasBasis, qubits: Sequence[int]) -> dict:
    """Exact outcome probabilities for a projective measurement.

    Returns the full map over basis labels; probabilities sum to one.
    """
    labels, _, _, _, probs = _born(s.amps, basis, qubits)
    return dict(zip(labels, probs))


def measure(s: StateVector, basis: MeasBasis, qubits: Sequence[int], rng: Rng):
    """Sample one outcome by the Born rule and collapse.

    Returns (outcome label, collapsed StateVector). Re-measuring the same
    qubits in the same basis then reproduces the outcome with certainty.
    Raises ValueError when the outcome probabilities do not total 1.
    """
    labels, kets, idx, projs, probs = _born(s.amps, basis, qubits)
    _require_unit_norm(sum(probs), "measured state")
    r = rng.random()
    acc = 0.0
    for j, prob in enumerate(probs):
        acc += prob
        if r < acc and prob > ZERO_TOL:
            break
    else:  # rounding left the total at or below r < 1, where exact
        # arithmetic takes the last outcome with nonzero probability
        j = max(i for i, p in enumerate(probs) if p > ZERO_TOL)
        prob = probs[j]
    return labels[j], _unchecked_state(_collapse(kets, projs, j, prob, idx))


def measurement_branches(s: StateVector, basis: MeasBasis,
                         qubits: Sequence[int]) -> list[tuple]:
    """All (label, probability, collapsed state) branches of one projective
    measurement, zero-probability outcomes dropped."""
    labels, kets, idx, projs, probs = _born(s.amps, basis, qubits)
    return [(labels[j], p, _unchecked_state(_collapse(kets, projs, j, p, idx)))
            for j, p in enumerate(probs) if p > ZERO_TOL]


def joint_distribution(s: StateVector, basis: MeasBasis,
                       groups: Iterable[Sequence[int]]) -> dict[tuple, float]:
    """Joint distribution of the same-basis measurement applied to several
    disjoint qubit groups, by exact branch expansion.

    Keys are outcome tuples in group order; zero-probability branches are
    dropped, so the keys are exactly the support.
    """
    branches: list[tuple[tuple, float, np.ndarray]] = [((), 1.0, s.amps)]
    for qs in groups:
        nxt = []
        for outs, prob, amps in branches:
            labels, kets, idx, projs, probs = _born(amps, basis, qs)
            nxt.extend((outs + (labels[j],), prob * p, _collapse(kets, projs, j, p, idx))
                       for j, p in enumerate(probs) if p > ZERO_TOL)
        branches = nxt
    return {outs: prob for outs, prob, _ in branches}
