"""Dense state-vector engine for few-qubit protocol simulation.

A state is an immutable vector of complex amplitudes indexed by bitstring,
with qubit 0 in the leftmost (most significant) position so kets transcribe
left to right. All operations are pure functions of their inputs; sampling
randomness enters only through an explicit Rng argument, never through
ambient state.
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


def make_basis_state(bits: str) -> StateVector:
    """Computational basis state |bits>."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"bits must be a nonempty 0/1 string, got {bits!r}")
    amps = np.zeros(1 << len(bits), dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return StateVector(amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product with a's qubits first (most significant)."""
    return StateVector(np.kron(a.amps, b.amps))


def apply_single(s: StateVector, op: SingleQubitOp, q: int) -> StateVector:
    """Apply a single-qubit unitary at qubit index q."""
    return apply_unitary(s, op.matrix, (q,))


def apply_unitary(s: StateVector, matrix: np.ndarray, qubits: Sequence[int]) -> StateVector:
    """Apply a k-qubit unitary to the given (distinct) qubit indices."""
    n = s.num_qubits
    mat, perm = _grouped(s.amps, n, _check_qubits(n, qubits))
    return StateVector(_ungrouped(np.asarray(matrix, dtype=np.complex128) @ mat, n, perm))


def _check_qubits(n: int, qubits: Sequence[int]) -> list[int]:
    qs = list(qubits)
    if len(set(qs)) != len(qs):
        raise ValueError("qubit indices must be distinct")
    if any(not 0 <= q < n for q in qs):
        raise IndexError(f"qubit indices {qs} out of range for {n} qubits")
    return qs


def _check_measurement_args(s: StateVector, basis: MeasBasis, qubits: Sequence[int]) -> list[int]:
    qs = list(qubits)
    if len(qs) != basis.arity:
        raise ValueError(f"{basis.value} basis measures {basis.arity} qubits, got {len(qs)}")
    return _check_qubits(s.num_qubits, qs)


def _grouped(amps: np.ndarray, n: int, qs: list[int]) -> tuple[np.ndarray, list[int]]:
    """Reshape amplitudes to (2**k, rest) with the qubits qs in front."""
    perm = qs + [i for i in range(n) if i not in qs]
    return amps.reshape((2,) * n).transpose(perm).reshape(1 << len(qs), -1), perm


def _ungrouped(mat: np.ndarray, n: int, perm: list[int]) -> np.ndarray:
    """Inverse of _grouped: flat amplitudes in the original qubit order."""
    return mat.reshape((2,) * n).transpose(np.argsort(perm)).reshape(-1)


def _born(amps: np.ndarray, n: int, basis: MeasBasis, qs: list[int]):
    """The Born projection: group the measured qubits, project onto each
    basis vector and take the norm. Returns (perm, rows), one row
    (label, prob, vec, proj) per basis outcome in basis order."""
    mat, perm = _grouped(amps, n, qs)
    rows = []
    for label, vec in basis_outcomes(basis):
        proj = vec.conj() @ mat
        rows.append((label, float(np.vdot(proj, proj).real), vec, proj))
    return perm, rows


def _collapse(vec: np.ndarray, proj: np.ndarray, prob: float,
              n: int, perm: list[int]) -> np.ndarray:
    """Post-measurement amplitudes for one row of _born."""
    return _ungrouped(np.outer(vec, proj / np.sqrt(prob)), n, perm)


def born_distribution(s: StateVector, basis: MeasBasis, qubits: Sequence[int]) -> dict:
    """Exact outcome probabilities for a projective measurement.

    Returns the full map over basis labels; probabilities sum to one.
    """
    qs = _check_measurement_args(s, basis, qubits)
    _, rows = _born(s.amps, s.num_qubits, basis, qs)
    return {label: prob for label, prob, _, _ in rows}


def measure(s: StateVector, basis: MeasBasis, qubits: Sequence[int], rng: Rng):
    """Sample one outcome by the Born rule and collapse.

    Returns (outcome label, collapsed StateVector). Re-measuring the same
    qubits in the same basis then reproduces the outcome with certainty.
    """
    qs = _check_measurement_args(s, basis, qubits)
    n = s.num_qubits
    perm, rows = _born(s.amps, n, basis, qs)
    r = rng.random()
    acc = 0.0
    for label, prob, vec, proj in rows:
        acc += prob
        if r < acc and prob > ZERO_TOL:
            break
    else:  # numerical guard: fall back to the largest outcome
        label, prob, vec, proj = max(rows, key=lambda row: row[1])
    return label, StateVector(_collapse(vec, proj, prob, n, perm))


def measurement_branches(s: StateVector, basis: MeasBasis,
                         qubits: Sequence[int]) -> list[tuple]:
    """All (label, probability, collapsed state) branches of one projective
    measurement, zero-probability outcomes dropped."""
    qs = _check_measurement_args(s, basis, qubits)
    n = s.num_qubits
    perm, rows = _born(s.amps, n, basis, qs)
    return [(label, prob, StateVector(_collapse(vec, proj, prob, n, perm)))
            for label, prob, vec, proj in rows if prob > ZERO_TOL]


def joint_distribution(s: StateVector, basis: MeasBasis,
                       groups: Iterable[Sequence[int]]) -> dict[tuple, float]:
    """Joint distribution of the same-basis measurement applied to several
    disjoint qubit groups, by exact branch expansion.

    Keys are outcome tuples in group order; zero-probability branches are
    dropped, so the keys are exactly the support.
    """
    branches: list[tuple[tuple, float, np.ndarray]] = [((), 1.0, s.amps)]
    n = s.num_qubits
    for qs in groups:
        qs = list(qs)
        nxt = []
        for outs, prob, amps in branches:
            perm, rows = _born(amps, n, basis, qs)
            nxt.extend((outs + (label,), prob * p, _collapse(vec, proj, p, n, perm))
                       for label, p, vec, proj in rows if p > ZERO_TOL)
        branches = nxt
    return {outs: prob for outs, prob, _ in branches}
