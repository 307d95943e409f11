"""Discrete algebra of the protocol: the GHZ states as rows, the eight
composite encoding operations, the three-bit message code, and the
GHZ transformation chart.

The transformation chart is never hand-typed. It is derived once from the
row kernels, for all 64 (state, op) pairs in one pass (_derive_chart), and
:func:`verify_transform_table` re-derives it on demand and checks it against
the independently hand-enumerated REFERENCE_CHART, which exists only as a
verification fixture.
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache

import numpy as np

from . import qcore
from .labels import GhzLabel, ghz_amplitudes
from .qcore import ISY, SX, SZ, I

MessageTriple = tuple[int, int, int]


class CompositeOp(IntEnum):
    """Composite two-particle encoding operation, index 0 to 7.

    The operation is a tensor product of one single-particle operation on
    the first encoded particle and one on the second; its index in binary
    is the three-bit message it carries.
    """

    U0 = 0
    U1 = 1
    U2 = 2
    U3 = 3
    U4 = 4
    U5 = 5
    U6 = 6
    U7 = 7

    @property
    def first(self) -> np.ndarray:
        return _OP_FACTORS[self][0]

    @property
    def second(self) -> np.ndarray:
        return _OP_FACTORS[self][1]

    @property
    def bits(self) -> MessageTriple:
        k = int(self)
        return ((k >> 2) & 1, (k >> 1) & 1, k & 1)

    @property
    def token(self) -> str:
        return f"U{int(self)}"


_OP_FACTORS = {
    CompositeOp.U0: (SZ, SZ),
    CompositeOp.U1: (I, SZ),
    CompositeOp.U2: (ISY, SZ),
    CompositeOp.U3: (SX, SZ),
    CompositeOp.U4: (I, SX),
    CompositeOp.U5: (SZ, SX),
    CompositeOp.U6: (SX, SX),
    CompositeOp.U7: (ISY, SX),
}
# The first and the second factor of every op, stacked in op order: the
# matrices the chart is derived with and a session encodes with.
FIRST_FACTORS = np.stack([first for first, _ in _OP_FACTORS.values()])
SECOND_FACTORS = np.stack([second for _, second in _OP_FACTORS.values()])
FIRST_FACTORS.setflags(write=False)
SECOND_FACTORS.setflags(write=False)


@lru_cache(maxsize=None)
def ghz_rows() -> np.ndarray:
    """The eight GHZ states as the read-only rows of one array, row k the
    exact amplitudes of GhzLabel(k), each checked as a state entering the
    engine (qcore._check_rows)."""
    rows = np.stack([ghz_amplitudes(label) for label in GhzLabel])
    qcore._check_rows(rows)
    rows.setflags(write=False)
    return rows


def message_to_op(bits: MessageTriple) -> CompositeOp:
    """Three message bits (b2, b1, b0) to the composite operation."""
    b2, b1, b0 = bits
    if any(b not in (0, 1) for b in (b2, b1, b0)):
        raise ValueError(f"message bits must be 0/1, got {bits!r}")
    return CompositeOp((b2 << 2) | (b1 << 1) | b0)


def _derive_chart() -> tuple[np.ndarray, np.ndarray]:
    """The label and the real sign of op k on the first and second particles
    of GHZ state p, as arrays [p, k]: both factors of every op act on the 64
    rows (p, k), and one overlap product against the GHZ states classifies
    the results. Raises unless every result is plus or minus a GHZ state and
    each row of labels is a permutation, so that every transform can be
    inverted."""
    ghz = ghz_rows()
    p, k = np.divmod(np.arange(len(GhzLabel) * len(CompositeOp)), len(CompositeOp))
    overlaps = qcore.apply_op(ghz[p], [(0, FIRST_FACTORS[k]), (1, SECOND_FACTORS[k])]) @ ghz.T
    # the GHZ states are orthonormal, so at most one overlap nears modulus 1
    labels = np.abs(overlaps).argmax(axis=1)
    phases = overlaps[np.arange(len(labels)), labels]
    missed = np.abs(phases) <= 1.0 - qcore.ATOL
    if missed.any():
        r = missed.argmax()
        raise AssertionError(f"codebook closure violated: {CompositeOp(k[r]).token} on "
                             f"{GhzLabel(p[r]).token} left the GHZ basis")
    phases /= np.abs(phases)
    complex_phase = np.abs(phases.imag) > qcore.ATOL
    if complex_phase.any():
        r = complex_phase.argmax()
        raise AssertionError(f"unexpected complex phase {complex(phases[r])} for "
                             f"{GhzLabel(p[r]).token}, {CompositeOp(k[r]).token}")
    labels = labels.reshape(len(GhzLabel), -1)
    if (np.sort(labels, axis=1) != np.arange(len(GhzLabel))).any():
        raise AssertionError("transform rows are not permutations")
    return labels, np.sign(phases.real).reshape(labels.shape)


@lru_cache(maxsize=None)
def transform_chart() -> np.ndarray:
    """The chart as a read-only integer array: entry [p, k] is the label
    of op k acting on GHZ state p (_derive_chart)."""
    chart = _derive_chart()[0]
    chart.setflags(write=False)
    return chart


def transform_label(initial: GhzLabel, op: CompositeOp) -> GhzLabel:
    """Label of the GHZ state produced by the composite operation."""
    return GhzLabel(transform_chart()[initial, op])


def invert_transform(initial: GhzLabel, result: GhzLabel) -> CompositeOp:
    """The unique operation carrying one GHZ label to another."""
    return CompositeOp(transform_chart()[initial].tolist().index(result))


# Independently hand-enumerated chart (verification fixture only): row =
# initial state, column = outcome state, cell = index of the operation
# carrying row to column.
REFERENCE_CHART = (
    (0, 1, 2, 3, 4, 5, 6, 7),
    (1, 0, 3, 2, 5, 4, 7, 6),
    (2, 3, 0, 1, 6, 7, 4, 5),
    (3, 2, 1, 0, 7, 6, 5, 4),
    (4, 5, 6, 7, 0, 1, 2, 3),
    (5, 4, 7, 6, 1, 0, 3, 2),
    (6, 7, 4, 5, 2, 3, 0, 1),
    (7, 6, 5, 4, 3, 2, 1, 0),
)


def verify_transform_table() -> dict:
    """Re-derive every (initial, op) entry (_derive_chart) and check it
    against REFERENCE_CHART. Returns a JSON-ready report."""
    labels, signs = _derive_chart()
    entries = []
    mismatches = 0
    for p in GhzLabel:
        for k in CompositeOp:
            got, phase = GhzLabel(labels[p, k]), float(signs[p, k])
            expected = GhzLabel(REFERENCE_CHART[p].index(k))
            ok = got == expected and phase in (1.0, -1.0)
            mismatches += not ok
            entries.append({
                "initial": p.token,
                "op": k.token,
                "expected": expected.token,
                "got": got.token,
                "phase": phase,
            })
    return {"entries": entries, "mismatches": mismatches}
