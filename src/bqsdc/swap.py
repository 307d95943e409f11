"""Entanglement swapping between two GHZ states.

Measuring the three cross pairs of two GHZ triples in the Bell basis leaves
eight equally likely joint outcomes. The eight possible support sets, the
outcome collections, partition the 64 Bell triples; which collection occurs
identifies the relation between the two input states.

The chart is derived once from the state-vector engine, never hand-typed,
as two integer arrays (:func:`swap_chart`): the swap support of every pair
of GHZ states, read off one batched Born expansion of the 64 joined pairs
(:func:`ghz_swap_tables`), whose tables a session's swap also starts from.
:func:`verify_swap_table` checks the chart against a second derivation,
one pair at a time (:func:`swap_distribution`), and against the
independently hand-enumerated sets in REFERENCE_COLLECTIONS, which exist
only as a verification fixture.

The swap chart indexed by the transform chart gives the announcement for a
pair of encoding operations (:func:`announcement_chart`), the same for
every prepared state.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import qcore
from .codebook import CompositeOp, ghz_rows, ghz_state, transform_chart
from .labels import BellLabel, CollectionLabel, GhzLabel
from .qcore import MeasBasis, basis_labels

# Bell pairs are measured across the first/second/third particles of the
# two triples; with the first triple's qubits in front of the tensor the
# cross pairs sit at these index pairs.
_CROSS_PAIRS = ((0, 3), (1, 4), (2, 5))


class BellTriple(NamedTuple):
    """Joint Bell outcome on the three cross pairs."""

    a: BellLabel
    b: BellLabel
    c: BellLabel

    @property
    def token(self) -> str:
        return f"{self.a.token},{self.b.token},{self.c.token}"

    @classmethod
    def from_token(cls, text: str) -> "BellTriple":
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"not a Bell triple: {text!r}")
        return cls(*(BellLabel.from_token(p) for p in parts))


def swap_distribution(g1: GhzLabel, g2: GhzLabel) -> dict[BellTriple, float]:
    """Exact joint Bell-outcome distribution (support only) for swapping
    between the two labelled GHZ states, expanded on its own: the second
    derivation that verify_swap_table checks the chart against."""
    joint = qcore.joint_distribution(
        qcore.tensor(ghz_state(g1), ghz_state(g2)), MeasBasis.BELL, _CROSS_PAIRS)
    return {BellTriple(*outs): p for outs, p in joint.items()}


@lru_cache(maxsize=None)
def bell_triples() -> tuple[BellTriple, ...]:
    """The 64 Bell triples, triple 16a + 4b + c the outcome indices a, b, c
    of the three cross pairs in basis order (basis_labels)."""
    return tuple(BellTriple(*t) for t in itertools.product(basis_labels(MeasBasis.BELL), repeat=3))


@lru_cache(maxsize=None)
def ghz_swap_tables() -> tuple[np.ndarray, ...]:
    """The Bell tables of the three cross pairs of every pair of GHZ states,
    read-only, in the form a session samples them: qcore.branch_thresholds
    of qcore.branch_rows of the joint states g1 (x) g2 (qcore.tensor_rows,
    g1's qubits first), row 8 g1 + g2, expanded in one call. Table k's path
    p and outcome j continue to path 4p + j, so the last table's path p and
    outcome j is Bell triple 4p + j; an entry is -1 where the outcome's
    probability is at or below ZERO_TOL."""
    ghz = ghz_rows()
    g1, g2 = np.divmod(np.arange(len(GhzLabel) ** 2), len(GhzLabel))
    tables = qcore.branch_thresholds(qcore.branch_rows(
        qcore.tensor_rows(ghz[g1], ghz[g2]), MeasBasis.BELL, _CROSS_PAIRS))
    for table in tables:
        table.setflags(write=False)
    return tuple(tables)


@lru_cache(maxsize=None)
def swap_chart() -> tuple[np.ndarray, np.ndarray]:
    """The chart, entry [g1, g2] the collection holding the pair's whole swap
    support, and the collection of every triple of bell_triples(), as
    read-only integer arrays. The support is every triple whose path has
    an outcome of probability above ZERO_TOL in each round of
    ghz_swap_tables(). Collection m is the support of psi0 with psi_m;
    raises unless these partition the 64 triples and no support is split."""
    live = np.ones((len(GhzLabel) ** 2, 1), dtype=bool)
    for table in ghz_swap_tables():
        live = (live[:, :, None] & (table >= 0)).reshape(len(live), -1)
    support = live.reshape(len(GhzLabel), len(GhzLabel), -1)
    members = support[GhzLabel.PSI0]
    if (members.sum(axis=1) != 8).any() or (members.sum(axis=0) != 1).any():
        raise AssertionError("outcome collections do not partition the Bell triples")
    of_triple = members.argmax(axis=0)
    chart = of_triple[support.argmax(axis=2)]
    split = np.argwhere((support & (of_triple != chart[..., None])).any(axis=2))
    if len(split):
        g1, g2 = map(GhzLabel, split[0])
        raise AssertionError(f"swap support of ({g1.token}, {g2.token}) spans multiple collections")
    chart.setflags(write=False)
    of_triple.setflags(write=False)
    return chart, of_triple


def collection_members(m: CollectionLabel) -> frozenset[BellTriple]:
    """The eight Bell triples making up one collection."""
    return frozenset(itertools.compress(bell_triples(), swap_chart()[1] == m))


def collection_of(t: BellTriple) -> CollectionLabel:
    """The unique collection containing a Bell triple."""
    return CollectionLabel(swap_chart()[1][bell_triples().index(t)])


def collection_table(g1: GhzLabel, g2: GhzLabel) -> CollectionLabel:
    """Collection containing the entire swap support of the labelled pair."""
    return CollectionLabel(swap_chart()[0][g1, g2])


@lru_cache(maxsize=None)
def announcement_chart() -> np.ndarray:
    """Entry [a, b], read-only: the collection announced when the first triple
    carries op a and the second op b, the swap chart indexed by the transform
    chart for all eight prepared states at once. Raises unless they agree."""
    ops = transform_chart()
    per_state = swap_chart()[0][ops[:, :, None], ops[:, None, :]]  # [p, a, b]
    split = np.argwhere((per_state != per_state[0]).any(axis=0))
    if len(split):
        a, b = map(CompositeOp, split[0])
        raise AssertionError(f"announcement for ({a.token}, {b.token}) "
                             "depends on the prepared state")
    per_state.setflags(write=False)
    return per_state[0]


def announcement(a_op: CompositeOp, b_op: CompositeOp) -> CollectionLabel:
    """Collection announced when Alice applied a_op and Bob b_op, whatever
    the prepared state."""
    return CollectionLabel(announcement_chart()[a_op, b_op])


def _ref(*tokens: str) -> frozenset[BellTriple]:
    return frozenset(BellTriple.from_token(t) for t in tokens)


# Independently hand-enumerated collection sets (verification fixture only).
REFERENCE_COLLECTIONS: tuple[frozenset[BellTriple], ...] = (
    _ref("phi+,phi+,phi+", "phi+,phi-,phi-", "phi-,phi+,phi-", "phi-,phi-,phi+",
         "psi+,psi+,psi+", "psi+,psi-,psi-", "psi-,psi+,psi-", "psi-,psi-,psi+"),
    _ref("phi+,phi+,phi-", "phi+,phi-,phi+", "phi-,phi+,phi+", "phi-,phi-,phi-",
         "psi+,psi+,psi-", "psi+,psi-,psi+", "psi-,psi+,psi+", "psi-,psi-,psi-"),
    _ref("psi+,phi+,phi+", "psi+,phi-,phi-", "psi-,phi+,phi-", "psi-,phi-,phi+",
         "phi+,psi+,psi+", "phi+,psi-,psi-", "phi-,psi+,psi-", "phi-,psi-,psi+"),
    _ref("psi+,phi+,phi-", "psi+,phi-,phi+", "psi-,phi+,phi+", "psi-,phi-,phi-",
         "phi+,psi+,psi-", "phi+,psi-,psi+", "phi-,psi+,psi+", "phi-,psi-,psi-"),
    _ref("phi+,psi+,phi+", "phi+,psi-,phi-", "phi-,psi+,phi-", "phi-,psi-,phi+",
         "psi+,phi+,psi+", "psi+,phi-,psi-", "psi-,phi+,psi-", "psi-,phi-,psi+"),
    _ref("phi+,psi+,phi-", "phi+,psi-,phi+", "phi-,psi+,phi+", "phi-,psi-,phi-",
         "psi+,phi+,psi-", "psi+,phi-,psi+", "psi-,phi+,psi+", "psi-,phi-,psi-"),
    _ref("psi+,psi+,phi+", "psi+,psi-,phi-", "psi-,psi+,phi-", "psi-,psi-,phi+",
         "phi+,phi+,psi+", "phi+,phi-,psi-", "phi-,phi+,psi-", "phi-,phi-,psi+"),
    _ref("psi+,psi+,phi-", "psi+,psi-,phi+", "psi-,psi+,phi+", "psi-,psi-,phi-",
         "phi+,phi+,psi-", "phi+,phi-,psi+", "phi-,phi+,psi+", "phi-,phi-,psi-"),
)


def verify_swap_table() -> dict:
    """Cross-check every swap distribution against the collection chart and
    the hand-enumerated reference sets. Returns a JSON-ready report."""
    entries = []
    mismatches = 0
    max_dev = 0.0
    for g1 in GhzLabel:
        for g2 in GhzLabel:
            dist = swap_distribution(g1, g2)
            m = collection_table(g1, g2)
            dev = max(abs(p - 0.125) for p in dist.values())
            max_dev = max(max_dev, dev)
            ok = (
                len(dist) == 8
                and dev <= qcore.ATOL
                and frozenset(dist) == collection_members(m)
            )
            mismatches += not ok
            entries.append({
                "g1": g1.token,
                "g2": g2.token,
                "collection": m.token,
                "support_size": len(dist),
                "max_prob_deviation": dev,
                "support_matches_collection": ok,
                "support": sorted(t.token for t in dist),
            })
    reference_matches = sum(
        collection_members(CollectionLabel(m)) == REFERENCE_COLLECTIONS[m]
        for m in range(8)
    )
    sizes = np.bincount(swap_chart()[1], minlength=len(CollectionLabel)).tolist()
    return {
        "entries": entries,
        "mismatches": mismatches,
        "max_prob_deviation": max_dev,
        "reference_set_matches": reference_matches,
        "collection_sizes": sizes,
        "partition_ok": sum(sizes) == 64,
    }
