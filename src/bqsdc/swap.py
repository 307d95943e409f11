"""Entanglement swapping between two GHZ states.

Measuring the three cross pairs of two GHZ triples in the Bell basis leaves
eight equally likely joint outcomes. The eight possible support sets, the
outcome collections, partition the 64 Bell triples; which collection occurs
identifies the relation between the two input states.

Collection membership is derived from the state-vector engine (support of
the swap distribution against the reference input), never hand-typed. The
independently hand-enumerated sets in REFERENCE_COLLECTIONS exist only as a
verification fixture for :func:`verify_swap_table`.

The collection chart composed with the transform chart gives the
announcement for a pair of encoding operations (:func:`announcement`), the
same for every prepared state.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import qcore
from .codebook import CompositeOp, ghz_state, transform_label
from .labels import BellLabel, CollectionLabel, GhzLabel
from .qcore import MeasBasis

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
    between the two labelled GHZ states."""
    joint = qcore.joint_distribution(
        qcore.tensor(ghz_state(g1), ghz_state(g2)), MeasBasis.BELL, _CROSS_PAIRS)
    return {BellTriple(*outs): p for outs, p in joint.items()}


@lru_cache(maxsize=None)
def _collection_members() -> tuple[frozenset[BellTriple], ...]:
    """Collection m is the support of swapping the reference state with the
    m-th GHZ state; the eight sets must partition all 64 triples."""
    members = tuple(
        frozenset(swap_distribution(GhzLabel.PSI0, GhzLabel(m)))
        for m in range(8)
    )
    seen: set[BellTriple] = set()
    for ms in members:
        if len(ms) != 8 or seen & ms:
            raise AssertionError("outcome collections do not partition the Bell triples")
        seen |= ms
    if len(seen) != 64:
        raise AssertionError("outcome collections do not cover all Bell triples")
    return members


def collection_members(m: CollectionLabel) -> frozenset[BellTriple]:
    """The eight Bell triples making up one collection."""
    return _collection_members()[int(m)]


@lru_cache(maxsize=None)
def _collection_index() -> dict[BellTriple, CollectionLabel]:
    return {
        t: CollectionLabel(m)
        for m, ms in enumerate(_collection_members())
        for t in ms
    }


def collection_of(t: BellTriple) -> CollectionLabel:
    """The unique collection containing a Bell triple."""
    return _collection_index()[t]


@lru_cache(maxsize=None)
def _collection_table() -> dict[tuple[GhzLabel, GhzLabel], CollectionLabel]:
    table = {}
    for g1 in GhzLabel:
        for g2 in GhzLabel:
            ms = {collection_of(t) for t in swap_distribution(g1, g2)}
            if len(ms) != 1:
                raise AssertionError(f"swap support of ({g1.token}, {g2.token}) "
                                     "spans multiple collections")
            table[(g1, g2)] = ms.pop()
    return table


def collection_table(g1: GhzLabel, g2: GhzLabel) -> CollectionLabel:
    """Collection containing the entire swap support of the labelled pair."""
    return _collection_table()[(g1, g2)]


@lru_cache(maxsize=None)
def _announcement_table() -> tuple[tuple[CollectionLabel, ...], ...]:
    """announced[a][b]: the collection announced for a group whose first
    triple carries operation a and second triple b, composed from the two
    charts for every prepared state; all eight must give the same one."""
    def composed(a: CompositeOp, b: CompositeOp) -> CollectionLabel:
        ms = {collection_table(transform_label(p, a), transform_label(p, b)) for p in GhzLabel}
        if len(ms) != 1:
            raise AssertionError(f"announcement for ({a.token}, {b.token}) "
                                 "depends on the prepared state")
        return ms.pop()
    return tuple(tuple(composed(a, b) for b in CompositeOp) for a in CompositeOp)


def announcement(a_op: CompositeOp, b_op: CompositeOp) -> CollectionLabel:
    """Collection announced when Alice applied a_op and Bob b_op, whatever
    the prepared state."""
    return _announcement_table()[a_op][b_op]


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
    sizes = [len(ms) for ms in _collection_members()]
    return {
        "entries": entries,
        "mismatches": mismatches,
        "max_prob_deviation": max_dev,
        "reference_set_matches": reference_matches,
        "collection_sizes": sizes,
        "partition_ok": sum(sizes) == 64,
    }
