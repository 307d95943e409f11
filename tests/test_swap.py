import itertools

import numpy as np
import pytest

from bqsdc import cli, swap
from bqsdc.codebook import CompositeOp, transform_chart, transform_label
from bqsdc.labels import BellLabel, CollectionLabel, GhzLabel
from bqsdc.qcore import ATOL
from bqsdc.swap import (REFERENCE_COLLECTIONS, BellTriple, announcement, bell_triples,
                        collection_members, collection_of, collection_table, ghz_swap_tables,
                        swap_chart, swap_distribution, verify_swap_table)

# Independent reference chart: cell [g1][g2] = collection index.
REFERENCE_SWAP_CHART = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 0, 3, 2, 5, 4, 7, 6],
    [2, 3, 0, 1, 6, 7, 4, 5],
    [3, 2, 1, 0, 7, 6, 5, 4],
    [4, 5, 6, 7, 0, 1, 2, 3],
    [5, 4, 7, 6, 1, 0, 3, 2],
    [6, 7, 4, 5, 2, 3, 0, 1],
    [7, 6, 5, 4, 3, 2, 1, 0],
]


class TestSwapDistribution:
    def test_identical_reference_pair(self):
        dist = swap_distribution(GhzLabel.PSI0, GhzLabel.PSI0)
        assert frozenset(dist) == REFERENCE_COLLECTIONS[0]
        for p in dist.values():
            assert p == pytest.approx(0.125, abs=ATOL)

    def test_pair_zero_one(self):
        dist = swap_distribution(GhzLabel.PSI0, GhzLabel.PSI1)
        assert frozenset(dist) == REFERENCE_COLLECTIONS[1]

    def test_worked_example_pair(self):
        dist = swap_distribution(GhzLabel.PSI2, GhzLabel.PSI5)
        assert frozenset(dist) == collection_members(CollectionLabel.C7)

    def test_uniform_support_everywhere(self):
        for g1 in GhzLabel:
            for g2 in GhzLabel:
                dist = swap_distribution(g1, g2)
                assert len(dist) == 8
                for p in dist.values():
                    assert p == pytest.approx(0.125, abs=ATOL)


class TestCollections:
    def test_members_match_reference_sets(self):
        for m in range(8):
            assert collection_members(CollectionLabel(m)) == REFERENCE_COLLECTIONS[m]

    def test_partition(self):
        union = set()
        for m in CollectionLabel:
            members = collection_members(m)
            assert len(members) == 8
            assert not (union & members)
            union |= members
        assert len(union) == 64

    def test_collection_of_known_triples(self):
        t = BellTriple(BellLabel.PHI_PLUS, BellLabel.PHI_PLUS, BellLabel.PHI_PLUS)
        assert collection_of(t) == CollectionLabel.C0
        t = BellTriple(BellLabel.PSI_PLUS, BellLabel.PHI_PLUS, BellLabel.PHI_PLUS)
        assert collection_of(t) == CollectionLabel.C2
        t = BellTriple(BellLabel.PHI_MINUS, BellLabel.PHI_MINUS, BellLabel.PSI_MINUS)
        assert collection_of(t) == CollectionLabel.C7

    def test_bell_triples_by_index(self):
        # triple 16a + 4b + c holds the Bell outcome indices a, b, c
        for k, t in enumerate(bell_triples()):
            assert t == BellTriple(BellLabel(k >> 4), BellLabel(k >> 2 & 3), BellLabel(k & 3))
            assert collection_of(t) == swap_chart()[1][k]

    def test_collection_of_total(self):
        for labels in itertools.product(BellLabel, repeat=3):
            assert collection_of(BellTriple(*labels)) in CollectionLabel

    def test_sign_parity_constant_within_collection(self):
        for m in CollectionLabel:
            parities = {t.a.sign ^ t.b.sign ^ t.c.sign for t in collection_members(m)}
            assert len(parities) == 1


class TestCollectionTable:
    def test_matches_reference_chart(self):
        for g1 in GhzLabel:
            for g2 in GhzLabel:
                assert collection_table(g1, g2) == CollectionLabel(REFERENCE_SWAP_CHART[g1][g2])
        assert np.array_equal(swap_chart()[0], REFERENCE_SWAP_CHART)

    def test_examples(self):
        assert collection_table(GhzLabel.PSI0, GhzLabel.PSI0) == CollectionLabel.C0
        assert collection_table(GhzLabel.PSI2, GhzLabel.PSI5) == CollectionLabel.C7
        assert collection_table(GhzLabel.PSI7, GhzLabel.PSI4) == CollectionLabel.C3

    def test_symmetric(self):
        for g1 in GhzLabel:
            for g2 in GhzLabel:
                assert collection_table(g1, g2) == collection_table(g2, g1)

    def test_latin_square(self):
        for g1 in GhzLabel:
            assert {collection_table(g1, g2) for g2 in GhzLabel} == set(CollectionLabel)
        for g2 in GhzLabel:
            assert {collection_table(g1, g2) for g1 in GhzLabel} == set(CollectionLabel)

    def test_support_consistent_with_table(self):
        for g1 in GhzLabel:
            for g2 in GhzLabel:
                m = collection_table(g1, g2)
                for t in swap_distribution(g1, g2):
                    assert collection_of(t) == m


class TestAnnouncement:
    def test_composes_the_charts_for_every_prepared_state(self):
        # both triples start in p, which cancels: the announcement is the
        # XOR of the two operations, for all 512 (p, a, b)
        for p in GhzLabel:
            for a in CompositeOp:
                for b in CompositeOp:
                    m = announcement(a, b)
                    assert m == collection_table(transform_label(p, a), transform_label(p, b))
                    assert m == CollectionLabel(a ^ b)

    def test_raises_if_the_prepared_state_matters(self, monkeypatch):
        # a fake transform chart under which psi3 ignores the operation:
        # the derivation must notice that p no longer cancels
        fake = transform_chart().copy()
        fake[GhzLabel.PSI3] = GhzLabel.PSI3
        monkeypatch.setattr(swap, "transform_chart", lambda: fake)
        swap.announcement_chart.cache_clear()
        try:
            with pytest.raises(AssertionError, match=r"\(U0, U1\) depends on the prepared"):
                announcement(CompositeOp.U0, CompositeOp.U1)
        finally:
            swap.announcement_chart.cache_clear()


class TestChartGuards:
    """Fake GHZ swap tables patched into swap; the chart's cache is cleared
    before and after, so the real chart is derived again."""

    def raises(self, monkeypatch, fake, match):
        monkeypatch.setattr(swap, "ghz_swap_tables", fake)
        swap.swap_chart.cache_clear()
        try:
            with pytest.raises(AssertionError, match=match):
                collection_table(GhzLabel.PSI0, GhzLabel.PSI0)
        finally:
            swap.swap_chart.cache_clear()

    def test_raises_unless_collections_partition_the_triples(self, monkeypatch):
        # psi0 with psi_m gives the tables of psi0 with psi_(m & ~1): each
        # odd collection repeats the even one below it, and no collection
        # holds the odd ones' triples
        real = ghz_swap_tables()
        rows = np.arange(len(real[0]))
        rows[:8] &= ~1
        self.raises(monkeypatch, lambda: tuple(table[rows] for table in real),
                    "do not partition the Bell triples")

    def test_raises_if_a_support_spans_two_collections(self, monkeypatch):
        # one triple of collection 1 made live in the tables of (psi5, psi6):
        # a nonzero entry on each round of its path
        tables = [table.copy() for table in ghz_swap_tables()]
        stray = bell_triples().index(next(iter(REFERENCE_COLLECTIONS[1])))
        path = 0
        for table, j in zip(tables, (stray >> 4, stray >> 2 & 3, stray & 3)):
            table[8 * GhzLabel.PSI5 + GhzLabel.PSI6, path, j] = 0.125
            path = 4 * path + j
        self.raises(monkeypatch, lambda: tuple(tables),
                    r"\(psi5, psi6\) spans multiple collections")


def test_chart_equals_the_one_state_supports():
    # the chart read off the batched tables is the chart of the 64 supports
    # that swap_distribution expands one pair at a time
    index = {t: k for k, t in enumerate(bell_triples())}
    support = np.zeros((8, 8, 64), dtype=bool)
    for g1, g2 in itertools.product(GhzLabel, repeat=2):
        support[g1, g2, [index[t] for t in swap_distribution(g1, g2)]] = True
    of_triple = support[GhzLabel.PSI0].argmax(axis=0)
    assert np.array_equal(swap_chart()[1], of_triple)
    assert np.array_equal(swap_chart()[0], of_triple[support.argmax(axis=2)])
    for table in ghz_swap_tables():
        assert not table.flags.writeable


def test_verify_swap_table_report():
    report = verify_swap_table()
    assert report["mismatches"] == 0
    assert len(report["entries"]) == 64
    assert report["reference_set_matches"] == 8
    assert report["partition_ok"]
    assert report["collection_sizes"] == [8] * 8
    assert report["max_prob_deviation"] <= ATOL


def test_verify_swap_table_csv(tmp_path, capsys):
    path = tmp_path / "table.csv"
    assert cli.main(["verify", "--emit", "csv", "--csv-out", str(path)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {path}\n")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 65
    assert lines[0] == "g1,g2,collection,support,max_prob_deviation"
    assert lines[1].startswith("psi0,psi0,c0,")
    # support cells are ordered lexicographically by (letter, sign) pairs
    support = lines[1].split('"')[1].split(";")
    assert support == sorted(support) and len(support) == 8


def test_bell_triple_tokens():
    t = BellTriple(BellLabel.PHI_PLUS, BellLabel.PSI_MINUS, BellLabel.PHI_MINUS)
    assert t.token == "phi+,psi-,phi-"
    assert BellTriple.from_token(t.token) == t
