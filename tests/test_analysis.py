import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import json_groups

from bqsdc.analysis import (_entropy_given_announcement, cabello_efficiency, capacity_report,
                            comparison_report, conditional_entropy_given_announcement,
                            leakage_monte_carlo, leakage_report, shannon_entropy,
                            uniform_op_pair_prior)
from bqsdc.codebook import CompositeOp
from bqsdc.labels import CollectionLabel
from bqsdc.protocol import SessionConfig, random_message_bits, run_session
from bqsdc.qcore import Rng
from bqsdc.swap import announcement


def normalized_prior(weights):
    total = sum(weights)
    pairs = [(a, b) for a in CompositeOp for b in CompositeOp]
    return {pair: w / total for pair, w in zip(pairs, weights)}


class TestEntropy:
    def test_uniform_64_is_six_bits(self):
        assert shannon_entropy(uniform_op_pair_prior()) == 6.0

    def test_point_mass(self):
        prior = {k: 0.0 for k in uniform_op_pair_prior()}
        prior[(CompositeOp.U2, CompositeOp.U5)] = 1.0
        assert shannon_entropy(prior) == 0.0

    def test_uniform_8(self):
        assert shannon_entropy({i: 1 / 8 for i in range(8)}) == 3.0

    def test_rejects_bad_distributions(self):
        with pytest.raises(ValueError):
            shannon_entropy({0: 0.7, 1: 0.7})
        with pytest.raises(ValueError):
            shannon_entropy({0: 1.5, 1: -0.5})

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            shannon_entropy({0: math.nan, 1: 0.5})

    @given(st.lists(st.floats(0.01, 1.0), min_size=64, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_support(self, weights):
        h = shannon_entropy(normalized_prior(weights))
        assert -1e-9 <= h <= 6.0 + 1e-9


class TestAnnouncement:
    def test_worked_example(self):
        assert announcement(CompositeOp.U2, CompositeOp.U5) == CollectionLabel.C7

    def test_matches_protocol_path(self):
        # the same announcement must come out of the full quantum session
        for seed, (a_bits, b_bits) in enumerate([("010", "101"), ("111", "000"),
                                                 ("100", "110")]):
            cfg = SessionConfig(n_groups=1, seed=seed, decoys=0)
            a, b = CompositeOp(int(a_bits, 2)), CompositeOp(int(b_bits, 2))
            g = json_groups(run_session(cfg, a_bits, b_bits))[0]
            assert (g["a_op"], g["b_op"]) == (a.token, b.token)
            assert g["announcement"] == announcement(a, b).token


class TestConditionalEntropy:
    def test_uniform_prior_three_bits(self):
        # each announcement is compatible with exactly 8 op pairs
        assert conditional_entropy_given_announcement(uniform_op_pair_prior()) \
            == pytest.approx(3.0, abs=1e-12)

    def test_point_mass_prior(self):
        prior = {k: 0.0 for k in uniform_op_pair_prior()}
        prior[(CompositeOp.U1, CompositeOp.U4)] = 1.0
        assert conditional_entropy_given_announcement(prior) == pytest.approx(0.0)

    def test_rejects_nan(self):
        prior = uniform_op_pair_prior()
        prior[(CompositeOp.U1, CompositeOp.U4)] = math.nan
        with pytest.raises(ValueError):
            conditional_entropy_given_announcement(prior)

    @given(st.lists(st.floats(0.01, 1.0), min_size=64, max_size=64))
    @settings(max_examples=20, deadline=None)
    def test_conditioning_never_increases_entropy(self, weights):
        prior = normalized_prior(weights)
        assert conditional_entropy_given_announcement(prior) \
            <= shannon_entropy(prior) + 1e-9


class TestLeakageReport:
    def test_uniform_report(self):
        rep = leakage_report()
        assert rep["computed"]["entropy_bits"] == 6.0
        assert rep["computed"]["conditional_entropy_bits"] == pytest.approx(3.0)
        assert rep["computed"]["mutual_information_bits"] == pytest.approx(3.0)
        assert rep["claimed"] == {"entropy_bits": 6.0, "leaked_bits": 0.0}
        assert rep["discrepancy"] is True

    def test_identity_holds_exactly(self):
        rep = leakage_report()
        c = rep["computed"]
        assert abs(c["entropy_bits"] - c["conditional_entropy_bits"]
                   - c["mutual_information_bits"]) < 1e-12

    def test_point_mass_no_discrepancy(self):
        prior = {k: 0.0 for k in uniform_op_pair_prior()}
        prior[(CompositeOp.U0, CompositeOp.U0)] = 1.0
        rep = leakage_report(prior)
        assert rep["computed"]["mutual_information_bits"] == pytest.approx(0.0)
        assert rep["discrepancy"] is False


class TestLeakageMonteCarlo:
    def test_agrees_with_enumeration(self):
        mc = leakage_monte_carlo(n_groups=2000, seed=3)
        assert mc["exhaustive_conditional_entropy_bits"] == pytest.approx(3.0)
        # plug-in estimate within 2% of 3 bits
        assert mc["abs_difference"] < 0.06
        freqs = mc["announcement_frequencies"]
        assert sum(freqs.values()) == pytest.approx(1.0)
        for m in CollectionLabel:
            assert abs(freqs[m.token] - 0.125) < 0.03

    def test_deterministic(self):
        a = leakage_monte_carlo(n_groups=500, seed=9)
        b = leakage_monte_carlo(n_groups=500, seed=9)
        assert a == b

    def test_counts_what_the_json_writes(self):
        # the columns it counts are the announcements and op pairs the
        # session's JSON writes, counted in the same first-occurrence order
        n, seed = 400, 5
        rng = Rng(seed, stream=1)
        bits = random_message_bits(n, rng), random_message_bits(n, rng)
        groups = json_groups(run_session(SessionConfig(n_groups=n, seed=seed, decoys=0), *bits))
        counts = Counter((g["announcement"], (g["a_op"], g["b_op"])) for g in groups)
        announced = Counter(g["announcement"] for g in groups)
        mc = leakage_monte_carlo(n_groups=n, seed=seed)
        assert mc["empirical_conditional_entropy_bits"] == _entropy_given_announcement(counts)
        assert mc["announcement_frequencies"] == {
            m.token: announced[m.token] / n for m in CollectionLabel}


class TestEfficiency:
    def test_this_protocol(self):
        assert round(cabello_efficiency(6, 6, 3), 4) == 0.6667

    def test_reference_protocols(self):
        assert round(cabello_efficiency(3, 3, 1), 4) == 0.75
        assert round(cabello_efficiency(4, 4, 2), 4) == 0.6667
        assert round(cabello_efficiency(2, 2, 1), 4) == 0.6667

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            cabello_efficiency(1, 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cabello_efficiency(-1, 2, 1)


class TestCapacity:
    def test_accounting(self):
        cap = capacity_report()
        assert cap["bits_per_round"] == 6
        assert cap["bits_per_qubit"] == 1.0
        assert cap["within_holevo_bound"] is True
        assert cap["efficiency"] == pytest.approx(2 / 3)


class TestComparison:
    def test_eight_distinct_classes(self):
        rows = comparison_report()
        classes = {(r.bits_per_round, r.leaked_bits) for r in rows}
        assert len(classes) == 8

    def test_known_rows(self):
        by_id = {r.protocol: r for r in comparison_report()}
        assert (by_id["man2007"].bits_per_round, by_id["man2007"].leaked_bits) == (3, 2)
        assert (by_id["shi2010a"].bits_per_round, by_id["shi2010a"].leaked_bits) == (2, 0)
        assert by_id["shi2010b"].efficiency == pytest.approx(0.75)
        assert by_id["jin2006"].leaked_bits == 3
        row = by_id["this_work"]
        assert (row.bits_per_round, row.leaked_bits) == (6, 0)
        assert row.efficiency == pytest.approx(2 / 3)
        assert "claimed" in row.note

    def test_leakage_free_rows_have_efficiency(self):
        for r in comparison_report():
            if r.leaked_bits == 0:
                assert r.efficiency is not None
            else:
                assert r.efficiency is None
