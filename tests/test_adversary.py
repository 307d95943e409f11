import dataclasses
import itertools
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqsdc.adversary import (_BLOCK, AttackConfig, CheckTemplate, _TrialSampler,
                             apply_attack, claimed_detection_rate, eavesdrop_unitary,
                             estimate_detection, exact_detection_probability)
from bqsdc.checks import DECOY_STATES, DECOY_TOKENS, decoy_state, ghz_sample_ok
from bqsdc.codebook import ghz_rows, ghz_state
from bqsdc.labels import GhzLabel
from bqsdc.particles import Block
from bqsdc.protocol import SessionConfig, run_session
from bqsdc.qcore import (MeasBasis, Rng, StateVector, StreamBlock, born_distribution,
                         joint_distribution)


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttackConfig("swap_out")
        with pytest.raises(ValueError):
            AttackConfig("intercept_resend", target="S_D")
        with pytest.raises(ValueError):
            AttackConfig("intercept_resend", fake_state="2")
        with pytest.raises(ValueError):
            AttackConfig("measure_resend", eve_basis="Y")
        for beta_squared in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                AttackConfig("entangle_measure", beta_squared=beta_squared)
        # a parameter of another strategy
        for strategy, param, value in [("measure_resend", "fake_state", "1"),
                                       ("none", "fake_state", "0"),
                                       ("intercept_resend", "eve_basis", "X"),
                                       ("entangle_measure", "eve_basis", "Z"),
                                       ("intercept_resend", "beta_squared", 0.3),
                                       ("measure_resend", "beta_squared", 1.0)]:
            with pytest.raises(ValueError):
                AttackConfig(strategy, **{param: value})

    def test_entangling_constructor(self):
        cfg = AttackConfig.entangling(0.25, target="S_A")
        assert cfg == AttackConfig("entangle_measure", "S_A", beta_squared=0.25)


class TestEavesdropUnitary:
    @given(st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_unitary_for_all_beta(self, beta_sq):
        e = eavesdrop_unitary(beta_sq)
        assert np.allclose(e.conj().T @ e, np.eye(4), atol=1e-9)

    def test_flip_amplitude(self):
        e = eavesdrop_unitary(0.25)
        out = e @ np.array([1, 0, 0, 0], complex)  # |0>|0>
        assert abs(out[0]) ** 2 == pytest.approx(0.75)  # stays |0>, ancilla 0
        assert abs(out[3]) ** 2 == pytest.approx(0.25)  # flips, ancilla 1

    def test_identity_at_beta_zero(self):
        assert np.allclose(eavesdrop_unitary(0.0), np.eye(4))


def attacked_block(cfg, count=3):
    """A block of GHZ triples with Eve's strategy run on their third
    particles, row j drawing from the keyed stream (1, j), and the array the
    block held before."""
    block = Block(ghz_rows()[[GhzLabel.PSI0] * count])
    before = block.amps
    rng = StreamBlock(1, count)
    rng.key(0, count)
    apply_attack(block, 2, cfg, rng)
    return block, before


def row_states(block):
    return [StateVector(row) for row in block.amps]


class TestAttackApplication:
    def test_intercept_returns_fresh_particle(self):
        block, _ = attacked_block(AttackConfig("intercept_resend", fake_state="0"))
        # the fake is appended and takes the role; the genuine particle
        # stays in the register, still entangled with the other two
        assert block.at == [0, 1, 3] and block.num_qubits == 4
        for state in row_states(block):
            assert born_distribution(state, MeasBasis.Z, [3])[0] == pytest.approx(1.0)
            assert born_distribution(state, MeasBasis.Z, [2])[0] == pytest.approx(0.5)

    def test_measure_resend_collapses(self):
        block, _ = attacked_block(AttackConfig("measure_resend", eve_basis="Z"))
        assert block.at == [0, 1, 2]
        for state in row_states(block):
            # the whole triple collapsed to a definite computational state
            probs = np.abs(state.amps) ** 2
            assert max(probs) == pytest.approx(1.0)

    def test_entangle_appends_ancilla(self):
        block, _ = attacked_block(AttackConfig.entangling(0.25))
        assert block.at == [0, 1, 2] and block.num_qubits == 4
        assert len(row_states(block)) == 3

    def test_none_is_identity(self):
        block, before = attacked_block(AttackConfig("none"))
        assert block.amps is before and block.at == [0, 1, 2]
        assert all(np.array_equal(row, ghz_state(GhzLabel.PSI0).amps) for row in block.amps)


# Exact Born-rule detection rates for the GHZ-sample check. Where the
# advertised chart differs (fake |+>/|-> under Z, measure-resend X), the
# simulation is the authority and the gap is surfaced via claimed_value.
GHZ_CASES = [
    (AttackConfig("intercept_resend", "S_C", fake_state="0"), "Z", 0.5),
    (AttackConfig("intercept_resend", "S_C", fake_state="0"), "X", 0.5),
    (AttackConfig("intercept_resend", "S_C", fake_state="1"), "Z", 0.5),
    (AttackConfig("intercept_resend", "S_C", fake_state="1"), "X", 0.5),
    (AttackConfig("intercept_resend", "S_C", fake_state="+"), "Z", 0.5),
    (AttackConfig("intercept_resend", "S_C", fake_state="+"), "X", 0.5),
    (AttackConfig("intercept_resend", "S_C", fake_state="-"), "Z", 0.5),
    (AttackConfig("intercept_resend", "S_C", fake_state="-"), "X", 0.5),
    (AttackConfig("measure_resend", "S_C", eve_basis="Z"), "Z", 0.0),
    (AttackConfig("measure_resend", "S_C", eve_basis="Z"), "X", 0.5),
    (AttackConfig("measure_resend", "S_C", eve_basis="Z"), None, 0.25),
    (AttackConfig("measure_resend", "S_C", eve_basis="X"), "Z", 0.5),
    (AttackConfig("measure_resend", "S_C", eve_basis="X"), "X", 0.0),
    (AttackConfig("measure_resend", "S_C", eve_basis="X"), None, 0.25),
]


class TestExactRates:
    @pytest.mark.parametrize("cfg,basis,expect", GHZ_CASES)
    def test_ghz_check_rates(self, cfg, basis, expect):
        tpl = CheckTemplate(bob_basis=basis)
        assert exact_detection_probability(cfg, tpl) == pytest.approx(expect, abs=1e-12)

    def test_rates_independent_of_sample_label(self):
        for label in (GhzLabel.PSI3, GhzLabel.PSI6):
            tpl = CheckTemplate(sample_label=label, bob_basis="Z")
            cfg = AttackConfig("intercept_resend", "S_C", fake_state="0")
            assert exact_detection_probability(cfg, tpl) == pytest.approx(0.5)

    def test_decoy_check_rates(self):
        assert exact_detection_probability(
            AttackConfig("intercept_resend", "S_B"), CheckTemplate()) == pytest.approx(0.5)
        assert exact_detection_probability(
            AttackConfig("measure_resend", "S_B"), CheckTemplate()) == pytest.approx(0.25)
        assert exact_detection_probability(
            AttackConfig("intercept_resend", "S_A", fake_state="+"),
            CheckTemplate()) == pytest.approx(0.5)

    @pytest.mark.parametrize("beta_sq", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
    def test_entangle_rate_is_flip_probability(self, beta_sq):
        checks = [
            (AttackConfig.entangling(beta_sq), CheckTemplate(bob_basis="Z")),
            (AttackConfig.entangling(beta_sq, target="S_B"), CheckTemplate(decoy_basis="Z")),
            (AttackConfig.entangling(beta_sq, target="S_A"), CheckTemplate(decoy_basis="Z")),
        ]
        for cfg, template in checks:
            assert exact_detection_probability(cfg, template) == pytest.approx(beta_sq, abs=1e-12)
        # Monte Carlo against exact on the sample check and the S_B decoys:
        # 5 binomial standard deviations at a fixed seed (exact at 0 and 1)
        trials = 20_000
        bound = 5 * (beta_sq * (1 - beta_sq) / trials) ** 0.5 + 1e-12
        for cfg, template in checks[:2]:
            est = estimate_detection(cfg, template, trials=trials, seed=17)
            assert abs(est.rate - est.exact_value) <= bound, (cfg.target, est.rate)

    def test_entangle_invisible_to_x_decoys(self):
        rate = exact_detection_probability(
            AttackConfig.entangling(0.5, target="S_B"), CheckTemplate(decoy_basis="X"))
        assert rate == pytest.approx(0.0, abs=1e-12)


CROSS_ATTACKS = (
    [AttackConfig("none")]
    + [AttackConfig("intercept_resend", fake_state=f) for f in DECOY_TOKENS]
    + [AttackConfig.entangling(b2) for b2 in (0.0, 0.1, 0.25, 0.5, 1.0)]
)
CROSS_IDS = [f"{c.strategy}-{c.fake_state or c.beta_squared}" for c in CROSS_ATTACKS]


class TestHarnessMatchesSessionAttack:
    """The harness's Born tables (_TrialSampler) and the session's attack
    (apply_attack) model Eve independently; on every attack without a random
    choice they must give the same check outcome distribution."""

    @staticmethod
    def session_rows(cfg, pristine, role, basis, is_error):
        block = Block(pristine.amps[None].copy())
        rng = StreamBlock(0, 1)
        rng.key(0, 1)
        apply_attack(block, role, cfg, rng)
        dist = joint_distribution(StateVector(block.amps[0]), basis,
                                  [(q,) for q in block.at])
        return [(p, is_error(outs)) for outs, p in dist.items()]

    @staticmethod
    def assert_same_rows(sampler, key, rows):
        cum, flags = sampler.tables[key]
        probs = np.diff([0.0, *cum])
        assert flags == [e for _, e in rows], key
        assert np.abs(probs - [p for p, _ in rows]).max() <= 1e-12, key

    @pytest.mark.parametrize("cfg", CROSS_ATTACKS, ids=CROSS_IDS)
    def test_sample_check(self, cfg):
        for label in GhzLabel:
            sampler = _TrialSampler(cfg, CheckTemplate(sample_label=label))
            for basis, choice in sampler.tables:
                rows = self.session_rows(cfg, ghz_state(label), 2, basis,
                                         lambda outs: not ghz_sample_ok(label, basis, outs))
                self.assert_same_rows(sampler, (basis, choice), rows)

    @pytest.mark.parametrize("target", ["S_B", "S_A"])
    @pytest.mark.parametrize("cfg", CROSS_ATTACKS, ids=CROSS_IDS)
    def test_decoy_check(self, cfg, target):
        cfg = dataclasses.replace(cfg, target=target)
        sampler = _TrialSampler(cfg, CheckTemplate())
        for token, choice in sampler.tables:
            prep = DECOY_STATES[token]
            rows = self.session_rows(cfg, decoy_state(token), 0, prep.basis,
                                     lambda outs: outs != (prep.expected,))
            self.assert_same_rows(sampler, (token, choice), rows)


class TestClaimedRates:
    def test_ghz_chart(self):
        assert claimed_detection_rate(
            AttackConfig("intercept_resend", "S_C", fake_state="0"),
            CheckTemplate(bob_basis="Z")) == 0.5
        assert claimed_detection_rate(
            AttackConfig("intercept_resend", "S_C", fake_state="-"),
            CheckTemplate(bob_basis="Z")) == 0.75
        assert claimed_detection_rate(
            AttackConfig("measure_resend", "S_C", eve_basis="X"), CheckTemplate()) == 0.375
        assert claimed_detection_rate(
            AttackConfig("measure_resend", "S_C", eve_basis="Z"), CheckTemplate()) == 0.25

    def test_decoy_chart(self):
        assert claimed_detection_rate(AttackConfig("intercept_resend", "S_B")) == 0.5
        assert claimed_detection_rate(AttackConfig("measure_resend", "S_A")) == 0.25
        assert claimed_detection_rate(
            AttackConfig.entangling(0.3, target="S_B"),
            CheckTemplate(decoy_basis="Z")) == pytest.approx(0.3)

    def test_none_claims_zero(self):
        assert claimed_detection_rate(AttackConfig("none")) == 0.0


def scalar_detections(sampler, seed, trials):
    """Reference for estimate_detection: trial t draws its lead value, Eve's
    choice and its outcome one at a time from Rng(seed, t)."""
    detections = 0
    for t in range(trials):
        rng = Rng(seed, stream=t)
        lead = sampler.lead_values[rng.randrange(sampler.n_lead)] \
            if sampler.n_lead > 1 else sampler.lead_values[0]
        choice = sampler.eve_values[rng.randrange(sampler.n_eve)] \
            if sampler.n_eve > 1 else sampler.eve_values[0]
        cum, flags = sampler.tables[(lead, choice)]
        detections += flags[min(bisect_right(cum, rng.random()), len(flags) - 1)]
    return detections


DIFF_SEEDS = [0, 101, 2 ** 63 + 5, 2 ** 64 - 1, -3]
DIFF_ATTACKS = (
    [("none", {})]
    + [("intercept_resend", {"fake_state": f}) for f in (None, "0", "1", "+", "-")]
    + [("measure_resend", {"eve_basis": b}) for b in (None, "Z", "X")]
    + [("entangle_measure", {"beta_squared": 0.25})]
)
DIFF_CASES = [
    (AttackConfig(strategy, target, **kw),
     CheckTemplate(bob_basis=basis) if target == "S_C" else CheckTemplate(decoy_basis=basis))
    for (strategy, kw), target, basis in itertools.product(
        DIFF_ATTACKS, ("S_C", "S_B", "S_A"), (None, "Z", "X"))
]


class TestEstimateDetection:
    def test_no_attack_rate_exactly_zero(self):
        est = estimate_detection(AttackConfig("none"), trials=500, seed=0)
        assert est.rate == 0.0 and est.detections == 0

    def test_monte_carlo_tracks_exact(self):
        cases = [
            (AttackConfig("intercept_resend", "S_C", fake_state="+"), CheckTemplate(bob_basis="Z")),
            (AttackConfig("measure_resend", "S_C"), CheckTemplate()),
            (AttackConfig("intercept_resend", "S_B"), CheckTemplate()),
            (AttackConfig.entangling(0.25), CheckTemplate(bob_basis="Z")),
        ]
        for cfg, tpl in cases:
            est = estimate_detection(cfg, tpl, trials=20_000, seed=7)
            assert abs(est.rate - est.exact_value) < 0.015

    def test_deterministic_under_seed(self):
        cfg = AttackConfig("measure_resend", "S_C")
        a = estimate_detection(cfg, trials=2000, seed=5)
        b = estimate_detection(cfg, trials=2000, seed=5)
        assert a == b
        c = estimate_detection(cfg, trials=2000, seed=6)
        assert a.detections != c.detections

    def test_ci_halfwidth(self):
        est = estimate_detection(AttackConfig("intercept_resend", "S_B"),
                                 trials=10_000, seed=1)
        expect = 1.96 * np.sqrt(est.rate * (1 - est.rate) / est.trials)
        assert est.ci95 == pytest.approx(expect)

    def test_json_schema(self):
        est = estimate_detection(AttackConfig("measure_resend", "S_C"), trials=100, seed=2)
        doc = est.to_json_dict()
        assert set(doc) == {"strategy", "target", "params", "trials", "detections",
                            "rate", "ci95", "exact_value", "claimed_value", "abs_error"}

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            estimate_detection(AttackConfig("none"), trials=0)

    @pytest.mark.parametrize("cfg,template", DIFF_CASES,
                             ids=[f"{c.strategy}-{c.target}-{c.fake_state or c.eve_basis}-"
                                  f"{t.bob_basis or t.decoy_basis}" for c, t in DIFF_CASES])
    def test_block_draws_equal_scalar_trials(self, cfg, template):
        """Same detection count as one scalar Rng per trial, for trial
        counts on both sides of the block edges; the scalar reference also
        pins the draws per trial (1 + [n_lead > 1] + [n_eve > 1])."""
        sampler = _TrialSampler(cfg, template)
        for i, trials in enumerate((1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)):
            seed = DIFF_SEEDS[i]
            est = estimate_detection(cfg, template, trials=trials, seed=seed)
            assert est.detections == scalar_detections(sampler, seed, trials), (trials, seed)

    def test_heap_does_not_grow_with_trials(self):
        # bb84-ir: a uniform decoy and a uniform fake state per trial, the
        # most draws and table rows of the benchmark's detection cases
        cfg = AttackConfig("intercept_resend", "S_B")

        def peak(trials):
            estimate_detection(cfg, trials=trials, seed=3)  # warm the caches
            tracemalloc.start()
            try:
                estimate_detection(cfg, trials=trials, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(100_000) - peak(1_000) <= 16 * 1024


class TestAttackLocality:
    def test_attack_on_sb_leaves_other_checks_clean(self):
        attack = AttackConfig("measure_resend", target="S_B")
        cfg = SessionConfig(n_groups=1, seed=11, decoys=20, attack=attack,
                            check_threshold=0.999)
        t = run_session(cfg, "010", "101")
        by_step = {c.step: c for c in t.checks}
        assert by_step[2].errors == 0
        assert by_step[4].errors > 0
        assert by_step[5].errors == 0

    def test_attack_on_sa_only_hits_step5(self):
        attack = AttackConfig("intercept_resend", target="S_A")
        cfg = SessionConfig(n_groups=1, seed=6, decoys=20, attack=attack,
                            check_threshold=0.999)
        t = run_session(cfg, "010", "101")
        by_step = {c.step: c for c in t.checks}
        assert by_step[2].errors == 0 and by_step[4].errors == 0
        assert by_step[5].errors > 0
