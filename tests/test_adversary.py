import dataclasses
import itertools
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqsdc import qcore
from bqsdc.adversary import (_BLOCK, _ROW_END, TARGETS, AttackConfig, CheckTemplate,
                             _eve_axis, _TrialSampler, apply_attack, attack_choices,
                             claimed_detection_rate, eavesdrop_unitary, estimate_detection,
                             exact_detection_probability)
from bqsdc.checks import (CHECK_BASES, DECOY_ERRORS, DECOY_STATES, DECOY_TOKENS, decoy_state,
                          ghz_sample_ok, sample_errors)
from bqsdc.codebook import ghz_rows
from bqsdc.labels import GhzLabel
from bqsdc.protocol import SessionConfig, run_session
from bqsdc.qcore import (ZERO_TOL, MeasBasis, Rng, StreamBlock, basis_labels,
                         born_distribution, joint_distribution)


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

    def test_one_writer_for_the_transcript_and_the_estimate(self):
        cfg = AttackConfig.entangling(0.1 + 0.2, target="S_B")
        doc = cfg.to_json_dict()
        assert doc == {"strategy": "entangle_measure", "target": "S_B", "fake_state": None,
                       "eve_basis": None, "beta_squared": 0.3}
        assert list(doc) == ["strategy", "target", "fake_state", "eve_basis", "beta_squared"]
        assert SessionConfig(n_groups=1, attack=cfg).to_json_dict()["attack"] == doc
        params = estimate_detection(cfg, CheckTemplate(decoy_basis="Z"), trials=10).params
        assert list(params)[:3] == list(doc)[2:]
        assert all(params[key] == doc[key] for key in list(doc)[2:])


class TestCheckTemplate:
    def test_sample_label_is_a_label(self):
        template = CheckTemplate(sample_label=3)
        assert template.sample_label is GhzLabel.PSI3
        est = estimate_detection(AttackConfig("none"), template, trials=1)
        assert est.params["sample_label"] == "psi3"

    def test_bool_is_not_a_label(self):
        # True once became psi1
        for bad in (True, False):
            with pytest.raises(TypeError, match="sample_label"):
                CheckTemplate(sample_label=bad)

    def test_validation(self):
        # -1 once measured psi7 silently, and 9 or "psi1" failed deep inside
        for bad in (-1, 8, 9, 1.5, "psi1"):
            with pytest.raises(ValueError):
                CheckTemplate(sample_label=bad)
        # a bad basis is refused whichever target would read it
        for field in ("bob_basis", "decoy_basis"):
            for bad in ("Y", "z", "", "uniform", MeasBasis.Z):
                with pytest.raises(ValueError):
                    CheckTemplate(**{field: bad})
            for good in ("Z", "X", None):
                assert getattr(CheckTemplate(**{field: good}), field) == good


AXIS_CONFIGS = (
    [AttackConfig("none"), AttackConfig.entangling(0.25), AttackConfig("intercept_resend"),
     AttackConfig("measure_resend")]
    + [AttackConfig("intercept_resend", fake_state=f) for f in DECOY_TOKENS]
    + [AttackConfig("measure_resend", eve_basis=b) for b in ("Z", "X")]
)


@pytest.mark.parametrize("target", TARGETS)
def test_session_and_harness_read_one_eve_axis(target):
    # the harness's choice axis is _eve_axis, and the session draws Eve's
    # pick from the units' streams exactly when it has several entries;
    # otherwise every unit takes the axis's one entry
    for cfg in AXIS_CONFIGS:
        cfg = dataclasses.replace(cfg, target=target)
        axis = _eve_axis(cfg)
        assert _TrialSampler(cfg, CheckTemplate()).eve_values == axis
        rng = StreamBlock(5, 64)
        rng.key(0, 64)
        choices = attack_choices(cfg, rng, lambda basis, rng: np.zeros(64, dtype=np.intp))
        assert rng.drawn == (len(axis) > 1), cfg  # the block counts its draws
        picks = np.unique(np.asarray(choices) // (2 if cfg.strategy == "measure_resend" else 1))
        assert picks.tolist() == list(axis), cfg


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


def attacked_block(cfg, choices=0, count=3, role=2):
    """A block of GHZ triples with Eve's strategy run on qubit role of each,
    row j taking her choice choices[j] (or one choice for all), and the
    block before."""
    before = ghz_rows()[[GhzLabel.PSI0] * count]
    return apply_attack(before, role, cfg, choices), before


class TestAttackApplication:
    @pytest.mark.parametrize("role", [0, 1, 2])
    def test_intercept_returns_fresh_particle(self, role):
        # the fake takes the particle's qubit; the genuine particle stays in
        # the register as its last qubit, still entangled with the other two.
        # Equal as numbers: the SWAP's sums turn a -0.0 of the product into 0.0
        for token in DECOY_TOKENS:
            cfg = AttackConfig("intercept_resend", fake_state=token)
            block, before = attacked_block(cfg, attack_choices(cfg, None, None), role=role)
            assert block.shape == (3, 16)
            for row, prior in zip(block, before):
                joined = np.kron(prior, decoy_state(token).amps)
                expect = joined.reshape((2,) * 4).swapaxes(role, 3).reshape(-1)
                assert np.array_equal(row, expect), (role, token)

    def test_measure_resend_collapses(self):
        # Z-basis outcomes 0, 1, 0
        cfg = AttackConfig("measure_resend", eve_basis="Z")
        outcomes = np.array([0, 1, 0])
        block, _ = attacked_block(cfg, attack_choices(cfg, None, lambda basis, lanes: outcomes))
        assert block.shape == (3, 8)
        for row, outcome in zip(block, (0, 1, 0)):
            # the whole triple collapsed to a definite computational state,
            # the one of Eve's outcome
            probs = np.abs(row) ** 2
            assert max(probs) == pytest.approx(1.0)
            assert probs[7 * outcome] == pytest.approx(1.0)

    def test_entangle_appends_ancilla(self):
        block, _ = attacked_block(AttackConfig.entangling(0.25))
        assert block.shape == (3, 16)
        qcore._check_rows(block)  # every row finite and normalized to ATOL

    def test_none_is_identity(self):
        block, before = attacked_block(AttackConfig("none"))
        assert block is before
        assert all(np.array_equal(row, ghz_rows()[GhzLabel.PSI0]) for row in block)


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

    @pytest.mark.parametrize("target", ["S_A", "S_B", "S_C"])
    def test_no_attack_rate_is_a_float_zero(self, target):
        # no row has an error path: the report writes 0.0, never the int 0
        rate = exact_detection_probability(AttackConfig("none", target), CheckTemplate())
        assert type(rate) is float and rate == 0.0

    @pytest.mark.parametrize("target", TARGETS)
    def test_rate_equals_the_running_total_replay(self, target):
        # exact_rate sums the error paths' weights in one numpy call; the
        # loop it replaced, each weight the difference of the running totals
        # around it, added one at a time in row order, is the reference
        for cfg in AXIS_CONFIGS:
            cfg = dataclasses.replace(cfg, target=target)
            for template in (CheckTemplate(), CheckTemplate(bob_basis="Z", decoy_basis="X")):
                sampler = _TrialSampler(cfg, template)
                steps = np.diff(sampler.weights.cumsum(axis=1), axis=1, prepend=0.0)
                total = 0.0
                for step in (1.0 / (sampler.n_lead * sampler.n_eve)
                             * steps[sampler.errors]).tolist():
                    total += step
                assert sampler.exact_rate() == pytest.approx(total, abs=1e-12), cfg

    def test_entangle_invisible_to_x_decoys(self):
        rate = exact_detection_probability(
            AttackConfig.entangling(0.5, target="S_B"), CheckTemplate(decoy_basis="X"))
        assert rate == pytest.approx(0.0, abs=1e-12)


def sampler_keys(sampler):
    """The (lead, choice) pair of every row of a _TrialSampler, in row order:
    a basis index in CHECK_BASES (S_C) or a decoy kind, and Eve's choice."""
    return list(itertools.product(sampler.lead_values, sampler.eve_values))


def sampler_table(sampler, lead, choice):
    """(cum, flags) of the row of (lead, choice): the running totals of its
    live outcome paths' probabilities and their error flags, in path order."""
    k = sampler.lead_values.index(lead) * sampler.n_eve + sampler.eve_values.index(choice)
    live = sampler.weights[k] > 0
    return sampler.weights[k].cumsum()[live].tolist(), sampler.errors[k][live].tolist()


def test_sampler_expands_every_row_in_one_call(monkeypatch):
    # uniform intercept-resend on S_B draws both the decoy and Eve's fake
    calls = []
    branch_rows = qcore.branch_rows

    def counted(amps, *args, **kwargs):
        calls.append(len(amps))
        return branch_rows(amps, *args, **kwargs)

    monkeypatch.setattr(qcore, "branch_rows", counted)
    sampler = _TrialSampler(AttackConfig("intercept_resend", "S_B"), CheckTemplate())
    assert (sampler.n_lead, sampler.n_eve) == (4, 4)
    assert calls == [16]


CROSS_ATTACKS = (
    [AttackConfig("none")]
    + [AttackConfig("intercept_resend", fake_state=f) for f in DECOY_TOKENS]
    + [AttackConfig.entangling(b2) for b2 in (0.0, 0.1, 0.25, 0.5, 1.0)]
    + [AttackConfig("measure_resend", eve_basis=b) for b in ("Z", "X")]
)
CROSS_IDS = [f"{c.strategy}-{c.fake_state or c.eve_basis or c.beta_squared}"
             for c in CROSS_ATTACKS]


@pytest.mark.parametrize("target", ["S_A", "S_B", "S_C"])
def test_each_row_ends_in_its_last_live_outcome(target):
    # a row's edges are its live paths', in one ascending array, and the
    # row-end edge carries the flag of the row's last live path
    for cfg in CROSS_ATTACKS + [AttackConfig("intercept_resend"), AttackConfig("measure_resend")]:
        sampler = _TrialSampler(dataclasses.replace(cfg, target=target), CheckTemplate())
        edges = sampler._edges
        assert (edges[1:] > edges[:-1]).all()
        rows, low = edges >> np.uint64(54), edges & np.uint64(_ROW_END)
        for k, (weights, errors) in enumerate(zip(sampler.weights, sampler.errors)):
            live = weights > 0
            mine = rows == k
            assert mine.sum() == live.sum()
            assert low[mine][-1] == _ROW_END and (low[mine][:-1] < _ROW_END).all()
            assert sampler._flags[mine].tolist() == errors[live].tolist()


@pytest.mark.parametrize("target", TARGETS)
def test_sampler_errors_are_the_check_tables(target):
    # every row of the harness flags the errors of its check's row in the
    # session's tables, whatever Eve does
    bases = (None, "Z", "X")
    templates = ([CheckTemplate(label, bob_basis=b) for label in GhzLabel for b in bases]
                 if target == "S_C" else [CheckTemplate(decoy_basis=b) for b in bases])
    for cfg in CROSS_ATTACKS + [AttackConfig("intercept_resend"), AttackConfig("measure_resend")]:
        for template in templates:
            sampler = _TrialSampler(dataclasses.replace(cfg, target=target), template)
            for k, (lead, _) in enumerate(sampler_keys(sampler)):
                table = (sample_errors()[template.sample_label, lead]
                         if target == "S_C" else DECOY_ERRORS[lead])
                assert sampler.errors[k].tolist() == table.tolist(), (cfg, template, lead)


class TestHarnessMatchesSessionAttack:
    """The harness's Born tables (_TrialSampler) and the session's attack
    (apply_attack) model Eve independently; on every attack without a random
    choice they must give the same check outcome distribution. The session's
    measure-resend, a projective collapse, is run once per live outcome of
    Eve's measurement, with that outcome as her choice, and weighted by its
    Born probability."""

    @staticmethod
    def eve_choices(cfg, pristine, role):
        """(weight, choice) pairs whose attacks, weighted, make up Eve's:
        under measure-resend the choice attack_choices makes for each live
        outcome j of her measurement, weighted by its Born probability."""
        if cfg.strategy != "measure_resend":
            return [(1.0, attack_choices(cfg, None, None))]
        dist = born_distribution(pristine, MeasBasis(cfg.eve_basis), [role])
        return [(p, attack_choices(cfg, None, lambda basis, lanes: j))
                for j, p in enumerate(dist.values()) if p > ZERO_TOL]

    @classmethod
    def session_rows(cls, cfg, pristine, role, basis, is_error):
        dist = {}
        for weight, choice in cls.eve_choices(cfg, pristine, role):
            block = apply_attack(pristine[None].copy(), role, cfg, choice)
            # the checked particles keep their qubits; Eve's is the last
            qubits = [(q,) for q in range(pristine.size.bit_length() - 1)]
            for outs, p in joint_distribution(block[0], basis, qubits).items():
                dist[outs] = dist.get(outs, 0.0) + weight * p
        # the harness's keys come in lexicographic basis order
        order = basis_labels(basis)
        return [(dist[outs], is_error(outs))
                for outs in sorted(dist, key=lambda outs: [order.index(o) for o in outs])]

    @staticmethod
    def assert_same_rows(sampler, key, rows):
        cum, flags = sampler_table(sampler, *key)
        probs = np.diff([0.0, *cum])
        assert flags == [e for _, e in rows], key
        assert np.abs(probs - [p for p, _ in rows]).max() <= 1e-12, key

    @pytest.mark.parametrize("cfg", CROSS_ATTACKS, ids=CROSS_IDS)
    def test_sample_check(self, cfg):
        for label in GhzLabel:
            sampler = _TrialSampler(cfg, CheckTemplate(sample_label=label))
            for w, choice in sampler_keys(sampler):
                basis = CHECK_BASES[w]
                rows = self.session_rows(cfg, ghz_rows()[label], 2, basis,
                                         lambda outs: not ghz_sample_ok(label, basis, outs))
                self.assert_same_rows(sampler, (w, choice), rows)

    @pytest.mark.parametrize("target", ["S_B", "S_A"])
    @pytest.mark.parametrize("cfg", CROSS_ATTACKS, ids=CROSS_IDS)
    def test_decoy_check(self, cfg, target):
        cfg = dataclasses.replace(cfg, target=target)
        sampler = _TrialSampler(cfg, CheckTemplate())
        for kind, choice in sampler_keys(sampler):
            prep = DECOY_STATES[DECOY_TOKENS[kind]]
            rows = self.session_rows(cfg, decoy_state(prep.token).amps, 0, prep.basis,
                                     lambda outs: outs != (prep.expected,))
            self.assert_same_rows(sampler, (kind, choice), rows)


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
        cum, flags = sampler_table(sampler, lead, choice)
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

    def test_trials_and_seed_are_integers(self):
        # a float once failed in numpy, and True ran one trial
        for name in ("trials", "seed"):
            for bad in (2.5, True, "2"):
                with pytest.raises(TypeError, match=name):
                    estimate_detection(AttackConfig("none"), **{"trials": 2, name: bad})

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
