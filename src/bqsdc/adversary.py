"""Eavesdropping strategies and their detection statistics.

Three attacks can be mounted on any of the three transmissions: substitute
a fresh fake particle (intercept-resend), measure in flight and forward the
collapsed particle (measure-resend), or couple a one-qubit ancilla through
a unitary that flips the target with probability beta**2
(entangle-measure). Eve treats every particle of a sequence alike, so an
attack runs on many registers at once, each with her own choice for it
(attack_choices). The fake or the forwarded particle keeps the attacked
qubit; the genuine particle Eve keeps, or her ancilla, goes last.

The Monte Carlo harness runs independent single-decoy check experiments,
one keyed random stream per trial. Every (check, Eve choice) pair is a row
of one exact Born expansion (qcore.branch_rows): Eve acts on the particle
in flight, then every particle is measured in the check's basis. Each trial
draws its check, Eve's choice and its outcome from those tables, a block of
trials at a time (qcore.StreamBlock), with the counts of one scalar Rng per
trial. The rows model Eve independently of apply_attack: her measurement is
a copy of the particle's basis outcome onto an ancilla nobody measures,
which leaves the check the same mixture of collapsed states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qcore
# decoy_state and measure_particles have no caller here: bench/tracer.py wraps
# them in this namespace, so they stay imported until the tracer drops them.
from .checks import (DECOY_STATES, DECOY_TOKENS, consistent_ghz_outcomes,  # noqa: F401
                     decoy_rows, decoy_state)
from .codebook import ghz_rows
from .labels import GhzLabel
from .qcore import ZERO_TOL, MeasBasis, StreamBlock, basis_labels
from .qcore import measure_rows as measure_particles  # noqa: F401

STRATEGIES = ("none", "intercept_resend", "measure_resend", "entangle_measure")
TARGETS = ("S_C", "S_B", "S_A")

_BASIS_TOKENS = ("Z", "X")
EVE_BASES = tuple(MeasBasis(token) for token in _BASIS_TOKENS)

# SWAP on (particle, fake): intercept-resend's fake takes the particle's
# qubit, and the genuine particle moves to the fake's, the last.
_SWAP = np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]
_SWAP.setflags(write=False)
# |0>, the state Eve prepares each ancilla in.
_ZERO = np.array([1, 0], dtype=np.complex128)
_ZERO.setflags(write=False)

# Trials drawn together by estimate_detection: enough to amortise numpy's
# per-call cost, few enough that the buffers stay a few KB.
_BLOCK = 512
# Low bits of each table row's last edge: above every outcome draw m < 2**53
# and every scaled edge, below the next row.
_ROW_END = (1 << 54) - 1


@dataclass(frozen=True)
class AttackConfig:
    """Which transmission Eve attacks, with which strategy and parameters.

    fake_state (intercept-resend only) and eve_basis (measure-resend only)
    of None mean a fresh uniform draw per particle. beta_squared is the flip
    probability of the entangling attack and stays 0 for the others.
    """

    strategy: str
    target: str = "S_C"
    fake_state: str | None = None
    eve_basis: str | None = None
    beta_squared: float = 0.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.fake_state is not None and self.fake_state not in DECOY_TOKENS:
            raise ValueError(f"fake state must be one of {DECOY_TOKENS}")
        if self.eve_basis is not None and self.eve_basis not in _BASIS_TOKENS:
            raise ValueError("eve_basis must be 'Z' or 'X'")
        if not 0.0 <= self.beta_squared <= 1.0:
            raise ValueError("beta_squared must lie in [0, 1]")
        if self.fake_state is not None and self.strategy != "intercept_resend":
            raise ValueError("a fake state goes with the intercept-resend attack only")
        if self.eve_basis is not None and self.strategy != "measure_resend":
            raise ValueError("Eve's basis goes with the measure-resend attack only")
        if self.beta_squared != 0.0 and self.strategy != "entangle_measure":
            raise ValueError("beta_squared goes with the entangling attack only")

    @classmethod
    def entangling(cls, beta_squared: float, target: str = "S_C") -> "AttackConfig":
        return cls("entangle_measure", target=target, beta_squared=beta_squared)


@lru_cache(maxsize=16)
def eavesdrop_unitary(beta_squared: float) -> np.ndarray:
    """Two-qubit coupling on (target, ancilla), ancilla prepared in |0>,
    as a shared read-only matrix: |i,0> -> alpha|i,0> + i*beta|i^1,1>, beta
    = sqrt(beta_squared), alpha = sqrt(1 - beta_squared), so the ancilla
    records a flip. The phase i makes the matrix exactly unitary and is
    unobservable in the detection statistic.
    """
    if not 0.0 <= beta_squared <= 1.0:
        raise ValueError("beta_squared must lie in [0, 1]")
    alpha = math.sqrt(1.0 - beta_squared)
    ib = 1j * math.sqrt(beta_squared)
    u = np.array([
        [alpha, 0, 0, ib],
        [0, alpha, ib, 0],
        [0, ib, alpha, 0],
        [ib, 0, 0, alpha],
    ], dtype=np.complex128)
    u.setflags(write=False)
    return u


def attack_choices(cfg: AttackConfig, lanes, outcomes):
    """Eve's choice per unit of a block, as apply_attack takes it: her
    fake's index in DECOY_TOKENS (intercept-resend), 2 * her basis's index
    in EVE_BASES + her outcome (measure-resend), else 0. lanes() keys the
    units' streams, drawn for a uniform fake or basis only; outcomes(basis,
    lanes) draws each unit's outcome in EVE_BASES[basis] after the basis."""
    if cfg.strategy == "intercept_resend":
        return (lanes().randrange(len(DECOY_TOKENS)) if cfg.fake_state is None
                else DECOY_TOKENS.index(cfg.fake_state))
    if cfg.strategy != "measure_resend":
        return 0
    if cfg.eve_basis is None:
        rng = lanes()
        basis, lanes = rng.randrange(len(EVE_BASES)), lambda: rng
    else:
        basis = _BASIS_TOKENS.index(cfg.eve_basis)
    return 2 * basis + outcomes(basis, lanes)


def append_ancilla(amps: np.ndarray, states: np.ndarray,
                   coupling: tuple[int, np.ndarray]) -> np.ndarray:
    """Tensor a fresh one-qubit state onto every register as its last
    qubit, states[i] onto row i or one state (2,) onto all; coupling =
    (qubit, matrix) then acts on that qubit and the new one."""
    qubit, matrix = coupling
    return qcore.apply_unitary_rows(qcore.tensor_rows(amps, states), matrix,
                                    (qubit, amps.shape[1].bit_length() - 1))


def apply_attack(amps: np.ndarray, role: int, cfg: AttackConfig, choices) -> np.ndarray:
    """The rows of amps after Eve's strategy on qubit role, the particle in
    flight, row i taking choices[i] (or one choice for all; attack_choices),
    an outcome of nonzero probability under measure-resend."""
    if cfg.strategy == "intercept_resend":
        # inject a fake in the particle's place; the genuine particle goes
        # last, stored and never measured
        return append_ancilla(amps, decoy_rows()[choices], coupling=(role, _SWAP))
    if cfg.strategy == "measure_resend":
        # forward the particle collapsed onto Eve's outcome
        basis, outcome = np.divmod(np.broadcast_to(choices, len(amps)), 2)
        return qcore.collapse_rows(amps, EVE_BASES, [(role,)], [outcome], which=basis)
    if cfg.strategy == "entangle_measure":
        # couple a fresh ancilla to the particle in flight
        return append_ancilla(amps, _ZERO, coupling=(role, eavesdrop_unitary(cfg.beta_squared)))
    return amps


@dataclass(frozen=True)
class CheckTemplate:
    """Single-decoy check experiment repeated by the detection harness: for
    the GHZ-sample check (S_C) the sample label and Bob's basis, None a
    uniform per-trial choice; for the decoy checks (S_B, S_A) the decoys'
    basis, None uniform over all four decoy states.
    """

    sample_label: GhzLabel = GhzLabel.PSI0
    bob_basis: str | None = None
    decoy_basis: str | None = None


@dataclass(frozen=True)
class DetectionEstimate:
    """Empirical per-decoy detection rate with a binomial 95% interval."""

    strategy: str
    target: str
    params: dict
    trials: int
    detections: int
    rate: float
    ci95: float
    exact_value: float
    claimed_value: float | None
    abs_error: float | None

    def to_json_dict(self) -> dict:
        return {"strategy": self.strategy, "target": self.target, "params": dict(self.params),
                "trials": self.trials, "detections": self.detections, "rate": self.rate,
                "ci95": self.ci95, "exact_value": self.exact_value,
                "claimed_value": self.claimed_value, "abs_error": self.abs_error}


def _eve_choices(cfg: AttackConfig) -> list:
    """Eve's per-particle choice axis, drawn when it has several values."""
    if cfg.strategy == "intercept_resend":
        return list(DECOY_TOKENS) if cfg.fake_state is None else [cfg.fake_state]
    if cfg.strategy == "measure_resend":
        return list(_BASIS_TOKENS) if cfg.eve_basis is None else [cfg.eve_basis]
    return [None]


@lru_cache(maxsize=None)
def _copy_unitary(basis: MeasBasis) -> np.ndarray:
    """Eve's measurement in basis as a copy onto an ancilla prepared in |0>,
    on (target, ancilla), as a shared read-only matrix: the sum over the
    basis vectors v_j of |v_j><v_j| (x) X**j maps |v_j, 0> to |v_j, j>."""
    (_, v0), (_, v1) = qcore.basis_outcomes(basis)
    u = np.kron(np.outer(v0, v0.conj()), qcore.I) + np.kron(np.outer(v1, v1.conj()), qcore.SX)
    u.setflags(write=False)
    return u


def _decoy_axis(template: CheckTemplate) -> list[str]:
    if template.decoy_basis is None:
        return list(DECOY_TOKENS)
    if template.decoy_basis in _BASIS_TOKENS:
        return [token for token, prep in DECOY_STATES.items()
                if prep.basis.value == template.decoy_basis]
    raise ValueError("decoy_basis must be 'Z', 'X', or None")


def _basis_axis(template: CheckTemplate) -> list[MeasBasis]:
    if template.bob_basis is None:
        return [MeasBasis.Z, MeasBasis.X]
    if template.bob_basis in _BASIS_TOKENS:
        return [MeasBasis(template.bob_basis)]
    raise ValueError("bob_basis must be 'Z', 'X', or None")


class _TrialSampler:
    """Check trials sampled from exactly expanded branch tables. Row k = lead
    index * n_eve + choice index is a check on the lead's state after Eve's
    choice, every particle measured in the lead's basis: weights[k, p] the
    probability of outcome path p (lexicographic in basis order), 0 where a
    round on the path has probability at or below ZERO_TOL, and errors[k, p]
    whether that path fails the check."""

    def __init__(self, cfg: AttackConfig, template: CheckTemplate):
        self.eve_values = _eve_choices(cfg)
        if cfg.target == "S_C":
            self.lead_values, role = _basis_axis(template), 2
            label = template.sample_label
            checks = [(ghz_rows()[label], basis, consistent_ghz_outcomes(label, basis))
                      for basis in self.lead_values]
        else:
            self.lead_values, role = _decoy_axis(template), 0
            checks = [(decoy_rows()[DECOY_TOKENS.index(token)], DECOY_STATES[token].basis,
                       {(DECOY_STATES[token].expected,)}) for token in self.lead_values]
        self.n_lead, self.n_eve = len(self.lead_values), len(self.eve_values)
        lead, choice = np.divmod(np.arange(self.n_lead * self.n_eve), self.n_eve)
        pristine, bases, allowed = zip(*checks)
        states = np.stack(pristine)[lead]
        n = states.shape[1].bit_length() - 1
        rounds = [(q,) for q in range(n)]
        if cfg.strategy == "intercept_resend":
            # Eve keeps the genuine particle unmeasured; the check measures her fake
            fakes = decoy_rows()[[DECOY_TOKENS.index(token) for token in self.eve_values]]
            states = qcore.tensor_rows(states, fakes[choice])
            rounds[role] = (n,)
        elif cfg.strategy != "none":
            coupling = (np.stack([_copy_unitary(MeasBasis(b)) for b in self.eve_values])[choice]
                        if cfg.strategy == "measure_resend" else eavesdrop_unitary(cfg.beta_squared))
            states = append_ancilla(states, _ZERO, (role, coupling))
        which = np.array([EVE_BASES.index(basis) for basis in bases])[lead]
        # a path's weight is its rounds' entries multiplied left to right, as
        # joint_distribution multiplies them
        weights = np.ones((len(states), 1))
        for table in qcore.branch_rows(states, EVE_BASES, rounds, which):
            weights = (weights[:, :, None] * np.where(table > ZERO_TOL, table, 0.0)).reshape(
                len(states), -1)
        self.weights = weights
        self.errors = np.array([[outs not in ok for outs in itertools.product(
            basis_labels(basis), repeat=n)] for basis, ok in zip(bases, allowed)])[lead]
        # Row k's live edges, each the running total e of its row up to it, as
        # k << 54 | ceil(e * 2**53), in one sorted array. The last is the row
        # end, so that an m past the total, where it rounded below 1, takes
        # the row's last live outcome.
        live = weights > 0
        edges = np.ceil(weights.cumsum(axis=1) * 2.0 ** 53).astype(np.uint64)
        edges[np.arange(len(edges)), live.shape[1] - 1 - live[:, ::-1].argmax(axis=1)] = _ROW_END
        edges |= np.arange(len(edges), dtype=np.uint64)[:, None] << np.uint64(54)
        self._edges, self._flags = edges[live], self.errors[live]

    def count_detections(self, seed: int, trials: int) -> int:
        """Detections among trials 0, ..., trials - 1, in blocks of _BLOCK.
        Trial t draws from the stream (seed, t): the lead index u64 % n_lead
        when n_lead > 1, Eve's choice u64 % n_eve when n_eve > 1, then the
        outcome m = u64 >> 11, whose flag is that of the first edge e of its
        row's table with m * 2**-53 < e. Scaling by 2**53 is exact in
        binary64, so that edge is the first with ceil(e * 2**53) > m, and
        one searchsorted of k << 54 | m over all rows finds it for every
        trial of a block.
        """
        streams = StreamBlock(seed, min(trials, _BLOCK))
        rows = np.empty(streams.size, dtype=np.uint64)
        # each axis adds index * weight << 54 to the row's high bits
        axes = [(np.uint64(size), np.uint64(weight << 54))
                for size, weight in ((self.n_lead, self.n_eve), (self.n_eve, 1)) if size > 1]
        detections = 0
        for start in range(0, trials, streams.size):
            n = min(streams.size, trials - start)
            streams.key(start, n)
            row = rows[:n]
            row.fill(0)
            for draw, (size, weight) in enumerate(axes):
                u = streams.draw(draw)
                u %= size
                u *= weight
                row += u
            query = streams.draw(len(axes))
            query >>= np.uint64(11)
            query |= row
            idx = np.searchsorted(self._edges, query, side="right")
            detections += int(np.count_nonzero(self._flags[idx]))
        return detections

    def exact_rate(self) -> float:
        # each error path's weight as the difference of the running totals
        # around it, added one at a time in row order
        steps = np.diff(self.weights.cumsum(axis=1), axis=1, prepend=0.0)
        total = 0.0
        for step in (1.0 / (self.n_lead * self.n_eve) * steps[self.errors]).tolist():
            total += step
        # the cumulative sums leave float error in the last digits; the
        # rate is reported Born-exact, as beta_squared is, to 12 decimals
        return round(total, 12)


def exact_detection_probability(cfg: AttackConfig,
                                template: CheckTemplate = CheckTemplate()) -> float:
    """Born-exact per-decoy detection probability for the configured check."""
    return _TrialSampler(cfg, template).exact_rate()


def claimed_detection_rate(cfg: AttackConfig,
                           template: CheckTemplate = CheckTemplate()) -> float | None:
    """Advertised detection rate for this attack/check pair, where one is
    stated; None otherwise. Reported next to the measured rate so that any
    gap between claims and the exact simulation is visible, not hidden.

    The Born rule contradicts these GHZ-sample entries, which treat the
    three sample outcomes as independent uniform bits:
      - fake + or - under a Z check: 0.75 advertised, 0.5 exact (0.625
        against 0.5 under a uniform check);
      - X-basis measure-resend under a Z check: 0.75 advertised, 0.5 exact;
      - X-basis measure-resend under a uniform check: 0.375 advertised,
        0.25 exact.
    An action on C alone leaves Alice's pair exactly Z-correlated, so a Z
    check catches it only when Bob's outcome disagrees with that pair."""
    if cfg.strategy == "none":
        return 0.0
    if cfg.target == "S_C":
        bob = template.bob_basis
        if cfg.strategy == "intercept_resend":
            if cfg.fake_state in ("0", "1"):
                return 0.5
            if cfg.fake_state in ("+", "-"):
                return {"Z": 0.75, "X": 0.5, None: 0.625}[bob]
            return None
        if cfg.strategy == "measure_resend":
            if cfg.eve_basis == "Z":
                return {"Z": 0.0, "X": 0.5, None: 0.25}[bob]
            if cfg.eve_basis == "X":
                return {"Z": 0.75, "X": 0.0, None: 0.375}[bob]
            return None
        if template.bob_basis == "Z":
            return cfg.beta_squared
        return None
    if cfg.strategy == "intercept_resend":
        return 0.5
    if cfg.strategy == "measure_resend":
        return 0.25
    if template.decoy_basis == "Z":
        return cfg.beta_squared
    return None


def estimate_detection(cfg: AttackConfig, template: CheckTemplate = CheckTemplate(),
                       trials: int = 100_000, seed: int = 0) -> DetectionEstimate:
    """Monte Carlo per-decoy detection estimate over independent trials,
    trial t drawing from the stream (seed, t), in blocks of _BLOCK whose
    memory does not grow with the trial count (_TrialSampler).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    sampler = _TrialSampler(cfg, template)
    detections = sampler.count_detections(seed, trials)
    rate = detections / trials
    claimed = claimed_detection_rate(cfg, template)
    params = {
        "fake_state": cfg.fake_state,
        "eve_basis": cfg.eve_basis,
        "beta_squared": round(cfg.beta_squared, 12),
        "sample_label": template.sample_label.token if cfg.target == "S_C" else None,
        "bob_basis": template.bob_basis if cfg.target == "S_C" else None,
        "decoy_basis": template.decoy_basis if cfg.target != "S_C" else None,
        "seed": seed,
    }
    return DetectionEstimate(
        cfg.strategy, cfg.target, params, trials, detections, rate,
        ci95=1.96 * math.sqrt(max(rate * (1.0 - rate), 0.0) / trials),
        exact_value=sampler.exact_rate(), claimed_value=claimed,
        abs_error=None if claimed is None else abs(rate - claimed))
