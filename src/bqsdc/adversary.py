"""Eavesdropping strategies and their detection statistics.

Three attacks can be mounted on any of the three transmissions: substitute
a fresh fake particle (intercept-resend), measure in flight and forward the
collapsed particle (measure-resend), or couple a one-qubit ancilla through
a unitary that flips the target with probability beta**2
(entangle-measure). Eve treats every particle of a sequence alike, so an
attack runs on a block of registers at once, each drawing from its own
keyed stream.

The Monte Carlo harness runs independent single-decoy check experiments,
one keyed random stream per trial. Every (check, Eve choice) pair is
expanded exactly once with the state-vector engine, by one expansion for
the GHZ-sample and the decoy checks alike: Eve acts on the transmitted
particle, then every particle is measured in the check's basis. Each trial
then draws its check, Eve's choice and its outcome from those exact Born
tables, so 1e5 trials stay fast without approximating anything. The tables
model Eve independently of apply_attack, which the session runs.

Trials are drawn a block at a time in numpy (qcore.StreamBlock). The
streams are counter-based, so draw i of trial t's stream is a pure function
of (seed, t, i) that uint64 arithmetic computes for a whole block at once,
and one sorted search looks up every trial's outcome in the Born tables.
The counts are those of drawing each trial from its own scalar Rng.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import qcore
from .checks import DECOY_STATES, DECOY_TOKENS, consistent_ghz_outcomes, decoy_state
from .codebook import ghz_state
from .labels import GhzLabel
from .particles import Block, append_ancilla, measure_in_bases, measure_particles
from .qcore import MeasBasis, StateVector, StreamBlock

STRATEGIES = ("none", "intercept_resend", "measure_resend", "entangle_measure")
TARGETS = ("S_C", "S_B", "S_A")

_BASIS_TOKENS = ("Z", "X")
_EVE_BASES = tuple(MeasBasis(token) for token in _BASIS_TOKENS)

# Trials drawn together by estimate_detection: large enough to amortise
# numpy's per-call cost, small enough that the buffers stay a few KB
# whatever the trial count.
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
    as a shared read-only matrix.

    Maps |i,0> to alpha|i,0> + i*beta|i^1,1>, with beta = sqrt(beta_squared)
    and alpha = sqrt(1 - beta_squared): the ancilla records whether a flip
    occurred. The flipped branch carries a phase i, which makes the matrix
    exactly unitary and is unobservable in the detection statistic.
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


def apply_attack(block: Block, role: int, cfg: AttackConfig, rng: StreamBlock) -> None:
    """Run the particle at role of every register of the block, in flight,
    through the configured strategy, row i drawing from lane i of rng
    (keyed to its stream). The block changes in place."""
    if cfg.strategy == "intercept_resend":
        # keep the genuine particle (stored, never measured), inject a fake
        fakes = (decoy_state(cfg.fake_state).amps if cfg.fake_state is not None
                 else decoy_rows()[rng.randrange(len(DECOY_TOKENS))])
        block.at[role] = append_ancilla(block, fakes)
    elif cfg.strategy == "measure_resend":
        # measure the particle in Eve's basis and forward it collapsed
        if cfg.eve_basis is not None:
            measure_particles(MeasBasis(cfg.eve_basis), block, [(role,)], [rng.random()],
                              keep=True)
        else:
            which = rng.randrange(len(_EVE_BASES))
            measure_in_bases(_EVE_BASES, which, block, [(role,)], [rng.random()], keep=True)
    elif cfg.strategy == "entangle_measure":
        # couple a fresh ancilla to the particle in flight
        append_ancilla(block, qcore.make_basis_state("0").amps,
                       coupling=(role, eavesdrop_unitary(cfg.beta_squared)))


@lru_cache(maxsize=None)
def decoy_rows() -> np.ndarray:
    """The four decoy states, in DECOY_TOKENS order, as the read-only rows
    of one array."""
    rows = np.stack([decoy_state(token).amps for token in DECOY_TOKENS])
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class CheckTemplate:
    """Single-decoy check experiment repeated by the detection harness.

    For the GHZ-sample check (target S_C): the sample label and Bob's
    verification basis, None meaning a uniform per-trial choice. For the
    single-particle decoy checks (S_B, S_A): which basis the decoys are
    drawn from, None meaning uniform over all four decoy states.
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
        return asdict(self)


def _eve_choices(cfg: AttackConfig) -> list:
    """Eve's per-particle choice axis; a trial draws from it when it has
    more than one value."""
    if cfg.strategy == "intercept_resend":
        return list(DECOY_TOKENS) if cfg.fake_state is None else [cfg.fake_state]
    if cfg.strategy == "measure_resend":
        return list(_BASIS_TOKENS) if cfg.eve_basis is None else [cfg.eve_basis]
    return [None]


def _outcome_table(cfg: AttackConfig, state: StateVector, role: int, basis: MeasBasis,
                   choice, allowed) -> list[tuple[float, bool]]:
    """Exact (probability, is_error) rows of a check that measures every
    particle of state in basis, one at a time, after Eve's choice on the
    particle at role; an outcome tuple outside allowed is an error."""
    n = state.num_qubits
    groups = [(q,) for q in range(n)]
    if cfg.strategy == "intercept_resend":
        # Eve keeps the genuine particle unmeasured; the check measures her fake
        state = qcore.tensor(state, decoy_state(choice))
        groups[role] = (n,)
    elif cfg.strategy == "entangle_measure":
        state = qcore.apply_unitary(qcore.tensor(state, qcore.make_basis_state("0")),
                                    eavesdrop_unitary(cfg.beta_squared), (role, n))
    if cfg.strategy == "measure_resend":
        branches = [(p_e, collapsed) for _, p_e, collapsed
                    in qcore.measurement_branches(state, MeasBasis(choice), (role,))]
    else:
        branches = [(1.0, state)]
    dist = {}
    for p_e, branch in branches:
        for outs, p in qcore.joint_distribution(branch, basis, groups).items():
            dist[outs] = dist.get(outs, 0.0) + p_e * p
    return [(p, outs not in allowed) for outs, p in dist.items()]


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
    """Check trials sampled from exactly expanded branch tables."""

    def __init__(self, cfg: AttackConfig, template: CheckTemplate):
        self.eve_values = _eve_choices(cfg)
        if cfg.target == "S_C":
            self.lead_values = _basis_axis(template)
            label = template.sample_label

            def check(basis):
                return ghz_state(label), 2, basis, consistent_ghz_outcomes(label, basis)
        else:
            self.lead_values = _decoy_axis(template)

            def check(token):
                prep = DECOY_STATES[token]
                return decoy_state(token), 0, prep.basis, {(prep.expected,)}

        self.n_lead, self.n_eve = len(self.lead_values), len(self.eve_values)
        self.tables = {}
        for lead in self.lead_values:
            state, role, basis, allowed = check(lead)
            for choice in self.eve_values:
                cum, flags, acc = [], [], 0.0
                for p, is_err in _outcome_table(cfg, state, role, basis, choice, allowed):
                    acc += p
                    cum.append(acc)
                    flags.append(is_err)
                self.tables[(lead, choice)] = (cum, flags)

        # Row k = lead index * n_eve + choice index of every table, flattened
        # into one sorted edge array: edge e of row k becomes
        # k << 54 | ceil(e * 2**53), and each row ends in one more edge,
        # above any draw, and one more copy of its last flag.
        edges, all_flags = [], []
        for k, (cum, flags) in enumerate(self.tables.values()):
            edges.extend(k << 54 | math.ceil(e * 2.0 ** 53) for e in cum)
            edges.append(k << 54 | _ROW_END)
            all_flags.extend(flags + flags[-1:])
        self._edges = np.array(edges, dtype=np.uint64)
        self._flags = np.array(all_flags, dtype=bool)

    def count_detections(self, seed: int, trials: int) -> int:
        """Detections among trials 0, ..., trials - 1, trial t drawing from
        the keyed stream (seed, t), in blocks of _BLOCK trials.

        Trial t draws, in this order: the lead index u64 % n_lead when
        n_lead > 1, Eve's choice u64 % n_eve when n_eve > 1, then the
        outcome m = u64 >> 11, whose flag is that of the first edge e of its
        row's table with m * 2**-53 < e. Scaling by 2**53 is exact in
        binary64, so that edge is the first with ceil(e * 2**53) > m, and
        one searchsorted of k << 54 | m over all rows finds it for every
        trial of a block. The row-end edge makes the flag index the same
        count, and its flag serves an m past the row's last edge.
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
        total = 0.0
        weight = 1.0 / (self.n_lead * self.n_eve)
        for cum, flags in self.tables.values():
            prev = 0.0
            for edge, is_err in zip(cum, flags):
                if is_err:
                    total += weight * (edge - prev)
                prev = edge
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
    """Monte Carlo per-decoy detection estimate over independent trials.

    Trial t draws from the stream (seed, t); the result is reproducible and
    independent of trial ordering. The trials run in blocks of _BLOCK, each
    drawn at once from its keyed streams, so memory does not grow with the
    trial count, and the count equals that of one Rng(seed, t) per trial
    (_TrialSampler.count_detections says why).
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
        strategy=cfg.strategy,
        target=cfg.target,
        params=params,
        trials=trials,
        detections=detections,
        rate=rate,
        ci95=1.96 * math.sqrt(max(rate * (1.0 - rate), 0.0) / trials),
        exact_value=sampler.exact_rate(),
        claimed_value=claimed,
        abs_error=None if claimed is None else abs(rate - claimed),
    )
