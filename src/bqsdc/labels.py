"""Discrete labels used throughout the protocol: GHZ basis states, Bell
states, and the entanglement-swapping outcome collections; and the checks
that turn a configured integer or label into one (integer, ghz_label)."""

from __future__ import annotations

import operator
from enum import IntEnum

import numpy as np

_INV_SQRT2 = 2.0 ** -0.5


class GhzLabel(IntEnum):
    """Index of one of the eight three-qubit GHZ basis states.

    Label k encodes the state (|ab0> + s|a'b'1>)/sqrt(2) with a = bit 1 of k,
    b = bit 2 of k, s = -1 if bit 0 of k is set, and primes denoting bit
    complement.
    """

    PSI0 = 0
    PSI1 = 1
    PSI2 = 2
    PSI3 = 3
    PSI4 = 4
    PSI5 = 5
    PSI6 = 6
    PSI7 = 7

    @property
    def token(self) -> str:
        return f"psi{int(self)}"

    @classmethod
    def from_token(cls, text: str) -> "GhzLabel":
        t = text.strip().lower()
        if len(t) != 4 or t[:3] != "psi" or t[3] not in "01234567":
            raise ValueError(f"not a GHZ label: {text!r}")
        return cls(int(t[3]))


def integer(value, name: str) -> int:
    """value as an int (operator.index), or TypeError naming the field: a
    bool, a float or any other value that is not an integer is refused."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def ghz_label(value, name: str) -> GhzLabel:
    """value as a GhzLabel: a bool, an int but no label, is refused as
    integer refuses it, and anything but one of the eight labels raises
    ValueError."""
    return GhzLabel(integer(value, name) if isinstance(value, bool) else value)


class BellLabel(IntEnum):
    """One of the four Bell states.

    Bit 1 is the letter (0 = phi, 1 = psi) and bit 0 the sign (0 = +, 1 = -).
    """

    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3

    @property
    def flip(self) -> int:
        return (int(self) >> 1) & 1

    @property
    def sign(self) -> int:
        return int(self) & 1

    @property
    def token(self) -> str:
        return ("phi" if self.flip == 0 else "psi") + ("+" if self.sign == 0 else "-")

    @classmethod
    def from_token(cls, text: str) -> "BellLabel":
        t = text.strip().lower()
        try:
            flip = {"phi": 0, "psi": 1}[t[:3]]
            sign = {"+": 0, "-": 1}[t[3:]]
        except (KeyError, IndexError):
            raise ValueError(f"not a Bell label: {text!r}") from None
        return cls(flip * 2 + sign)


class CollectionLabel(IntEnum):
    """Index of one of the eight disjoint outcome collections of
    entanglement swapping between two GHZ states."""

    C0 = 0
    C1 = 1
    C2 = 2
    C3 = 3
    C4 = 4
    C5 = 5
    C6 = 6
    C7 = 7

    @property
    def token(self) -> str:
        return f"c{int(self)}"


def ghz_amplitudes(label: GhzLabel) -> np.ndarray:
    """Amplitude vector of the GHZ basis state, qubit 0 most significant."""
    k = int(label)
    a = (k >> 1) & 1
    b = (k >> 2) & 1
    sign = -1.0 if k & 1 else 1.0
    amps = np.zeros(8, dtype=np.complex128)
    amps[(a << 2) | (b << 1)] = _INV_SQRT2
    amps[((1 - a) << 2) | ((1 - b) << 1) | 1] = sign * _INV_SQRT2
    return amps


def bell_amplitudes(label: BellLabel) -> np.ndarray:
    """Amplitude vector of the Bell state, first qubit most significant."""
    sign = -1.0 if label.sign else 1.0
    amps = np.zeros(4, dtype=np.complex128)
    if label.flip == 0:
        amps[0b00] = _INV_SQRT2
        amps[0b11] = sign * _INV_SQRT2
    else:
        amps[0b01] = _INV_SQRT2
        amps[0b10] = sign * _INV_SQRT2
    return amps
