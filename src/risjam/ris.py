"""Binary surface configurations and the composed attacker channel.

Convention, fixed project-wide: bit 0 maps to reflection coefficient +1,
bit 1 to -1.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

# Enumeration cap: 2^20 ~ 1e6 configurations.
MAX_ENUMERATION_BITS = 20

# Reflection coefficient per bit value.  Complex, so an oracle's gain
# products cast nothing; RisConfig.coefficients takes its real part.
_COEFFICIENTS = np.array([1.0 + 0.0j, -1.0 + 0.0j])


def _pack(rows: np.ndarray) -> np.ndarray:
    """0/1 rows packed along the last axis, 8 bits per byte; bits[0] is the
    most significant."""
    return np.packbits(rows, axis=-1, bitorder="big")


class RisConfig:
    """Immutable length-L bit vector of element states."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.asarray(bits)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("bits must be a non-empty 1-D sequence")
        # A fresh contiguous copy; the values are checked against the input,
        # since the cast alone would turn 0.5, 1.9 or 256 into a bit.
        out = arr.astype(np.uint8)
        if out.max() > 1 or (arr.dtype != np.uint8 and not (out == arr).all()):
            raise ValueError("bits must be 0 or 1")
        out.setflags(write=False)
        object.__setattr__(self, "bits", out)

    def __setattr__(self, name, value):
        raise AttributeError("RisConfig is immutable")

    def __len__(self) -> int:
        return int(self.bits.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RisConfig):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash((len(self), self.bits.tobytes()))

    def __repr__(self) -> str:
        return f"RisConfig(L={len(self)}, hex={self.to_hex()!r})"

    def coefficients(self) -> np.ndarray:
        """Reflection coefficients in {+1.0, -1.0}, float64: the real part
        of _COEFFICIENTS per bit, the same values as 1 - 2 * bits."""
        return _COEFFICIENTS.real.take(self.bits)

    def to_hex(self) -> str:
        """ceil(L/4) hex characters; bits[0] is the most significant bit."""
        return _pack(self.bits).tobytes().hex()[:math.ceil(len(self) / 4)]

    @classmethod
    def from_hex(cls, hex_string: str, length: int) -> "RisConfig":
        if length < 1:
            raise ValueError("length must be >= 1")
        expected = math.ceil(length / 4)
        if len(hex_string) != expected:
            raise ValueError(
                f"hex string of {len(hex_string)} chars does not match "
                f"length {length} (expected {expected} chars)"
            )
        padded = hex_string + "0" * (len(hex_string) % 2)
        raw = np.frombuffer(bytes.fromhex(padded), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="big")
        if np.any(bits[length:]):
            raise ValueError("padding bits beyond the stated length must be 0")
        return cls(bits[:length])

    def to_json(self) -> dict:
        return {"length": len(self), "hex": self.to_hex()}


def random_config(n_elements: int, seed) -> RisConfig:
    """I.i.d. fair bits, deterministic per seed."""
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    rng = np.random.default_rng(seed)
    return RisConfig(rng.integers(0, 2, n_elements, dtype=np.uint8))


def compose_channel(config: RisConfig, subchannels) -> complex:
    """Composed attacker channel: sum of sub-channels times coefficients."""
    h = np.asarray(subchannels, dtype=complex)
    if h.ndim != 1 or h.size != len(config):
        raise ValueError(
            f"subchannel count {h.size} does not match configuration "
            f"length {len(config)}"
        )
    return complex(np.dot(config.coefficients(), h))


def hamming_distance(a: RisConfig, b: RisConfig) -> int:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return int(np.count_nonzero(a.bits != b.bits))


def enumerate_configs(n_elements: int) -> Iterator[RisConfig]:
    """All 2^L configurations in lexicographic order (bit 0 most significant)."""
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    if n_elements > MAX_ENUMERATION_BITS:
        raise ValueError(
            f"enumeration is capped at L <= {MAX_ENUMERATION_BITS}, "
            f"got {n_elements}"
        )
    shifts = np.arange(n_elements - 1, -1, -1, dtype=np.uint32)
    for value in range(2 ** n_elements):
        bits = (value >> shifts) & 1
        yield RisConfig(bits.astype(np.uint8))
