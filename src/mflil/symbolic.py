"""Symbol alphabets and finite words over them.

Implements:
  * Alphabet: ell-adic symbol set for the half-open cubes in [0,1)^D,
    k = ell**D symbols, one symbol per level with coordinate digits packed
    row-major (symbol = sum_j digit_j * ell**j).
  * Word: immutable finite symbol string, the cylinder whose mass
    models.log_cylinder_mass computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import ValidationError


@dataclass(frozen=True)
class Alphabet:
    """Symbols 0..k-1 indexing the ell-adic subcubes of [0,1)^D, k = ell**D < 2^63."""

    ell: int
    dim: int = 1

    def __post_init__(self):
        if not isinstance(self.ell, int) or self.ell < 2:
            raise ValidationError(f"ell must be an integer >= 2, got {self.ell!r}")
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValidationError(f"dim must be an integer >= 1, got {self.dim!r}")
        # ell**dim >= 2**(dim * (bit_length - 1)): refuse before forming the power
        if self.dim * (self.ell.bit_length() - 1) >= 63 or self.ell ** self.dim >= 2 ** 63:
            raise ValidationError(
                f"ell**dim symbols must number below 2^63, got ell={self.ell}, dim={self.dim}"
            )

    @property
    def k(self) -> int:
        return self.ell ** self.dim


@dataclass(frozen=True)
class Word:
    """A finite string of symbols over an alphabet; its level is len(symbols)."""

    alphabet: Alphabet
    symbols: tuple[int, ...] = field(default=())

    def __post_init__(self):
        k = self.alphabet.k
        for s in self.symbols:
            if not 0 <= s < k:
                raise ValidationError(f"symbol {s} out of range [0, {k})")


def word(symbols: Iterable[int], ell: int = 2, dim: int = 1) -> Word:
    """Convenience constructor."""
    return Word(Alphabet(ell, dim), tuple(symbols))

