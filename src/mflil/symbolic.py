"""Symbol alphabets, finite words, and the adic cube geometry behind them.

Implements:
  * Alphabet: ell-adic symbol set for cubes in [0,1)^D, k = ell**D symbols,
    one symbol per level with coordinate digits packed row-major
    (symbol = sum_j digit_j * ell**j).
  * Word: immutable finite symbol string, concatenation monoid.
  * cube_of_point / cube_length: the half-open cube of a point at level n and
    the side length ell**-n.

Cubes are half-open, so every point of [0,1)^D lies in exactly one cube per
level and the level-(n+1) word of a point extends its level-n word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

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

    def symbol_from_digits(self, digits: Sequence[int]) -> int:
        # row-major packing: coordinate j contributes digit_j * ell**j
        if len(digits) != self.dim:
            raise ValidationError(
                f"expected {self.dim} digits, got {len(digits)}"
            )
        s = 0
        for j, dig in enumerate(digits):
            if not 0 <= dig < self.ell:
                raise ValidationError(f"digit {dig} out of range [0, {self.ell})")
            s += dig * self.ell ** j
        return s

    def digits_of_symbol(self, symbol: int) -> tuple[int, ...]:
        if not 0 <= symbol < self.k:
            raise ValidationError(f"symbol {symbol} out of range [0, {self.k})")
        out = []
        for _ in range(self.dim):
            out.append(symbol % self.ell)
            symbol //= self.ell
        return tuple(out)


@dataclass(frozen=True)
class Word:
    """A finite string of symbols over an alphabet. Level = number of symbols."""

    alphabet: Alphabet
    symbols: tuple[int, ...] = field(default=())

    def __post_init__(self):
        k = self.alphabet.k
        for s in self.symbols:
            if not 0 <= s < k:
                raise ValidationError(f"symbol {s} out of range [0, {k})")

    @property
    def level(self) -> int:
        return len(self.symbols)

    def prefix(self, n: int) -> "Word":
        if not 0 <= n <= self.level:
            raise ValidationError(f"prefix length {n} out of range [0, {self.level}]")
        return Word(self.alphabet, self.symbols[:n])

    def is_prefix_of(self, other: "Word") -> bool:
        return (
            self.alphabet == other.alphabet
            and other.symbols[: self.level] == self.symbols
        )

    def render(self) -> str:
        """Digit string for small alphabets (k <= 10), dot-separated otherwise."""
        if self.alphabet.k <= 10:
            return "".join(str(s) for s in self.symbols)
        return ".".join(str(s) for s in self.symbols)

    def __str__(self) -> str:
        return self.render()


def word(symbols: Iterable[int], ell: int = 2, dim: int = 1) -> Word:
    """Convenience constructor."""
    return Word(Alphabet(ell, dim), tuple(symbols))


def word_concat(u: Word, v: Word) -> Word:
    """Concatenation uv. Levels add; the empty word is the identity."""
    if u.alphabet != v.alphabet:
        raise ValidationError("cannot concatenate words over different alphabets")
    return Word(u.alphabet, u.symbols + v.symbols)


def cube_of_point(point, n: int, alphabet: Alphabet) -> Word:
    """Level-n word of the half-open adic cube containing `point`.

    `point` is a float for dim = 1 or a sequence of dim floats, each in [0,1).
    Digit j of coordinate x at level i is floor(x * ell**i) mod ell, which is
    the expansion without a trailing run of (ell-1)s, matching half-open cubes.
    """
    if n < 0:
        raise ValidationError(f"level must be >= 0, got {n}")
    if alphabet.dim == 1 and not hasattr(point, "__len__"):
        coords = [float(point)]
    else:
        coords = [float(c) for c in point]
    if len(coords) != alphabet.dim:
        raise ValidationError(
            f"point has {len(coords)} coordinates, alphabet dim is {alphabet.dim}"
        )
    for c in coords:
        if not 0.0 <= c < 1.0:
            raise ValidationError(f"coordinate {c} outside [0, 1)")
    ell = alphabet.ell
    # integer digit streams per coordinate, most significant first
    digit_rows = []
    for c in coords:
        # index of the level-n interval along this axis, in exact integers:
        # a float product c * ell**n rounds once ell**n passes 2**53
        num, den = c.as_integer_ratio()
        m = num * ell ** n // den
        digs = []
        for _ in range(n):
            digs.append(m % ell)
            m //= ell
        digs.reverse()
        digit_rows.append(digs)
    syms = tuple(
        alphabet.symbol_from_digits([digit_rows[j][i] for j in range(alphabet.dim)])
        for i in range(n)
    )
    return Word(alphabet, syms)


def cube_length(level: int, alphabet: Alphabet) -> float:
    """Side length ell**-level of a level-`level` cube."""
    if level < 0:
        raise ValidationError(f"level must be >= 0, got {level}")
    return float(alphabet.ell) ** (-level)
