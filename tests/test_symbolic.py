from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mflil import ValidationError
from mflil.symbolic import (
    Alphabet,
    Word,
    cube_length,
    cube_of_point,
    word,
    word_concat,
)


def test_alphabet_basics():
    a = Alphabet(2, 1)
    assert a.k == 2
    assert Alphabet(3, 2).k == 9
    with pytest.raises(ValidationError):
        Alphabet(1, 1)
    with pytest.raises(ValidationError):
        Alphabet(2, 0)


@pytest.mark.parametrize("ell,dim", [(2, 63), (2, 10 ** 8), (3, 40), (2 ** 63, 1), (2 ** 32, 2)])
def test_alphabet_refuses_2_pow_63_symbols_before_forming_them(ell, dim):
    # ell**dim at dim = 10**8 would be a 10**8-bit integer
    with pytest.raises(ValidationError, match=rf"ell={ell}, dim={dim}"):
        Alphabet(ell, dim)
    assert Alphabet(2, 62).k == 2 ** 62
    assert Alphabet(3, 39).k == 3 ** 39


def test_digit_packing_round_trip():
    a = Alphabet(3, 2)
    for s in range(a.k):
        assert a.symbol_from_digits(a.digits_of_symbol(s)) == s
    # row-major: coordinate j contributes digit_j * ell**j
    assert a.symbol_from_digits([2, 1]) == 2 + 1 * 3
    with pytest.raises(ValidationError):
        a.symbol_from_digits([3, 0])
    with pytest.raises(ValidationError):
        a.digits_of_symbol(9)


def test_word_validation_and_prefix():
    w = word([0, 1, 1, 0])
    assert w.level == 4
    assert w.prefix(2).symbols == (0, 1)
    assert w.prefix(0).level == 0
    assert w.prefix(2).is_prefix_of(w)
    assert not w.is_prefix_of(w.prefix(2))
    with pytest.raises(ValidationError):
        word([0, 2])  # symbol out of range for ell=2
    with pytest.raises(ValidationError):
        w.prefix(5)


def test_render():
    assert str(word([0, 1, 1])) == "011"
    big = Word(Alphabet(4, 2), (15, 3))
    assert big.render() == "15.3"


@given(
    st.lists(st.integers(0, 1), max_size=8),
    st.lists(st.integers(0, 1), max_size=8),
    st.lists(st.integers(0, 1), max_size=8),
)
def test_concat_monoid(a, b, c):
    u, v, w_ = word(a), word(b), word(c)
    left = word_concat(word_concat(u, v), w_)
    right = word_concat(u, word_concat(v, w_))
    assert left == right
    assert word_concat(u, word([])) == u
    assert word_concat(word([]), u) == u
    assert left.level == len(a) + len(b) + len(c)


def test_concat_alphabet_mismatch():
    with pytest.raises(ValidationError):
        word_concat(word([0], ell=2), word([0], ell=3))


def test_cube_of_point_binary():
    a = Alphabet(2, 1)
    # 0.375 = 0.011 in binary
    assert cube_of_point(0.375, 3, a).symbols == (0, 1, 1)
    assert cube_of_point(0.0, 4, a).symbols == (0, 0, 0, 0)
    with pytest.raises(ValidationError):
        cube_of_point(1.0, 2, a)
    with pytest.raises(ValidationError):
        cube_of_point(-0.1, 2, a)


def test_cube_of_point_two_dim():
    a = Alphabet(2, 2)
    w = cube_of_point((0.5, 0.25), 2, a)
    # x digits (1,0), y digits (0,1); symbol = dx + 2*dy
    assert w.symbols == (1, 2)


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), st.integers(0, 12), st.integers(0, 12))
def test_cube_nesting(x, m, n):
    if m > n:
        m, n = n, m
    a = Alphabet(2, 1)
    assert cube_of_point(x, n, a).prefix(m) == cube_of_point(x, m, a)


@given(
    st.sampled_from([2, 3, 10]),
    st.integers(1, 2),
    st.integers(0, 80),
    st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=2, max_size=2),
)
def test_cube_of_point_exact_at_depth(ell, dim, n, xs):
    a = Alphabet(ell, dim)
    coords = xs[:dim]
    # digit i of x is floor(x * ell**i) mod ell, in exact rational arithmetic
    digits = [[int(Fraction(x) * ell ** i) % ell for i in range(1, n + 1)] for x in coords]
    expected = tuple(a.symbol_from_digits([d[i] for d in digits]) for i in range(n))
    point = coords[0] if dim == 1 else coords
    assert cube_of_point(point, n, a).symbols == expected


def test_cube_length():
    a = Alphabet(3, 1)
    assert cube_length(0, a) == 1.0
    assert cube_length(2, a) == pytest.approx(1.0 / 9.0, rel=0, abs=0)
    with pytest.raises(ValidationError):
        cube_length(-1, a)
