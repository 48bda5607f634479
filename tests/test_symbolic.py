import pytest

from mflil import ValidationError
from mflil.models import Alphabet


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

