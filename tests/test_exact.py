from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import compose, identity, series_compose_invert
from tropical_heights import exact
from tropical_heights.errors import InputError, PrecisionError
from tropical_heights.exact import (
    INFINITY,
    PadicElement,
    bernoulli2,
    format_rational,
    is_prime,
    parse_rational,
    val_p,
)
from tropical_heights.heights import factorize
from tropical_heights.tate import _series_div, _series_mul

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=97
)


def test_val_p_examples():
    assert val_p(F(8, 3), 2) == 3
    assert val_p(0, 5) is INFINITY
    # 50/7 = 2 * 5^2 / 7
    assert val_p(F(50, 7), 5) == 2
    assert val_p(F(1, 8), 2) == -3


def test_val_p_rejects_composite():
    with pytest.raises(InputError):
        val_p(F(1), 6)


def test_is_prime_matches_sieve_below_1000():
    sieve = [True] * 1000
    sieve[0] = sieve[1] = False
    for i in range(2, 32):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, 1000, i))
    assert [n for n in range(1000) if is_prime(n)] == [
        n for n in range(1000) if sieve[n]
    ]


def test_is_prime_rejects_psi12():
    # smallest strong pseudoprime to the bases 2, ..., 37
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    assert factorize(psi12) == {399165290221: 1, 798330580441: 1}


def _sieve(limit: int) -> bytearray:
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, limit, i)))
    return sieve


def test_is_prime_matches_sieve_below_a_million_and_rejects_psi13():
    """Below 10^6 the 13 Miller-Rabin bases decide alone; psi_13, the
    smallest strong pseudoprime to all 13 of them, is where the strong
    Lucas test takes over, and it refuses it."""
    sieve = _sieve(10**6)
    assert all(is_prime(n) == bool(sieve[n]) for n in range(10**6))
    psi13 = 3317044064679887385961981
    assert psi13 == 1287836182261 * 2575672364521
    assert not is_prime(psi13)
    assert factorize(psi13) == {1287836182261: 1, 2575672364521: 1}
    # past the bound: Mersenne primes pass, a product of two of them does not
    assert all(is_prime(2**e - 1) for e in (89, 107, 127))
    assert not is_prime((2**89 - 1) * (2**61 - 1))


def test_strong_lucas_pseudoprimes_are_selfridges():
    """The strong Lucas test on its own: every odd prime from 43 on below
    2 * 10^5 passes, and the composites that pass (with no factor below 42)
    are the Selfridge-parameter strong Lucas pseudoprimes (OEIS A217255)."""
    sieve = _sieve(200000)
    coprime = [n for n in range(43, 200000, 2) if all(n % p for p in exact._MR_BASES)]
    assert all(exact._strong_lucas(n) for n in coprime if sieve[n])
    assert [n for n in coprime if not sieve[n] and exact._strong_lucas(n)] == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077,
        97439, 100127, 113573, 115639, 130139, 158399, 161027, 162133, 176399,
        176471, 189419, 192509, 197801]


def test_infinity_is_not_an_integer():
    assert INFINITY > 10**100
    assert not INFINITY < INFINITY
    assert INFINITY + 5 is INFINITY
    assert INFINITY == INFINITY


def test_bernoulli2_values():
    assert bernoulli2(0) == F(1, 6)
    assert bernoulli2(F(1, 2)) == F(-1, 12)
    assert bernoulli2(F(1, 5)) == F(1, 150)
    assert bernoulli2(F(4, 5)) == F(1, 150)


@given(rationals)
def test_bernoulli2_symmetry(t):
    assert bernoulli2(t) == bernoulli2(1 - t)


def test_bernoulli2_symmetry_bulk():
    import random

    rng = random.Random(1000)
    for _ in range(1000):
        t = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        assert bernoulli2(t) == bernoulli2(1 - t)


@given(rationals, rationals)
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a


def test_parse_format_roundtrip():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert format_rational(F(10, 4)) == "5/2"
    with pytest.raises(InputError):
        parse_rational("x/y")


# -- p-adic elements ----------------------------------------------------------


def test_padic_construction_and_valuation():
    x = PadicElement.from_rational(5, F(50, 7), 10)
    assert x.valuation == 2
    assert x.unit == F(2, 7)
    assert x.known_mod == 12
    zero = PadicElement.exact_zero(5)
    assert zero.is_zero() and zero.val() is INFINITY
    with pytest.raises(InputError):
        PadicElement(6, F(1), 0, 5)           # not a prime
    with pytest.raises(InputError):
        PadicElement(5, F(10, 3), 0, 5)       # unit part divisible by p
    with pytest.raises(InputError):
        PadicElement(5, F(3, 25), 2, 5)       # unit part with p in the denominator
    with pytest.raises(PrecisionError):
        PadicElement(5, F(2), 1, 0)           # no certified digits
    with pytest.raises(PrecisionError):
        PadicElement.from_rational(5, 3, -1)


def test_padic_construction_tests_the_prime_once(monkeypatch):
    """__post_init__ runs Miller-Rabin once: the unit's valuation is read
    off its numerator and denominator, not through val_p's own test."""
    calls, inner = [], exact.is_prime
    monkeypatch.setattr(exact, "is_prime", lambda n: calls.append(n) or inner(n))
    for unit, valuation in ((F(2, 7), 2), (F(-3), 0), (F(0), 0)):
        calls.clear()
        PadicElement(1009, unit, valuation, 10)
        assert calls == [1009], (unit, calls)
    calls.clear()
    with pytest.raises(InputError):
        PadicElement(1009, F(2018, 3), 0, 10)
    assert calls == [1009]


def test_padic_from_rational_tests_the_prime_once(monkeypatch):
    """from_rational reads the valuation at the prime that __post_init__
    then certifies, with no test of its own; a non-prime is still refused,
    and p = 1, where a valuation would never end, at once."""
    calls, inner = [], exact.is_prime
    monkeypatch.setattr(exact, "is_prime", lambda n: calls.append(n) or inner(n))
    x = PadicElement.from_rational(1009, F(2 * 1009**3, 7), 10)
    assert (x.valuation, x.unit, calls) == (3, F(2, 7), [1009])
    for p in (1, 0, -1, 4, 1009 * 1013):
        calls.clear()
        with pytest.raises(InputError, match="is not prime"):
            PadicElement.from_rational(p, F(4, 3), 10)
        assert calls == [p]


def test_padic_value_semantics():
    """Equal iff prime, rational and precision agree: the unit/valuation
    split of a rational is unique, so the dataclass's field equality is it."""
    x = PadicElement.from_rational(5, F(50, 7), 10)
    assert x == PadicElement(5, F(2, 7), 2, 10)
    assert hash(x) == hash(PadicElement(5, F(2, 7), 2, 10))
    assert x != PadicElement.from_rational(5, F(50, 7), 11)  # precision
    assert x != PadicElement.from_rational(7, F(50, 7), 10)  # prime
    assert x != PadicElement.from_rational(5, F(51, 7), 10)  # rational
    assert x != PadicElement(5, F(2, 7), 3, 10)              # valuation
    assert PadicElement.exact_zero(3) == PadicElement.from_rational(3, 0, 40)
    assert PadicElement.exact_zero(3) != PadicElement.exact_zero(5)


# -- power series -------------------------------------------------------------


def test_series_inverse_identity():
    x = identity(6)
    assert series_compose_invert(x) == x


def test_series_inverse_catalan_signs():
    # invert(x + x^2) = x - x^2 + 2x^3 - 5x^4 + ...; Lagrange inversion gives
    # signed Catalan numbers 1, -1, 2, -5, 14
    inv = series_compose_invert([0, 1, 1, 0, 0, 0])
    assert inv == [0, 1, -1, 2, -5, 14]


def test_series_inverse_rejects_bad_leading_terms():
    with pytest.raises(InputError):
        series_compose_invert([1, 1, 0, 0])
    with pytest.raises(InputError):
        series_compose_invert([0, 0, 1, 0])


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=0, max_size=6))
@settings(max_examples=60)
def test_series_inverse_roundtrip(tail):
    s = ([0, 1] + tail + [0] * 9)[:9]
    g = series_compose_invert(s)
    assert compose(s, g) == identity(9)
    assert compose(g, s) == identity(9)


def test_series_ring_ops():
    a = [1, 2, 3, 0, 0]
    b = [0, 1, 0, 0, 0]
    assert _series_mul(a, b)[1] == 1
    inv = _series_div([1, 0, 0, 0, 0], a)
    assert _series_mul(a, inv) == [1, 0, 0, 0, 0]
