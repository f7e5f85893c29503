import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petersym.cyclo import CycVec
from petersym.eisenstein import TorsionFunction, beta_moment
from petersym.exact import bernoulli_number
from petersym.modgroup import SIGMA
from petersym.pairing import lambda_coeffs
from petersym.qexp import (
    _upper_gamma_integral,
    delta_periods,
    delta_qexp,
    eis_qexp,
    eta_product_qexp,
    l_special,
    l_special_numeric,
    mellin_numeric,
    mellin_rational,
    normalized_transform,
    period_haberland,
    petersson_norm_delta,
)
from .oracles import p2
from .test_eisenstein import random_fn, small_fracs


def test_l_special_zeta_value():
    assert l_special([Fraction(1)], 12) == Fraction(691, 32760)
    assert l_special([Fraction(1)], 12) == -bernoulli_number(12) / 12


def test_l_special_h1_delta():
    # g the indicator of 0 mod 2: sum g(a) beta_1(a) = beta_1(0) = 0
    assert l_special([Fraction(1), Fraction(0)], 1) == 0


def test_l_special_parity():
    rng = random.Random(3)
    for n in (3, 5, 6):
        g = [Fraction(rng.randrange(-4, 5)) for _ in range(n)]
        gm = [g[(-a) % n] for a in range(n)]
        for h in (2, 3, 4, 5):
            assert l_special(gm, h) == (-1) ** h * l_special(g, h)


def test_l_special_numeric_abs_1e10():
    rng = random.Random(5)
    for n in range(1, 7):
        for h in (2, 3, 4):
            g = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n)]
            exact = float(l_special(g, h))
            numeric = l_special_numeric([float(x) for x in g], h)
            assert abs(numeric - exact) < 1e-10


def test_delta_coefficients():
    tau = delta_qexp(10)
    assert tau[1:8] == [1, -24, 252, -1472, 4830, -6048, -16744]


def test_eta_product_level11():
    coeffs = eta_product_qexp([(1, 2), (11, 2)], 8)
    # the weight-2 form q prod(1-q^n)^2 (1-q^(11n))^2 = q - 2q^2 - q^3 + 2q^4 + ...
    assert coeffs[:4] == [1, -2, -1, 2]


def test_level_one_expansion_is_divisor_sums():
    q = eis_qexp(TorsionFunction.constant(1), 12, 12)
    assert q.constant.as_rational() == Fraction(691, 32760)
    for t in range(1, 13):
        sigma11 = sum(d ** 11 for d in range(1, t + 1) if t % d == 0)
        assert q.coefficient(t).as_rational() == 2 * sigma11


def test_truncation_prefix():
    long = eis_qexp(TorsionFunction.constant(1), 12, 20)
    short = eis_qexp(TorsionFunction.constant(1), 12, 10)
    for t in range(1, 11):
        assert short.coefficient(t) == long.coefficient(t)


def test_transform_constant_equals_infinity_moment():
    rng = random.Random(7)
    for n in (3, 4, 5):
        for k in (4, 6):
            f = random_fn(rng, n)
            q = eis_qexp(normalized_transform(f), k, 3)
            assert q.constant.as_rational() == beta_moment(f, k, 0, minus=True)


def test_mellin_rational_rejects_boundary():
    f = TorsionFunction.indicator(3, (1, 0))
    with pytest.raises(ValueError):
        mellin_rational(f, 4, 0)
    with pytest.raises(ValueError):
        mellin_rational(f, 4, 2)


def test_mellin_rational_is_the_moment():
    rng = random.Random(11)
    for n in (3, 4):
        f = random_fn(rng, n)
        for k in (4, 6):
            for j in range(1, k - 2):
                assert mellin_rational(f, k, j) == \
                    (-1) ** (j + 1) * beta_moment(f, k - 1 - j, j + 1, minus=True)


def test_mellin_parity_vanishing():
    # an even function has zero odd-parity moments
    n = 5
    f = TorsionFunction.indicator(n, (1, 0)) + TorsionFunction.indicator(n, (-1, 0))
    assert f.minus() == f
    k = 6
    for j in range(1, k - 2):
        if (k - 1 - j + j + 1) % 2 == 1:
            assert mellin_rational(f, k, j) == 0


def test_mellin_numeric_rel_1e8():
    for n in (3, 4, 5):
        for k in (4, 6):
            f = TorsionFunction.indicator(n, (1, 0)) \
                + TorsionFunction.indicator(n, (1, 2)).scale(Fraction(1, 2))
            js = range(1, k - 2)
            for j, numeric in zip(js, mellin_numeric(f, k, js)):
                exact = complex(float(mellin_rational(f, k, j)))
                assert abs(numeric - exact) / max(1.0, abs(exact)) < 1e-8


def test_delta_period_relations_rel_1e8():
    r = delta_periods()
    scale = max(abs(x) for x in r)
    odd = sum(comb(10, m) * r[m] for m in range(1, 11, 2))
    assert abs(odd) / scale < 1e-8
    lam = [float(x) for x in lambda_coeffs(12)]
    even = sum(l * r[m] for l, m in zip(lam, range(0, 11, 2)))
    assert abs(even) / scale < 1e-8


def test_delta_periods_alternate_parity():
    # periods alternate pure-real / pure-imaginary after the global i
    r = delta_periods()
    scale = max(abs(x) for x in r)
    for j, v in enumerate(r):
        if j % 2 == 0:
            assert abs(v.real) / scale < 1e-12
        else:
            assert abs(v.imag) / scale < 1e-12


def test_petersson_cross_identity_rel_1e6():
    r = delta_periods()
    norm = petersson_norm_delta()
    assert norm > 0
    hab = period_haberland(r, [x.conjugate() for x in r])
    target = -(2j) ** 11 * norm
    assert abs(hab - target) / abs(target) < 1e-6


def test_period_self_pairing_abs_1e8():
    r = delta_periods()
    scale = max(abs(x) for x in r)
    assert abs(period_haberland(r, r)) / scale ** 2 < 1e-8


def test_petersson_norm_known_value():
    # <Delta, Delta> = 1.03536205680432092...e-6 (integrated over SL2(Z)\H)
    assert petersson_norm_delta() == pytest.approx(1.0353620568043209e-6, rel=1e-12)


def test_upper_gamma_integral_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    xs = [0.05 * 1.25 ** i for i in range(42)] + [700.0]
    with mpmath.workdps(40):
        for s in range(1, 25):
            for x in xs:
                ref = mpmath.mpf(x) ** -s * mpmath.gammainc(s, mpmath.mpf(x))
                assert abs(_upper_gamma_integral(s, x) / ref - 1) < 1e-13, (s, x)


@pytest.mark.parametrize("s", [0, 2.5, -1])
def test_upper_gamma_integral_rejects_non_integer_orders(s):
    with pytest.raises(ValueError):
        _upper_gamma_integral(s, 1.0)


def per_pair_expansion(f, k, terms):
    """The constant and the coefficients of eis_qexp over Fractions, two
    partial transforms per pair."""
    n = f.n
    fm = f.minus()
    constant = l_special([p2(f, 0, (-x) % n) for x in range(n)], k)
    coeffs = [CycVec(n) for _ in range(terms + 1)]
    for nn in range(1, terms + 1):
        for m in range(1, terms // nn + 1):
            val = p2(f, nn % n, (-m) % n) + p2(fm, nn % n, (-m) % n).scale((-1) ** k)
            coeffs[nn * m] = coeffs[nn * m] + val.scale(Fraction(m) ** (k - 1))
    return constant, coeffs


@st.composite
def qexp_fns(draw):
    """Rational functions on (Z/NZ)^2, N <= 12, their normalized transforms,
    or the transforms moved by sigma, as `mellin_numeric` builds them."""
    n = draw(st.integers(1, 12))
    f = TorsionFunction(n, [[draw(small_fracs) for _ in range(n)] for _ in range(n)])
    kind = draw(st.sampled_from(["rational", "transform", "sigma"]))
    if kind == "rational":
        return f
    g = normalized_transform(f)
    return g if kind == "transform" else g.act(SIGMA)


@settings(deadline=None, max_examples=40)
@given(f=qexp_fns(), k=st.integers(2, 12), terms=st.integers(1, 40))
def test_eis_qexp_equals_the_per_pair_loop(f, k, terms):
    q = eis_qexp(f, k, terms)
    constant, coeffs = per_pair_expansion(f, k, terms)
    assert q.constant.coeffs == constant.coeffs
    assert [c.coeffs for c in q.coeffs] == [c.coeffs for c in coeffs]
    assert all(type(x) is Fraction for c in [q.constant] + q.coeffs for x in c.coeffs)
