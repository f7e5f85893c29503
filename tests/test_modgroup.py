import random
from fractions import Fraction
from math import gcd

from petersym.modgroup import (
    ID,
    SIGMA,
    T_MAT,
    TAU,
    act,
    cf_decompose,
    cusp,
    cusp_rational,
    matrix_to_cusp,
    mdet,
    minv,
    mmul,
    mneg,
    psl2_order,
    translation,
)

from .oracles import manin_path_infty


def random_sl2(rng, length=8):
    m = ID
    for _ in range(length):
        m = mmul(m, rng.choice([SIGMA, TAU, minv(TAU), translation(rng.randrange(-3, 4))]))
    return m


def test_constants():
    assert mmul(SIGMA, SIGMA) == mneg(ID)
    assert psl2_order(SIGMA) == 2
    assert psl2_order(TAU) == 3
    assert mmul(minv(TAU), SIGMA) == T_MAT


def test_cusp_canonical_form():
    assert cusp(2, -4) == (-1, 2)
    assert cusp(-3, 0) == (1, 0)
    assert cusp(6, 9) == (2, 3)


def test_act_basics():
    assert act(SIGMA, (0, 1)) == (1, 0)
    assert act(T_MAT, (0, 1)) == (1, 1)
    assert act(ID, (7, 3)) == (7, 3)


def test_act_is_an_action():
    rng = random.Random(3)
    for _ in range(40):
        g1 = random_sl2(rng)
        g2 = random_sl2(rng)
        c = cusp(rng.randrange(-30, 31), rng.randrange(-30, 31) or 1)
        assert act(mmul(g1, g2), c) == act(g1, act(g2, c))


def test_matrix_to_cusp():
    rng = random.Random(5)
    for _ in range(30):
        p = rng.randrange(-40, 41)
        q = rng.randrange(0, 41)
        if (p, q) == (0, 0):
            continue
        c = cusp(p, q)
        m = matrix_to_cusp(c)
        assert mdet(m) == 1
        assert act(m, (1, 0)) == c


def test_cf_decompose_five_thirds():
    taus, quotients = cf_decompose(5, 3)
    assert quotients == [1, 1, 2]
    convergents = [act(t, (1, 0)) for t in taus[1:]]
    assert convergents == [(1, 1), (2, 1), (5, 3)]
    # the extra quotient -q_(n-1)/q_n, read off the last convergent matrix
    assert Fraction(-taus[-1][3], abs(taus[-1][2])) == Fraction(-1, 3)


def test_cf_decompose_zero():
    taus, quotients = cf_decompose(0, 1)
    assert quotients == [0]
    assert act(taus[1], (1, 0)) == (0, 1)


def test_cf_image_equations():
    # tau_j sends infinity, 0 and the signed next quotient to the three
    # neighbouring convergents
    rng = random.Random(9)
    for _ in range(40):
        num = rng.randrange(-50, 51)
        den = rng.randrange(1, 51)
        r = Fraction(num, den)
        taus, quotients = cf_decompose(r.numerator, r.denominator)
        tail = Fraction(-taus[-1][3], abs(taus[-1][2]))
        n = len(quotients) - 1
        convergents = [act(t, (1, 0)) for t in taus[1:]]
        assert convergents[-1] == cusp(r.numerator, r.denominator)
        for j in range(n + 1):
            tau = taus[j + 1]
            assert mdet(tau) == 1
            assert act(tau, (1, 0)) == convergents[j]
            prev = (1, 0) if j == 0 else convergents[j - 1]
            assert act(tau, (0, 1)) == prev
            nxt = quotients[j + 1] if j < n else tail
            signed = nxt if (j + 1) % 2 == 0 else -nxt
            target = convergents[j + 1] if j < n else (1, 0)
            assert act(tau, cusp(signed.numerator, signed.denominator)) == target


def _path_as_divisor(terms):
    """Expand PathTerms to a formal divisor on infinitesimal cusps.

    MOD_SYM = [pi_inf(0), pi_0(inf)], INF_SHIFT m = [pi_inf(0), pi_inf(m)];
    a matrix sends pi_r(s) to pi_(g r)(g s).  Degree-0 bookkeeping lets
    us verify the decomposition exactly as divisors.
    """
    div = {}

    def add(point, c):
        div[point] = div.get(point, 0) + c
        if div[point] == 0:
            del div[point]

    for t in terms:
        if t.kind == "mod":
            pts = (((1, 0), (0, 1)), ((0, 1), (1, 0)))
        else:
            m = cusp(t.shift.numerator, t.shift.denominator)
            pts = (((1, 0), (0, 1)), ((1, 0), m))
        base, tip = pts
        add((act(t.gamma, tip[0]), act(t.gamma, tip[1])), t.coeff)
        add((act(t.gamma, base[0]), act(t.gamma, base[1])), -t.coeff)
    return div


def test_manin_path_infty_is_the_right_divisor():
    rng = random.Random(21)
    cases = [Fraction(0), Fraction(3), Fraction(-2), Fraction(5, 3)]
    cases += [
        Fraction(rng.randrange(-50, 51), rng.randrange(1, 51)) for _ in range(25)
    ]
    for r in cases:
        terms = manin_path_infty(r)
        div = _path_as_divisor(terms)
        rc = cusp(r.numerator, r.denominator)
        expected = {((1, 0), (0, 1)): -1, (rc, (1, 0)): 1}
        if rc == (1, 0):
            expected = {}
        assert div == {k: v for k, v in expected.items() if v}
        taus, quotients = cf_decompose(r.numerator, r.denominator)
        assert len(terms) <= 2 * (len(quotients) + 1)

