import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from petersym.modgroup import ID, SIGMA, madj, mdet, mmul
from petersym.polyspace import Vk
from .test_modgroup import random_sl2


def random_vk(rng, k):
    return Vk(k, [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(k - 1)])


def random_pos_det(rng):
    while True:
        m = tuple(rng.randrange(-5, 6) for _ in range(4))
        if mdet(m) > 0:
            return m


def test_act_identity_and_sigma():
    p = Vk.monomial(6, 4)  # x^4
    assert p.act(ID) == p
    y2 = Vk.monomial(4, 0)
    assert y2.act(SIGMA) == Vk.monomial(4, 2)


def test_act_is_right_action():
    rng = random.Random(13)
    for _ in range(25):
        k = rng.choice([2, 3, 4, 8, 12])
        p = random_vk(rng, k)
        g1, g2 = random_pos_det(rng), random_pos_det(rng)
        assert p.act(mmul(g1, g2)) == p.act(g1).act(g2)


def test_pair_linear_powers():
    rng = random.Random(17)
    for k in range(2, 17):
        for _ in range(4):
            t1 = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
            t2 = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
            lhs = Vk.linear_power(k, t1).pair(Vk.linear_power(k, t2))
            assert lhs == (t1 - t2) ** (k - 2)


def test_pair_example_weight4():
    assert Vk.linear_power(4, Fraction(1)).pair(Vk.monomial(4, 0)) == 1


def test_pair_parity():
    rng = random.Random(19)
    for k in [2, 3, 4, 5, 8, 11, 12]:
        sign = 1 if k % 2 == 0 else -1
        for _ in range(8):
            p, q = random_vk(rng, k), random_vk(rng, k)
            assert p.pair(q) == sign * q.pair(p)
        p = random_vk(rng, k)
        if k % 2 == 1:
            assert p.pair(p) == 0  # antisymmetric pairing on V_k, k odd
        # for k even the form is symmetric; the induced pairing on
        # modular symbols is then antisymmetric (tested in test_pairing)


def test_pair_adjoint_rule():
    rng = random.Random(23)
    for _ in range(25):
        k = rng.choice([2, 4, 5, 8])
        p, q = random_vk(rng, k), random_vk(rng, k)
        g = random_pos_det(rng)
        gstar = tuple(mdet(g) * x for x in (1, 0, 0, 1))
        # gamma* = det(gamma) gamma^{-1} = adjugate
        assert p.act(g).pair(q) == p.pair(q.act(madj(g)))


def test_pair_sl2_invariance():
    rng = random.Random(29)
    for _ in range(25):
        k = rng.choice([2, 3, 4, 12])
        p, q = random_vk(rng, k), random_vk(rng, k)
        g = random_sl2(rng)
        assert p.act(g).pair(q.act(g)) == p.pair(q)


def test_weight2_degenerates():
    p = Vk(2, [Fraction(5)])
    assert p.act(SIGMA) == p
    assert p.pair(Vk(2, [Fraction(3)])) == 15


def test_json_roundtrip():
    p = Vk(4, [Fraction(1, 2), Fraction(-3), Fraction(0)])
    assert p.to_json() == {"k": 4, "coeffs": ["1/2", "-3", "0"]}


def _poly_mul(p, q):
    """Product of polynomials in x, y stored as {(i, j): coefficient of x^i y^j}."""
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            out[(i1 + i2, j1 + j2)] = out.get((i1 + i2, j1 + j2), 0) + c1 * c2
    return out


def substituted(p, g):
    """P(d x - c y, -b x + a y), expanded by repeated products, no binomials."""
    a, b, c, d = g
    n = p.k - 2
    new_x = {(1, 0): d, (0, 1): -c}
    new_y = {(1, 0): -b, (0, 1): a}
    total = {}
    for i, coef in enumerate(p.coeffs):
        term = {(0, 0): coef}
        for _ in range(i):
            term = _poly_mul(term, new_x)
        for _ in range(n - i):
            term = _poly_mul(term, new_y)
        for key, v in term.items():
            total[key] = total.get(key, 0) + v
    return Vk(p.k, [total.get((i, n - i), 0) for i in range(n + 1)])


def integer_matrices(bound):
    entry = st.integers(-bound, bound)
    return st.tuples(entry, entry, entry, entry).filter(lambda m: mdet(m) != 0)


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(deadline=None)
@given(data=st.data(), k=st.integers(2, 24), g=integer_matrices(6), h=integer_matrices(6))
def test_act_matches_direct_substitution(data, k, g, h):
    p = Vk(k, data.draw(st.lists(fractions, min_size=k - 1, max_size=k - 1)))
    assert p.act(g) == substituted(p, g)
    assert p.act(g).act(h) == p.act(mmul(g, h))


@settings(deadline=None)
@given(data=st.data(), k=st.integers(2, 12), g=integer_matrices(3))
def test_complex_coefficients_use_the_same_matrix(data, k, g):
    # small integers keep every float product and sum exact
    ints = st.lists(st.integers(-9, 9), min_size=k - 1, max_size=k - 1)
    re, im = data.draw(ints), data.draw(ints)
    image = Vk(k, [complex(x, y) for x, y in zip(re, im)]).act(g)
    real_part, imag_part = Vk(k, re).act(g), Vk(k, im).act(g)
    assert image.coeffs == tuple(complex(x, y) for x, y in
                                 zip(real_part.coeffs, imag_part.coeffs))
