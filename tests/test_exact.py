import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from petersym.exact import bernoulli_number, bernoulli_values, frac_str, kernel_basis
from .oracles import bernoulli_poly, charpoly, dense, rank, solve_in_span, sparse


def test_bernoulli_small_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert bernoulli_number(3) == 0


def test_bernoulli_poly_values():
    nums, den = bernoulli_values(2, [0], 1)
    assert Fraction(nums[0], den) == Fraction(1, 6)
    nums, den = bernoulli_values(1, [1], 2)
    assert nums == [0]


def test_bernoulli_poly_at_zero_is_bernoulli_number():
    for h in range(31):
        nums, den = bernoulli_values(h, [0], 1)
        assert Fraction(nums[0], den) == bernoulli_number(h)


def test_bernoulli_poly_reflection():
    # B_h(1 - p/q) = (-1)^h B_h(p/q), read as numerators over one denominator
    rng = random.Random(7)
    for _ in range(20):
        h = rng.randrange(0, 12)
        p, q = rng.randrange(-20, 20), rng.randrange(1, 9)
        nums, _ = bernoulli_values(h, [p, q - p], q)
        assert nums[1] == (-1) ** h * nums[0]


def test_bernoulli_values_match_the_fraction_sum():
    rng = random.Random(11)
    for h in range(16):
        q = rng.randrange(1, 13)
        ps = [rng.randrange(-30, 30) for _ in range(6)]
        nums, den = bernoulli_values(h, ps, q)
        assert [Fraction(x, den) for x in nums] == [bernoulli_poly(h, Fraction(p, q)) for p in ps]


def test_kernel_identity_and_zero():
    ident = [{i: Fraction(1)} for i in range(3)]
    assert kernel_basis(ident, 3) == []
    assert kernel_basis([{}, {}], 3) == [({0: 1}, 1), ({1: 1}, 1), ({2: 1}, 1)]


def test_kernel_single_relation():
    basis = kernel_basis([{0: Fraction(1), 1: Fraction(1)}], 2)
    assert len(basis) == 1
    v = dense(basis[0][0], 2)
    assert v[0] + v[1] == 0 and any(v)


def test_kernel_vectors_annihilate_random_matrices():
    rng = random.Random(11)
    for _ in range(15):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = [[Fraction(rng.randrange(-4, 5)) for _ in range(cols)] for _ in range(rows)]
        basis = kernel_basis(map(sparse, m), cols)
        assert rank(m) + len(basis) == cols
        for nums, _ in basis:
            v = dense(nums, cols)
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve_in_span():
    b1 = [Fraction(1), Fraction(0), Fraction(2)]
    b2 = [Fraction(0), Fraction(1), Fraction(-1)]
    target = [Fraction(3), Fraction(2), Fraction(4)]
    coords = solve_in_span([b1, b2], target)
    assert coords == [Fraction(3), Fraction(2)]
    assert solve_in_span([b1, b2], [Fraction(0), Fraction(0), Fraction(1)]) is None


def test_charpoly_companion():
    m = [[Fraction(0), Fraction(-2)], [Fraction(1), Fraction(3)]]
    # char poly x^2 - 3x + 2
    assert charpoly(m) == [Fraction(1), Fraction(-3), Fraction(2)]


def test_frac_str():
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert frac_str(Fraction(-5)) == "-5"


def test_kernel_takes_int_rows_and_returns_integer_pairs():
    basis = kernel_basis([{0: 2, 2: -4}, {}, {0: -3, 2: 6}], 3)
    assert basis == [({1: 1}, 1), ({0: 2, 2: 1}, 1)]
    assert all(type(x) is int for nums, den in basis for x in [*nums.values(), den])
    # the pivot entry 2 is the denominator of -1/2, but -2/2 = -1 is an
    # integer: the second vector is over 1
    assert kernel_basis([{0: 2, 1: 1, 2: 2}], 3) == [({0: -1, 1: 2}, 2), ({0: -1, 2: 1}, 1)]


# -- the dense Fraction elimination this package used before, as a reference


def _dense_echelonize(rows):
    pivots = {}
    for row in rows:
        row = [Fraction(x) for x in row]
        while True:
            lead = next((j for j, v in enumerate(row) if v), None)
            if lead is None:
                break
            if lead in pivots:
                prow = pivots[lead]
                factor = row[lead] / prow[lead]
                for j in range(lead, len(row)):
                    row[j] -= factor * prow[j]
                continue
            inv = 1 / row[lead]
            pivots[lead] = [v * inv for v in row]
            break
    for lead in sorted(pivots, reverse=True):
        prow = pivots[lead]
        for other_lead, orow in pivots.items():
            if other_lead < lead and orow[lead]:
                factor = orow[lead]
                for j in range(lead, len(prow)):
                    orow[j] -= factor * prow[j]
    return pivots


def _dense_kernel_basis(rows, ncols):
    pivots = _dense_echelonize(rows)
    basis = []
    for fc in (j for j in range(ncols) if j not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for lead, prow in pivots.items():
            vec[lead] = -prow[fc]
        basis.append(vec)
    return basis


def _dense_solve_in_span(basis, target):
    m = len(basis)
    rows = [[b[r] for b in basis] + [target[r]] for r in range(len(target))]
    pivots = _dense_echelonize(rows)
    if m in pivots:
        return None
    coords = [Fraction(0)] * m
    for lead, prow in pivots.items():
        coords[lead] = prow[m]
    for r in range(len(target)):
        if sum(b[r] * c for b, c in zip(basis, coords)) != target[r]:
            return None
    return coords


BIG = 10**9
ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-BIG, BIG),
    st.fractions(-BIG, BIG, max_denominator=BIG),
    st.fractions(-5, 5, max_denominator=6),
)


@st.composite
def matrices(draw):
    """Dense or sparse rows with zero, duplicate and scaled rows mixed in."""
    ncols = draw(st.integers(1, 7))
    entry = ENTRIES
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.just(0), st.just(0), ENTRIES)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    if rows:
        for r in draw(st.lists(st.sampled_from(rows), max_size=2)):
            rows.append([draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)])) * x for x in r])
    if draw(st.booleans()):
        rows.append([0] * ncols)
    return draw(st.permutations(rows)), ncols


@settings(deadline=None)
@given(matrices())
def test_elimination_matches_dense_fraction_reference(mat):
    rows, ncols = mat
    basis = kernel_basis(map(sparse, rows), ncols)
    for nums, den in basis:
        # the canonical pair: nonzero integer numerators, keys ascending,
        # den > 0 prime to them, and the free column last with numerator den
        assert all(type(x) is int and x for x in nums.values())
        assert list(nums) == sorted(nums)
        assert type(den) is int and den > 0 and gcd(den, *nums.values()) == 1
        assert nums[max(nums)] == den
    assert [[x / den for x in dense(nums, ncols)] for nums, den in basis] \
        == _dense_kernel_basis(rows, ncols)
    assert rank(rows) == len(_dense_echelonize(rows)) == ncols - len(basis)


@settings(deadline=None)
@given(data=st.data(), mat=matrices())
def test_solve_in_span_matches_dense_fraction_reference(data, mat):
    rows, ncols = mat
    if not rows:
        return
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
        target = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
    else:
        target = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
    assert solve_in_span(rows, target) == _dense_solve_in_span(rows, target)
