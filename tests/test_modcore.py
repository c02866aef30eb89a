import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conic_lab.modcore import (
    TABLE_Q_MAX,
    PrimePowerModulus,
    _rem,
    exact_sum,
    gauss_sum,
    gauss_sum_character,
    gauss_sum_unit,
    inv_mod_array,
    is_prime,
    jacobi,
    jacobi_table,
    main_constant,
    mod_inverse,
    poly_eval_mod,
    poly_eval_mod_class,
    ratio_mod_class,
    s_p,
    sqrt_mod_prime_power,
    trig_table,
    validate_coeffs,
    valuation,
)
from fractions import Fraction

import numpy as np

import oracles


def test_modulus_validation():
    pp = PrimePowerModulus(7, 2)
    assert (pp.p, pp.n, pp.q) == (7, 2, 49)
    with pytest.raises(ValueError):
        PrimePowerModulus(2, 3)
    with pytest.raises(ValueError):
        PrimePowerModulus(9, 1)
    with pytest.raises(ValueError):
        PrimePowerModulus(7, 0)
    with pytest.raises(ValueError):
        PrimePowerModulus(3, 41)  # 3^41 > 2^62
    with pytest.raises(ValueError):
        PrimePowerModulus(3, 10**10)  # refused before 3^(10^10) is computed


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 97, 7919}
    for m in range(2, 100):
        assert is_prime(m) == all(m % d for d in range(2, m))
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)


def _trial_division_exponent(x, p):
    """The e with p^e | x and p^(e+1) not dividing x, for x != 0, by testing each power."""
    e = 0
    while x % p ** (e + 1) == 0:
        e += 1
    return e


@st.composite
def valuation_inputs(draw):
    """(x, p) with |x| <= 10^40, x often a multiple of a high power of p, 0 and +-1 included."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101, 2**61 - 1]))
    k = draw(st.integers(0, int(math.log(10**40, p))))
    bound = 10**40 // p**k
    u = draw(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-bound, bound)))
    return u * p**k, p


@settings(max_examples=300, derandomize=True, deadline=None)
@given(valuation_inputs())
def test_valuation_is_trial_division(instance):
    x, p = instance
    assert valuation(x, p) == (None if x == 0 else _trial_division_exponent(x, p))


def test_valuation_refuses_a_base_below_2():
    for x in (0, 1, 12):
        for p in (1, 0, -2):
            with pytest.raises(ValueError, match=f"base p={p} must be >= 2"):
                valuation(x, p)


def test_jacobi_examples():
    assert jacobi(1, 7) == 1
    assert jacobi(2, 7) == 1  # 3^2 = 9 = 2 mod 7
    assert jacobi(3, 7) == -1
    assert jacobi(0, 7) == 0
    with pytest.raises(ValueError):
        jacobi(3, 10)
    with pytest.raises(ValueError):
        jacobi(3, -7)


def test_jacobi_properties():
    rng = random.Random(0)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13, 101])
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        assert jacobi(a * a, p) == 1
        assert jacobi(a * b, p) == jacobi(a, p) * jacobi(b, p)
    # multiplicative in the modulus as well
    for _ in range(100):
        a = rng.randrange(100)
        m1 = rng.randrange(1, 60) * 2 + 1
        m2 = rng.randrange(1, 60) * 2 + 1
        assert jacobi(a, m1 * m2) == jacobi(a, m1) * jacobi(a, m2)


def test_jacobi_table_matches_scalar():
    for q in (3, 9, 15, 45, 49, 105):
        tab = jacobi_table(q)
        for y in range(q):
            assert tab[y] == jacobi(y, q)


def test_mod_inverse():
    assert mod_inverse(3, 49) == 33
    assert mod_inverse(1, 97) == 1
    with pytest.raises(ValueError):
        mod_inverse(7, 49)
    rng = random.Random(1)
    for _ in range(200):
        q = rng.randrange(3, 10**6)
        a = rng.randrange(1, q)
        if math.gcd(a, q) != 1:
            continue
        assert a * mod_inverse(a, q) % q == 1


def test_sqrt_mod_prime_power_examples():
    assert sqrt_mod_prime_power(2, PrimePowerModulus(7, 2)) == 10
    assert sqrt_mod_prime_power(1, PrimePowerModulus(7, 2)) == 1
    assert sqrt_mod_prime_power(3, PrimePowerModulus(7, 3)) is None
    with pytest.raises(ValueError):
        sqrt_mod_prime_power(7, PrimePowerModulus(7, 2))


def test_sqrt_root_set_property():
    rng = random.Random(2)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11, 13, 10007])
        n = rng.randint(1, 4)
        pp = PrimePowerModulus(p, n)
        if pp.q > 10**7:
            continue
        a = rng.randrange(1, pp.q)
        if a % p == 0:
            continue
        r = sqrt_mod_prime_power(a, pp)
        if r is None:
            assert jacobi(a, p) == -1
            continue
        assert r * r % pp.q == a % pp.q
        assert r == min(r, pp.q - r)  # smaller representative


def test_gauss_sum_examples():
    g3 = gauss_sum(3)
    assert abs(g3 - complex(0, math.sqrt(3))) < 1e-12
    g5 = gauss_sum(5)
    assert abs(g5 - complex(math.sqrt(5), 0)) < 1e-12
    assert abs(abs(gauss_sum(49)) - 7.0) < 1e-9
    with pytest.raises(ValueError):
        gauss_sum(10)


def test_gauss_sum_modulus_and_character_form():
    rng = random.Random(4)
    for _ in range(25):
        q = rng.randrange(1, 2000) * 2 + 1
        g = gauss_sum(q)
        assert abs(abs(g) ** 2 - q) / q < 1e-9
        # the character form agrees on squarefree q
        squarefree = all(q % (d * d) for d in range(2, int(math.isqrt(q)) + 1))
        if squarefree:
            assert abs(g - gauss_sum_character(q)) < 1e-9
        assert abs(gauss_sum_unit(q) * math.sqrt(q) - g) < 1e-7


def test_gauss_sums_equal_fsum_of_the_terms():
    # bit for bit the fsum of the float cos and sin terms, q up to TABLE_Q_MAX
    def fsum_exp(vals, q, chi=1.0):
        ang = vals * (2.0 * np.pi / q)
        return complex(math.fsum(np.cos(ang) * chi), math.fsum(np.sin(ang) * chi))

    for q in (1, 9, 3**14, 9_999_991):
        want = fsum_exp(np.arange(1, q + 1, dtype=np.int64) ** 2 % q, q)
        assert repr(gauss_sum(q)) == repr(want), q
        want = fsum_exp(np.arange(q, dtype=np.int64), q, jacobi_table(q).astype(np.float64))
        assert repr(gauss_sum_character(q)) == repr(want), q


@st.composite
def exact_sum_inputs(draw):
    """(first, step, idx, perm, q, multiplicity): a coset first + step Z mod q = p^n <= 7^4,
    step = p^k for k = 0..n, indices into its table, and multiplicity 1, p or p^2."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, int(math.log(7**4, p) + 1e-9)))
    step = p ** draw(st.integers(0, n))  # p^0: the whole of Z mod q, as the Gauss sums take it
    first = draw(st.integers(0, step - 1))
    idx = draw(st.lists(st.integers(0, (p**n - first - 1) // step), max_size=400))
    perm = draw(st.permutations(range(len(idx))))
    multiplicity = draw(st.sampled_from([1, p, p * p]))
    return first, step, np.array(idx, dtype=np.int64), np.array(perm, dtype=np.int64), p**n, multiplicity


@settings(max_examples=80, derandomize=True, deadline=None)
@given(exact_sum_inputs())
def test_exact_sum_does_not_depend_on_order(instance):
    # the terms are gathered from a table by index: their order must not show, and each
    # is the float of its own angle v (2 pi / q), v = first + step idx
    first, step, idx, perm, q, multiplicity = instance
    table = trig_table(q, first, step)
    assert table.shape == (2, len(range(first, q, step)))
    got = exact_sum(table, idx, multiplicity)
    assert [x.hex() for x in exact_sum(table, idx[perm], multiplicity)] == [x.hex() for x in got]
    ang = (first + step * idx) * (2.0 * np.pi / q)  # the terms in index order, each taken multiplicity times
    want = [math.fsum(trig(ang).tolist() * multiplicity) for trig in (np.cos, np.sin)]
    assert [x.hex() for x in got] == [x.hex() for x in want]


@st.composite
def rem_inputs(draw):
    """(x, q): odd q <= TABLE_Q_MAX, x in [-2^62, 2^62) with 0, q - 1, q and multiples of q."""
    q = 2 * draw(st.integers(0, (TABLE_Q_MAX - 1) // 2)) + 1
    edges = [0, q - 1, q, -q, -(q - 1), q * ((2**62 - 1) // q), -q * (2**62 // q), -(2**62), 2**62 - 1]
    multiples = draw(st.lists(st.integers(-(2**62 // q), 2**62 // q - 1), max_size=20))
    spread = draw(st.lists(st.integers(-(2**62), 2**62 - 1), max_size=50))
    return np.array(edges + [q * k for k in multiples] + spread, dtype=np.int64), q


@settings(max_examples=80, derandomize=True, deadline=None)
@given(rem_inputs())
def test_rem_is_np_remainder_in_place(instance):
    x, q = instance
    want = np.remainder(x, q)
    assert _rem(x, q) is x
    assert np.array_equal(x, want)


def test_character_form_diverges_on_square_part():
    # (y/9) is the principal character mod 3, so its sum telescopes to 0
    # while G_9 = 3: the two forms agree only for squarefree moduli.
    assert abs(gauss_sum(9) - 3.0) < 1e-12
    assert abs(gauss_sum_character(9)) < 1e-12


def test_s_p_examples():
    assert s_p((1, 1, -1), 7) == 3
    assert s_p((1, 1, 1), 7) == -1
    assert s_p((1, 1, -1), 5) == 5
    with pytest.raises(ValueError):
        s_p((7, 1, 1), 7)


def test_main_constant_examples():
    assert main_constant((1, 1, -1), 7) == Fraction(24, 49)
    assert main_constant((1, 1, 1), 7) == Fraction(48, 49)
    assert main_constant((1, 1, -1), 5) == 0


def test_validate_coeffs():
    assert tuple(validate_coeffs((1, 2, -3), 7)) == (1, 2, -3)
    with pytest.raises(ValueError):
        validate_coeffs((1, 14, 3), 7)
    for wrong_length in ((1, 2), (1, 2, 3, 4)):  # ValueError, not TypeError
        with pytest.raises(ValueError):
            validate_coeffs(wrong_length, 7)


def test_array_inverse_and_horner_vs_scalar():
    # q near the 1e7 cap (3^14, 7^8, 13^6) is where the int64 bound is tightest
    rng = random.Random(21)
    for p, n in [(3, 1), (3, 4), (3, 14), (5, 3), (5, 9), (7, 2), (7, 8), (11, 3), (13, 2), (13, 6)]:
        pp = PrimePowerModulus(p, n)
        q = pp.q
        xs = [0, 1, q - 1, q] + [rng.randrange(q + 1) for _ in range(300)]
        units = [x % q for x in xs if x % p]
        assert inv_mod_array(np.array(units, dtype=np.int64), pp).tolist() == [
            pow(d, -1, q) for d in units
        ]
        for _ in range(5):
            coeffs = [rng.randrange(-3 * q, 3 * q) for _ in range(rng.randint(1, 5))]
            want = oracles.horner_mod(coeffs, xs, q)
            assert [poly_eval_mod(coeffs, x, q) for x in xs] == want


def _class_xs(alpha, e, pp):
    return range(alpha, alpha + pp.p**(e + 1), pp.p)


def _classes_horner(coeffs, alphas, e, pp):
    return [v for alpha in alphas for v in oracles.horner_mod(coeffs, _class_xs(alpha, e, pp), pp.q)]


@st.composite
def class_polys(draw):
    """(coeffs, alphas, e, pp): p <= 13, q <= TABLE_Q_MAX, e < n, degree 0..7, coefficients +-3q.

    alphas is 0, 1 or p - 1 starts in [-q, q], distinct mod q, so that no two classes agree;
    p - 1 classes hold at most 200,000 values, which keeps the oracle's Python loop short.
    """
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    n_max = int(math.log(TABLE_Q_MAX, p))
    pp = PrimePowerModulus(p, draw(st.integers(1, n_max)))
    q = pp.q
    coeffs = draw(st.lists(st.integers(-3 * q, 3 * q), min_size=1, max_size=8))
    k = draw(st.sampled_from([0, 1, p - 1]))
    e_max = pp.n - 1
    while k > 1 and p**e_max * k > 200_000:
        e_max -= 1
    alphas = draw(st.lists(st.integers(-q, q), min_size=k, max_size=k, unique_by=lambda a: a % q))
    return coeffs, alphas, draw(st.integers(0, e_max)), pp


@settings(max_examples=80, derandomize=True, deadline=None)
@given(class_polys())
def test_poly_eval_mod_class_is_horner_on_the_class(instance):
    coeffs, alphas, e, pp = instance
    got = poly_eval_mod_class(coeffs, alphas, e, pp)
    assert got.dtype == np.int64 and got.shape == (len(alphas) * pp.p**e,)
    assert got.tolist() == _classes_horner(coeffs, alphas, e, pp)


def test_poly_eval_mod_class_int64_worst_case():
    # q = 3^14 is next to the cap, every coefficient reduces to q - 1, and the class starting
    # at -1 = q - 1 has its first value at the top of the range too
    pp = PrimePowerModulus(3, 14)
    q = pp.q
    coeffs = [-1] * 9
    alphas, e = [2, -1, 1], 12
    got = poly_eval_mod_class(coeffs, alphas, e, pp)
    assert got.tolist() == _classes_horner(coeffs, alphas, e, pp)
    rng = random.Random(14)
    size, big = 3**e, 3**6  # the baby-step block length, so block edges are checked too
    for c, alpha in enumerate(alphas):
        for s in [0, 1, big - 1, big, big + 1, size - 1] + rng.sample(range(size), 700):
            assert got[c * size + s] == sum(-((alpha + 3 * s) ** k) for k in range(9)) % q, (alpha, s)


def test_poly_eval_mod_class_past_the_giant_step_powers():
    # degree 199 at q = 5^10: the giant steps keep ceil(10 / (floor(e/2) + 1)) of the 200
    # powers w^b, the rest being 0 mod q; every coefficient reduces to q - 1, and the class
    # starting at q - 1 has its first value at the top of the range
    pp = PrimePowerModulus(5, 10)
    q = pp.q
    coeffs = [-1] * 200
    alphas = [q - 1, 2]
    for e in (0, 1, 4):
        got = poly_eval_mod_class(coeffs, alphas, e, pp)
        assert got.dtype == np.int64 and got.tolist() == _classes_horner(coeffs, alphas, e, pp), e


def test_poly_eval_mod_class_degree_guard():
    # past degree 91,999 a matmul sum could pass 2^63; refused before any table is built
    with pytest.raises(ValueError):
        poly_eval_mod_class([1] * 92_001, [1], 1, PrimePowerModulus(3, 2))


def test_ratio_mod_class_of_no_classes_is_empty():
    pp = PrimePowerModulus(7, 3)
    for denom in ([3], [1, 0, 1]):
        (got,) = ratio_mod_class(([1, 2, 3],), denom, [], 1, pp)
        assert got.dtype == np.int64 and got.shape == (0,)


def test_inv_mod_array_product_tree_lengths():
    rng = random.Random(9)
    for p, n in [(3, 9), (5, 6), (7, 4), (13, 3)]:
        pp = PrimePowerModulus(p, n)
        q = pp.q
        # 0..70 end the tree with 0 to 32 top-level roots on one to three levels
        lengths = set(range(71)) | {p ** (n - 1)}
        lengths |= {2**k + e for k in range(1, 11) for e in (-1, 1)}
        for length in sorted(lengths):
            units = [rng.randrange(1, q) for _ in range(3 * length + 9)]
            units = [d for d in units if d % p][:length]
            assert len(units) == length
            want = [pow(d, -1, q) for d in units]
            got = inv_mod_array(np.array(units, dtype=np.int64), pp)
            assert got.dtype == np.int64 and got.tolist() == want, length
            assert inv_mod_array(np.array(units, dtype=object), pp).tolist() == want, length


def test_inv_mod_array_refuses_non_units():
    pp = PrimePowerModulus(7, 3)
    with pytest.raises(ValueError):
        inv_mod_array(np.array([3, 14, 49, 50], dtype=np.int64), pp)
    d = np.array([u for u in range(1, 6000) if u % 7], dtype=np.int64) % pp.q
    d[2345] = 7 * 30
    for arr in (d, d.astype(object)):
        with pytest.raises(ValueError):
            inv_mod_array(arr, pp)
    # a non-unit among the <= 32 top-level roots (20 entries are all roots) and one among the
    # leaves of a 5000-entry tree, eight levels below its top, raise the same message, for
    # int64 and object arrays
    for length, at in ((20, 13), (5000, 4321)):
        d = np.array([u for u in range(1, 2 * length) if u % 7][:length], dtype=np.int64)
        d[at] = 49
        for arr in (d, d.astype(object)):
            with pytest.raises(ValueError, match=r"^inv_mod_array: an entry is not a unit mod 343$"):
                inv_mod_array(arr, pp)
