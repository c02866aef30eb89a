import cmath
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conic_lab.modcore import TABLE_Q_MAX, PrimePowerModulus, exact_sum, jacobi, valuation
from conic_lab.conic import (
    CASE_I,
    CASE_II,
    build_family,
    case_tag,
    family_plan,
)
from conic_lab.expsum import (
    IntRationalFunction,
    NonUnitDenominatorError,
    UnsupportedCaseError,
    closed_form_E,
    cochrane_evaluate,
    direct_E,
    direct_S_alpha,
    direct_sums,
    family_amplitude,
    layer_requests,
    layer_sum,
)

import oracles


T2 = IntRationalFunction((0, 0, 1))  # t^2
T1 = IntRationalFunction((0, 1))  # t
INV_T = IntRationalFunction((1,), (0, 1))  # 1/t


def test_eval_mod_examples():
    assert T2.eval_mod(3, 49) == 9
    assert INV_T.eval_mod(3, 49) == 33
    with pytest.raises(NonUnitDenominatorError):
        INV_T.eval_mod(7, 49)


def test_ord_p_derivative_examples():
    # r = ord_p(f'), the exact p-content of the derivative
    assert T2.derivative().stripped(7)[1] == 0
    assert IntRationalFunction((0, 0, 0, 7)).derivative().stripped(7)[1] == 1
    assert IntRationalFunction((1, 2), (0, 1)).derivative().stripped(7)[1] == 0
    with pytest.raises(ValueError):
        IntRationalFunction((5,)).derivative().stripped(7)[1]


def _poly_deriv_ref(c):
    out = tuple(i * ci for i, ci in enumerate(c))[1:]
    return out if out else (0,)


def test_derivative_quotient_rule():
    rng = random.Random(0)
    big = 2**61 - 1
    for _ in range(60):
        numer = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
        denom = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 3)))
        if not any(denom):
            denom = (1,)
        f = IntRationalFunction(numer, denom)
        df = f.derivative()
        # polynomial identity test at random points mod a large prime:
        # (N/D)' * D^2 == N'D - ND'
        for _ in range(4):
            t = rng.randrange(big)
            dv = IntRationalFunction(f.denom).eval_mod(t, big)
            if dv == 0:
                continue
            lhs = df.eval_mod(t, big) * pow(dv, 2, big) % big
            n_val = IntRationalFunction(f.numer).eval_mod(t, big)
            ndash = IntRationalFunction(_poly_deriv_ref(f.numer)).eval_mod(t, big)
            ddash = IntRationalFunction(_poly_deriv_ref(f.denom)).eval_mod(t, big)
            assert lhs == (ndash * dv - n_val * ddash) % big


def test_direct_S_alpha_examples():
    pp72 = PrimePowerModulus(7, 2)
    pp73 = PrimePowerModulus(7, 3)
    assert abs(direct_S_alpha(T1, 1, pp72)) < 1e-9
    assert abs(direct_S_alpha(T2, 0, pp72) - 7) < 1e-9
    assert abs(direct_S_alpha(T2, 0, pp73) - 1j * 7**1.5) < 1e-9
    with pytest.raises(NonUnitDenominatorError):
        direct_S_alpha(INV_T, 0, pp72)


def test_direct_S_alpha_partition_identity():
    rng = random.Random(1)
    for _ in range(15):
        p = rng.choice([3, 5, 7])
        n = rng.randint(2, 4)
        pp = PrimePowerModulus(p, n)
        f = IntRationalFunction(tuple(rng.randint(-9, 9) for _ in range(4)) or (1,))
        total = sum(direct_S_alpha(f, a, pp) for a in range(p))
        want = oracles.direct_exp_sum(
            (f.eval_mod(t, pp.q) for t in range(pp.q)), pp.q
        )
        assert abs(total - want) < 1e-9


def _ref_eval(poly, t):
    return sum(c * t**i for i, c in enumerate(poly))


def _ref_values(f, q, ts):
    """f(t) mod q for each t by Python integer arithmetic."""
    return [_ref_eval(f.numer, t) * pow(_ref_eval(f.denom, t), -1, q) % q for t in ts]


def test_direct_sums_rational_denominator():
    # a non-constant unit denominator goes through inv_mod_array's product
    # tree; n = 1 has a single term per class
    rng = random.Random(3)
    for p in (3, 5, 7, 11):
        for n in range(1, 5):
            pp = PrimePowerModulus(p, n)
            f = IntRationalFunction(
                tuple(rng.randint(-9, 9) for _ in range(3)),
                (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)),
            )
            alphas = [a for a in range(p) if _ref_eval(f.denom, a) % p]
            assert alphas
            for a in alphas:
                want = oracles.direct_exp_sum(_ref_values(f, pp.q, range(a, pp.q, p)), pp.q)
                assert abs(direct_S_alpha(f, a, pp) - want) < 1e-9
            ts = [t for t in range(pp.q) if t % p in alphas]
            want = oracles.direct_exp_sum(_ref_values(f, pp.q, ts), pp.q)
            assert abs(sum(direct_S_alpha(f, a, pp) for a in alphas) - want) < 1e-9


def _same_float(a, b):
    return float(a).hex() == float(b).hex()


# multiples of 2^-76 in [-1, 1]: a 53-bit mantissa scaled by 2^-53 .. 2^-76
grid_floats = st.builds(
    lambda m, e: math.ldexp(m, -53 - e), st.integers(-(2**53), 2**53), st.integers(0, 23)
)


def _exact_sum_of(xs, multiplicity=1):
    """exact_sum of the one row xs."""
    return exact_sum(np.array([xs], dtype=float), multiplicity=multiplicity)[0]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(grid_floats, max_size=200))
def test_exact_sum_is_fsum_on_the_grid(xs):
    assert _same_float(_exact_sum_of(xs), math.fsum(xs))


def test_exact_sum_edge_cases():
    cases = [
        [],
        [1.0, 2.0**-53],  # half-way: ties to the even 1.0
        [1.0, 2.0**-52, 2.0**-53],  # half-way: ties up to the even 1 + 2^-51
        [1.0, 2.0**-53, 2.0**-76],  # just past half-way
        [-1.0, -(2.0**-53)],
        [0.1, 0.2, -0.1, -0.2],  # exact cancellation to 0
        [0.1, 0.2, -0.3],
        [1.0, -1.0, 1.0, 1.0, -1.0],
        [math.sin(math.pi / 2e7), -math.sin(math.pi / 2e7), 2.0**-23, 2.0**-76],
    ]
    # the smallest nonzero terms: cos and sin next to a quarter turn at q near the cap
    q = 10**7 - 1
    ang = np.arange(q // 4 - 2, q // 4 + 3) * (2.0 * np.pi / q)
    near = np.concatenate([np.cos(ang), np.sin(2 * ang), [1.0, -1.0]])
    assert np.abs(near).min() > 2.0**-23
    cases.append(near.tolist())
    for xs in cases:
        assert _same_float(_exact_sum_of(xs), math.fsum(xs)), xs


def test_exact_sum_worst_case_lengths():
    # a class has at most q/3 terms and a Gauss sum q <= TABLE_Q_MAX terms;
    # every hi limb is near +-2^38, or every lo limb near 2^38
    for n in (3_333_333, TABLE_Q_MAX):
        for x in (1.0 - 2.0**-53, -(1.0 - 2.0**-53), -1.0):
            got = exact_sum(np.full((1, n), x))[0]
            assert _same_float(got, math.fsum(itertools.repeat(x, n))), (n, x)


def test_exact_sum_full_blocks():
    # exactly one block of 2^15 terms, and one term past it: a limb total reaches 2^53,
    # the most a float64 block sum holds exactly; rows are summed apart
    for x in (1.0, -1.0, 1.0 - 2.0**-53, -(1.0 - 2.0**-53)):
        for n in (2**15, 2**15 + 1, 2**16):
            rows = np.array([np.full(n, x), np.full(n, -x)])
            assert exact_sum(rows) == [math.fsum(itertools.repeat(v, n)) for v in (x, -x)]
            for multiplicity in (1, 3**13):  # the exact total times multiplicity, rounded once
                want = [float(Fraction(v) * n * multiplicity) for v in (x, -x)]
                got = exact_sum(rows, multiplicity=multiplicity)
                assert [v.hex() for v in got] == [v.hex() for v in want], (x, n, multiplicity)
                assert exact_sum(rows, np.arange(n), multiplicity) == got


def test_exact_sum_low_limbs_sum_exactly():
    # terms of size 2^-23 with the full 2^-75 grid below; in both inputs the low limbs sum to
    # an odd total past 2^53, which one float64 sum of them all could not hold: it would
    # lose the 2^-76
    rng = np.random.default_rng(14)
    xs = np.ldexp(rng.integers(2**52, 2**53, size=2**16).astype(np.float64), -75)
    tiny = [2.0**-76]
    for parts in ([xs, -xs, tiny], [tiny, xs[1:], -xs[1:]]):
        terms = np.concatenate(parts)
        assert math.fsum(terms.tolist()) == 2.0**-76
        assert _same_float(_exact_sum_of(terms), 2.0**-76)


def _fsum_of_the_terms(f, a, pp):
    """fsum of the float cos and sin terms of all p^(n-1) points of the class a mod p."""
    vals = _ref_values(f, pp.q, range(a, pp.q, pp.p))
    ang = np.array(vals, dtype=np.int64) * (2.0 * np.pi / pp.q)
    return complex(math.fsum(np.cos(ang).tolist()), math.fsum(np.sin(ang).tolist()))


def test_direct_S_alpha_equals_fsum_of_the_terms():
    # bit for bit the per-class fsum of the float cos and sin terms
    rng = random.Random(8)
    for p, n_max in ((3, 8), (5, 6), (7, 5), (11, 4), (13, 3)):
        for n in (rng.randint(1, n_max - 1), n_max, n_max):
            pp = PrimePowerModulus(p, n)
            numer = tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 5)))
            denom = (1,) if rng.random() < 0.5 else (rng.randint(1, 9), rng.randint(-9, 9), 1)
            f = IntRationalFunction(numer, denom)
            for a in rng.sample(range(p), min(p, 3)):
                if _ref_eval(f.denom, a) % p == 0:
                    continue
                assert direct_S_alpha(f, a, pp) == _fsum_of_the_terms(f, a, pp)
    # the benchmark's sizes, where the most terms are gathered from one coset's table: one
    # class of 78,125 and one of 16,807 terms, each with a non-constant denominator. The
    # oracle takes cos and sin of each term's own angle, in class order, so a table entry
    # must be the float of that angle.
    for f, a, pp in ((IntRationalFunction((3, 5, 7, 11), (2, 0, 1)), 1, PrimePowerModulus(5, 8)),
                     (IntRationalFunction((4, -9, 2, 1), (3, 1, 1)), 2, PrimePowerModulus(7, 6))):
        assert direct_S_alpha(f, a, pp) == _fsum_of_the_terms(f, a, pp)


def test_direct_S_alpha_over_one_period_equals_fsum_of_the_terms():
    # a numer with content exactly p^s is summed over one period mod p^(n - min(s, n-1))
    # and weighted by p^min(s, n-1); still bit for bit the fsum of all p^(n-1) terms
    rng = random.Random(20)
    for p, n in ((3, 5), (5, 4), (7, 3), (11, 3)):
        pp = PrimePowerModulus(p, n)
        for s in (*range(n + 2), None):  # None: the zero numerator
            numer = (0,)
            if s is not None:
                coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(1, 4))]
                unit = rng.choice((1, -1)) * rng.randrange(1, p) + p * rng.randint(-5, 5)
                coeffs[rng.randrange(len(coeffs))] = unit  # the content is exactly p^s
                numer = tuple(p**s * c for c in coeffs)
            constant = rng.randrange(1, p) + p * rng.randint(-9, 9)
            for denom in ((constant,), (rng.randint(1, 9), rng.randint(-9, 9), 1)):
                f = IntRationalFunction(numer, denom)
                for a in rng.sample(range(p), min(p, 3)):
                    if _ref_eval(f.denom, a) % p == 0:
                        continue
                    assert direct_S_alpha(f, a, pp) == _fsum_of_the_terms(f, a, pp), (p, n, s, f, a)


def test_direct_S_alpha_memory_peak():
    # one class at 5^8 holds six 5^7-entry arrays (3.75 MB); a Python float
    # list of the terms or a q-entry table would push the peak past 4.2 MB
    f = IntRationalFunction((3, 5, 7, 11), (2, 0, 1))
    pp = PrimePowerModulus(5, 8)
    direct_S_alpha(f, 1, pp)
    tracemalloc.start()
    try:
        direct_S_alpha(f, 1, pp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.2e6


def _bits(z):
    return z.real.hex(), z.imag.hex()


@st.composite
def direct_sum_batches(draw):
    """(pp, batch, perm): requests (f, alpha) at q = p^n <= 3^6, drawn with repeats from a
    small pool, so cosets repeat; numer contents p^s for s = 0..n+1, and the zero numer."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    pp = PrimePowerModulus(p, draw(st.integers(1, {3: 6, 5: 4, 7: 3, 11: 2}[p])))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        s = draw(st.sampled_from([None, *range(pp.n + 2)]))  # s >= n - 1 sums one point
        numer = (0,)
        if s is not None:
            coeffs = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=4))
            coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(st.integers(1, p - 1))  # content p^s
            numer = tuple(p**s * c for c in coeffs)
        f = IntRationalFunction(numer, draw(st.sampled_from([(1,), (-4,), (2, 0, 1), (1, 1, 1), (3, -1, 2)])))
        pool += [(f, a + p * draw(st.integers(-2, 2))) for a in range(p) if _ref_eval(f.denom, a) % p]
    assume(pool)
    batch = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    return pp, batch, draw(st.permutations(range(len(batch))))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(direct_sum_batches())
def test_direct_sums_batch_is_its_singletons(instance):
    # a batch equals its one-request calls and the fsum of each class's terms, bit for bit,
    # in any order: the requests share tables, not terms
    pp, batch, perm = instance
    got = [_bits(z) for z in direct_sums(batch, pp)]
    assert got == [_bits(direct_S_alpha(f, a, pp)) for f, a in batch]
    assert got == [_bits(_fsum_of_the_terms(f, a % pp.p, pp)) for f, a in batch]
    assert [_bits(z) for z in direct_sums([batch[i] for i in perm], pp)] == [got[i] for i in perm]


def test_direct_sums_refuses_a_bad_class_before_summing():
    pp = PrimePowerModulus(7, 3)
    assert direct_sums([], pp) == []
    with pytest.raises(NonUnitDenominatorError):
        direct_sums([(T2, 1), (INV_T, 7)], pp)
    with pytest.raises(ValueError, match="table budget"):
        direct_sums([(T2, 1)], PrimePowerModulus(7, 9))


def test_direct_sums_memory_peak_over_all_cosets():
    # five functions whose class 1 mod 5 has its values in each of the five cosets
    # w + 5Z, w = 0..4, at 5^8, each queued twice: one coset table (1.25 MB) alive at a
    # time keeps the batch under the one-class bound
    pp = PrimePowerModulus(5, 8)
    batch = [(IntRationalFunction((c, 5, 7, 11), (2, 0, 1)), a) for c in range(1, 6) for a in (1, 6)]
    assert {_ref_values(f, 5, [1])[0] for f, _ in batch} == set(range(5))
    direct_sums(batch, pp)
    tracemalloc.start()
    try:
        direct_sums(batch, pp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.2e6


def test_cochrane_examples():
    pp72 = PrimePowerModulus(7, 2)
    pp73 = PrimePowerModulus(7, 3)
    assert cochrane_evaluate(T1, 1, pp72) == 0
    assert abs(cochrane_evaluate(T2, 0, pp72) - 7) < 1e-9
    assert abs(cochrane_evaluate(T2, 0, pp73) - 1j * 7**1.5) < 1e-9


def test_cochrane_typed_errors():
    pp72 = PrimePowerModulus(7, 2)
    with pytest.raises(UnsupportedCaseError):
        cochrane_evaluate(T2, 0, PrimePowerModulus(7, 1))  # r > n-2
    with pytest.raises(UnsupportedCaseError):
        cochrane_evaluate(IntRationalFunction((0, 0, 0, 1)), 0, PrimePowerModulus(7, 3))  # double root
    with pytest.raises(NonUnitDenominatorError):
        cochrane_evaluate(INV_T, 0, pp72)


def test_cochrane_p3_gap_is_excluded():
    # p = 3, n - r = 3 with r >= 1: the cubic Taylor term survives mod 3^n
    # and the quadratic stationary-phase formula is wrong; the instance
    # below has |direct| = 3^(5/2) but a rotated phase.
    f = IntRationalFunction((10, -18, 15, 1))
    pp = PrimePowerModulus(3, 4)
    assert f.derivative().stripped(3)[1] == 1
    with pytest.raises(UnsupportedCaseError):
        cochrane_evaluate(f, 0, pp)
    direct = direct_S_alpha(f, 0, pp)
    assert abs(abs(direct) - 3**2.5) < 1e-9
    # the formula's claimed value amounts to e(f(6)/81) * 3^2.5 * (A/3) * i
    claimed = cmath.exp(2j * math.pi * 10 / 81) * 3**2.5 * (-1) * 1j
    assert abs(direct - claimed) > 1.0


def test_cochrane_vs_direct_random_sweep():
    rng = random.Random(2)
    checked = 0
    while checked < 120:
        p = rng.choice([3, 5, 7, 11])
        n = rng.choice([3, 4, 5])
        pp = PrimePowerModulus(p, n)
        numer = [rng.randint(-30, 30) * p ** rng.choice([0, 0, 0, 1]) for _ in range(rng.randint(2, 5))]
        denom = (1,) if rng.random() < 0.6 else (rng.randint(-9, 9), rng.randint(-9, 9))
        if not any(denom):
            denom = (1,)
        try:
            f = IntRationalFunction(tuple(numer), tuple(denom))
            alpha = rng.randrange(p)
            got = cochrane_evaluate(f, alpha, pp)
            want = direct_S_alpha(f, alpha, pp)
        except (UnsupportedCaseError, NonUnitDenominatorError, ValueError):
            continue
        if got == 0:
            assert abs(want) < 1e-9
        else:
            assert abs(got - want) / max(1.0, abs(want)) < 1e-6
        checked += 1


def test_cochrane_T2_at_7_4():
    pp = PrimePowerModulus(7, 4)
    # r = 0 and the one critical point 0 is simple: p^(n/2) = 49 at n - r even
    assert abs(cochrane_evaluate(T2, 0, pp) - direct_S_alpha(T2, 0, pp)) < 1e-9
    assert abs(cochrane_evaluate(T2, 0, pp) - 49) < 1e-9


def _poly_mul_ref(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _content_ord(c, p):
    """ord_p of the gcd of the coefficients c, not all zero."""
    r = 0
    while all(x % p ** (r + 1) == 0 for x in c):
        r += 1
    return r


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6).filter(any),
       st.sampled_from([3, 5, 7, 11]), st.integers(0, 6))
def test_gcd_valuation_is_the_content_ord(c, p, k):
    # the p-content of a coefficient tuple, as stripped and direct_sums read it
    c = [x * p**k for x in c]
    assert valuation(math.gcd(*c), p) == _content_ord(c, p)


@st.composite
def critical_point_instances(draw):
    """(f, alpha, pp, g) with p^(-r) f' = g / denom^2, g free of p-content, and r <= n - 2;
    a third of the f are (x - a)^3 h + c, whose derivative has the double root a."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    numer = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=5))
    if draw(st.booleans()):
        numer = [numer[0]] + [p ** draw(st.integers(0, 2)) * c for c in numer[1:]]
    if draw(st.integers(0, 2)) == 0:
        a = draw(st.integers(0, p - 1))
        numer = _poly_mul_ref(_poly_mul_ref(_poly_mul_ref([-a, 1], [-a, 1]), [-a, 1]), numer)
        numer[0] += draw(st.integers(-5, 5))
    denom = draw(st.sampled_from([[1], [3], [1, 1], [2, 0, 1], [1, -1, 3]]))
    alpha = draw(st.integers(0, p - 1))
    assume(_ref_eval(denom, alpha) % p)
    # the quotient rule's numerator N' D - N D', as D^2 has no p-content
    dn = [x - y for x, y in itertools.zip_longest(
        _poly_mul_ref(_poly_deriv_ref(numer), denom), _poly_mul_ref(numer, _poly_deriv_ref(denom)),
        fillvalue=0)]
    assume(any(dn))
    r = _content_ord(dn, p)
    pp = PrimePowerModulus(p, r + draw(st.integers(2, 4)))
    return IntRationalFunction(tuple(numer), tuple(denom)), alpha, pp, [x // p**r for x in dn]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(critical_point_instances())
def test_cochrane_critical_points_match_the_multiplicity_oracle(instance):
    # exactly 0j off the roots of g = p^(-r) f' mod p, a nonzero value at simple roots,
    # and the multiple-root refusal at roots of multiplicity >= 2
    f, alpha, pp, g = instance
    mult = oracles.root_multiplicity_mod_p(g, alpha, pp.p)
    try:
        got = cochrane_evaluate(f, alpha, pp)
    except UnsupportedCaseError as exc:
        assert "multiple critical point" in str(exc) and mult >= 2, (str(exc), mult)
        return
    assert mult < 2 and (got == 0j) == (mult == 0), (got, mult)


def test_family_case1_structure():
    pp = PrimePowerModulus(7, 3)
    coeffs = (1, 1, -1)
    base, _ = family_plan(coeffs, pp)
    b = base.b
    # the Case I family is layer 0 through (0, b)
    # k1 = k2 = 0: the zero amplitude; every class sums to p^(n-1)
    f0 = family_amplitude(0, 0, 0, 1, coeffs, pp)
    assert f0.numer == (0,)
    for alpha in range(1, 7):
        assert abs(direct_S_alpha(f0, alpha, pp) - 49) < 1e-9
    # derivative of the amplitude matches the chord-slope form
    rng = random.Random(3)
    big = 2**61 - 1
    for _ in range(20):
        k1, k2, x3 = rng.randrange(1, 343), rng.randrange(1, 343), rng.randrange(1, 7)
        f = family_amplitude(0, k1, k2, x3, coeffs, pp)
        df = f.derivative()
        for _ in range(3):
            t = rng.randrange(big)
            den = (1 + t * t) % big
            if den == 0:
                continue
            # f' == 2 x3 b a2 (k1(a1 - a2 t^2) - 2 k2 a1 t) / (a1 + a2 t^2)^2
            want = 2 * x3 * b * (k1 * (1 - t * t) - 2 * k2 * t) % big
            got = df.eval_mod(t, big) * pow(den, 2, big) % big
            assert got == want % big


def test_family_case1_gcd_mismatch_vanishes():
    pp = PrimePowerModulus(7, 3)
    coeffs = (1, 1, -1)
    rng = random.Random(4)
    for _ in range(10):
        l1 = rng.randrange(1, 343)
        l2 = rng.randrange(1, 343)
        if l1 % 7 == 0 or l2 % 7 == 0:
            continue
        assert abs(direct_E(l1, 7 * l2, rng.randrange(1, 7), coeffs, pp)) < 1e-9
        assert abs(direct_E(7 * l1, l2, rng.randrange(1, 7), coeffs, pp)) < 1e-9


def test_family_case2_layer_sums():
    # k1 = k2 = 0 recovers the layer sizes, the one pair of M_n included
    for p, n in ((3, 3), (7, 3), (11, 2)):
        pp = PrimePowerModulus(p, n)
        for coeffs in ((1, 1, 1), (1, 1, -1)):  # Case II, Case I
            fam = build_family(coeffs, pp)
            assert len(fam.layers) == (n + 1 if coeffs == (1, 1, 1) else 1)
            for s, pairs in fam.layers.items():
                assert abs(layer_sum(s, 0, 0, 1, coeffs, pp) - len(pairs)) < 1e-9
            # both read family_plan's layers, so they refuse the same s (Case I: s >= 1)
            for s in (-1, len(fam.layers)):
                with pytest.raises(ValueError, match="no layer"):
                    family_amplitude(s, 1, 2, 3, coeffs, pp)
                with pytest.raises(ValueError, match="no layer"):
                    layer_sum(s, 1, 2, 3, coeffs, pp)
    pp = PrimePowerModulus(3, 3)
    coeffs = (1, 1, 1)
    # unit (k1, k2): layers with ord_p(f') <= n-2 vanish (critical points
    # would need t = 0 mod p); deeper layers need not vanish.
    rng = random.Random(5)
    checked = 0
    for _ in range(80):
        k1, k2 = rng.randrange(1, 27), rng.randrange(1, 27)
        if k1 % 3 == 0 or k2 % 3 == 0:
            continue
        for s in (1, 2):
            f = family_amplitude(s, k1, k2, 1, coeffs, pp)
            if f.derivative().stripped(3)[1] <= pp.n - 2:
                assert abs(layer_sum(s, k1, k2, 1, coeffs, pp)) < 1e-6
                checked += 1
    assert checked >= 10


def test_family_case2_s0_discriminant_obstruction():
    # one-sided extra powers of p kill the full t-sum: the critical
    # congruence's discriminant is -4*a2*a3 (or -4*a1*a3), a non-residue
    pp = PrimePowerModulus(3, 3)
    coeffs = (1, 1, 1)
    rng = random.Random(6)
    for _ in range(10):
        l1, l2 = rng.randrange(1, 27), rng.randrange(1, 27)
        if l1 % 3 == 0 or l2 % 3 == 0:
            continue
        assert abs(layer_sum(0, 3 * l1, l2, 1, coeffs, pp)) < 1e-9
        assert abs(layer_sum(0, l1, 3 * l2, 1, coeffs, pp)) < 1e-9


def test_families_are_the_conic_maps():
    # family_amplitude at x3 = 1 through family_plan's base point, with
    # (k1, k2) a unit vector, gives the coordinates y1, y2 of conic's pairs
    rng = random.Random(8)
    for p, n in [(3, 2), (5, 2), (7, 1), (7, 2), (11, 1), (13, 2)]:
        pp = PrimePowerModulus(p, n)
        q = pp.q
        coeffs = _sample_case_coeffs(rng, p, CASE_I)
        coeffs = (coeffs[0] - 2 * q, coeffs[1] + q, coeffs[2] + 3 * q)
        f1 = family_amplitude(0, 1, 0, 1, coeffs, pp)
        f2 = family_amplitude(0, 0, 1, 1, coeffs, pp)
        [(_, alphas, _)] = family_plan(coeffs, pp)[1]  # Case I's one layer, on the admissible classes
        ts = [t for alpha in alphas for t in range(alpha, q, p)]
        pairs = {(f1.eval_mod(t, q), f2.eval_mod(t, q)) for t in ts}
        assert pairs == set(map(tuple, build_family(coeffs, pp).layers[0].tolist()))
        if p % 4 == 1:
            continue  # no Case II triple: -1 is a square, so one -ai*aj is too
        coeffs = _sample_case_coeffs(rng, p, CASE_II)
        coeffs = (coeffs[0] + q, coeffs[1] - q, coeffs[2])
        fam = build_family(coeffs, pp)
        for s in range(n + 1):
            # layer 0 runs over t = 1..q, layer s >= 1 over the units in 1..p^(n-s),
            # which is t = 1 alone at s = n
            ts = range(1, q + 1) if s == 0 else [t for t in range(1, p ** (n - s) + 1) if t % p]
            f1 = family_amplitude(s, 1, 0, 1, coeffs, pp)
            f2 = family_amplitude(s, 0, 1, 1, coeffs, pp)
            pairs = {(f1.eval_mod(t, q), f2.eval_mod(t, q)) for t in ts}
            assert pairs == set(map(tuple, fam.layers[s].tolist()))
        assert len(fam.layers[n]) == 1


def _sample_case_coeffs(rng, p, tag):
    while True:
        coeffs = tuple(rng.randrange(1, p) for _ in range(3))
        if case_tag(coeffs, p) == tag:
            return coeffs


def test_closed_form_E_matches_direct_case1():
    rng = random.Random(7)
    pp = PrimePowerModulus(7, 3)
    checked = 0
    while checked < 25:
        coeffs = _sample_case_coeffs(rng, 7, CASE_I)
        r = rng.choice([0, 1])
        k1, k2 = 7**r * rng.randrange(1, 7), 7**r * rng.randrange(1, 7)
        x3 = rng.randrange(1, 7)
        try:
            got = closed_form_E(k1, k2, x3, coeffs, pp)
        except UnsupportedCaseError:
            continue
        want = direct_E(k1, k2, x3, coeffs, pp)
        assert abs(got - want) / max(1.0, abs(want)) < 1e-6
        # triangle-inequality magnitude bound from the two-term form
        assert abs(got) <= 2 * 7 ** ((3 + r) / 2) + 1e-6
        checked += 1


def test_closed_form_E_matches_direct_case2():
    rng = random.Random(8)
    pp = PrimePowerModulus(3, 4)
    checked = 0
    while checked < 25:
        coeffs = _sample_case_coeffs(rng, 3, CASE_II)
        k1, k2 = rng.randrange(1, 81), rng.randrange(1, 81)
        if k1 % 3 == 0 or k2 % 3 == 0:
            continue
        x3 = rng.randrange(1, 3)
        try:
            got = closed_form_E(k1, k2, x3, coeffs, pp)
        except UnsupportedCaseError:
            continue
        want = direct_E(k1, k2, x3, coeffs, pp)
        assert abs(got - want) / max(1.0, abs(want)) < 1e-6
        checked += 1


def test_direct_E_matches_brute_force_case1():
    # the Case I family sum runs once over every unit solution (y1, y2)
    rng = random.Random(9)
    for p, n in ((3, 2), (3, 5), (5, 3), (7, 2), (7, 3), (11, 2)):
        pp = PrimePowerModulus(p, n)
        q = pp.q
        coeffs = _sample_case_coeffs(rng, p, CASE_I)
        sols = oracles.brute_pair_solutions(coeffs, p, q, units_only=True)
        for _ in range(6):
            # valuations 0..n each, so k = 0 mod q occurs
            k1, k2 = (p ** rng.randint(0, n) * rng.randrange(1, q) % q for _ in range(2))
            x3 = rng.choice([x for x in range(1, q) if x % p])
            phases = [2 * math.pi * (x3 * (k1 * y1 + k2 * y2) % q) / q for y1, y2 in sols]
            want = complex(math.fsum(map(math.cos, phases)), math.fsum(map(math.sin, phases)))
            assert abs(direct_E(k1, k2, x3, coeffs, pp) - want) < 1e-9, (p, n, coeffs, k1, k2, x3)


def test_closed_form_E_nonresidue_D_is_zero():
    pp = PrimePowerModulus(7, 3)
    coeffs = (1, 1, -1)
    found = 0
    for l1 in range(1, 7):
        for l2 in range(1, 7):
            D = l1 * l1 + l2 * l2  # a1 = a2 = 1
            if D % 7 == 0 or jacobi(D, 7) == 1:
                continue
            got = closed_form_E(l1, l2, 1, coeffs, pp)
            assert got == 0
            assert abs(direct_E(l1, l2, 1, coeffs, pp)) < 1e-9
            found += 1
    assert found > 0


def test_closed_form_E_degenerate_cases_raise():
    pp = PrimePowerModulus(7, 3)
    with pytest.raises(ValueError):
        closed_form_E(7, 1, 1, (1, 1, -1), pp)  # mismatched gcd powers
    with pytest.raises(UnsupportedCaseError):
        closed_form_E(49, 49, 1, (1, 1, -1), pp)  # r > n-2
    # D = 0 mod p: l2^2 = -a1/a2 * l1^2; at (1,1,-1) mod 7 take l2 s.t.
    # l2^2 = -l1^2: -1 is a non-residue mod 7, so force it via coefficients
    pp3 = PrimePowerModulus(3, 4)
    with pytest.raises(UnsupportedCaseError):
        # (1,2,1) is Case I mod 3 and D = 2 l1^2 + l2^2 = 0 mod 3 at l1 = l2 = 1
        closed_form_E(1, 1, 1, (1, 2, 1), pp3)
    # Case II degenerate critical quadratic: l2*a1*a = l1*a2*b mod p at family_plan's point (a, b)
    pp33 = PrimePowerModulus(3, 3)
    a, b = family_plan((1, 1, 1), pp33)[0]
    assert a % 3 == b % 3 == 1
    with pytest.raises(UnsupportedCaseError, match="degenerates"):
        closed_form_E(1, 1, 1, (1, 1, 1), pp33)
    # a mixed residue pattern has no family sum until it is permuted into Case I;
    # the twins refuse it in the same words
    assert case_tag((-1, 1, 1), 7) == "mixed"
    mixed = "a mixed residue pattern has no family sum"
    with pytest.raises(ValueError, match=mixed):
        closed_form_E(1, 1, 1, (-1, 1, 1), pp)
    with pytest.raises(ValueError, match=mixed):
        direct_E(1, 1, 1, (-1, 1, 1), pp)


def test_closed_form_E_common_power_refusals():
    # (k1, k2) = p^r (l1, l2) with r capped at n: k = 0, unequal powers, and a common power past n
    # with unequal powers below it refuse as plain ValueErrors; equal powers at r = n reach r > n-2
    pp = PrimePowerModulus(7, 4)
    q = pp.q
    for k in [(0, 0), (0, 21), (7 * q, 14 * q)]:
        with pytest.raises(ValueError) as exc:
            closed_form_E(*k, 1, (1, 1, -1), pp)
        assert type(exc.value) is ValueError and str(exc.value) == \
            "k1 and k2 must share the same exact power of p", k
    with pytest.raises(UnsupportedCaseError) as exc:
        closed_form_E(q, 2 * q, 1, (1, 1, -1), pp)
    assert str(exc.value) == "r = 4 > n-2 = 2"


@st.composite
def closed_form_instances(draw):
    """(p, n, coeffs, r, l1, l2, x3): a Case I triple, or Case II where p = 3 mod 4."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    n = draw(st.sampled_from([2, 3, 4]))
    tag = draw(st.sampled_from([CASE_I, CASE_II] if p % 4 == 3 else [CASE_I]))
    coeffs = tuple(draw(st.integers(1, p - 1)) for _ in range(3))
    assume(case_tag(coeffs, p) == tag)
    r = draw(st.integers(0, n - 2))

    def unit(bound):
        return draw(st.integers(1, bound - 1).filter(lambda u: u % p))

    return p, n, coeffs, r, unit(p ** (n - r)), unit(p ** (n - r)), unit(p)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(closed_form_instances())
def test_closed_form_E_matches_direct_sums(instance):
    # one sqrt(D) expression serves both cases; every parity of n - r occurs
    p, n, coeffs, r, l1, l2, x3 = instance
    pp = PrimePowerModulus(p, n)
    k1, k2 = p**r * l1, p**r * l2
    want = direct_E(k1, k2, x3, coeffs, pp)
    try:
        got = closed_form_E(k1, k2, x3, coeffs, pp)
    except UnsupportedCaseError:
        return
    assert abs(got - want) / max(1.0, abs(want)) < 1e-6, (got, want)


# (coeffs, p, n, support k): Case I first, then Case II; C(k;q) != 0 at each support k, and at
# (7, 14, 0) and (0, 0, 27) only Case II's layers s >= 1 carry it, as p divides k1 and k2
DUAL_ROUTE_CASES = [
    ((1, 1, -1), 7, 3, [(1, 1, 10)]),
    ((2, 3, -5), 7, 2, [(1, 2, 1)]),
    ((1, 2, 3), 11, 2, [(1, 1, 1)]),
    ((1, 1, 1), 7, 2, [(1, 2, 3), (7, 14, 0)]),
    ((1, 1, 1), 3, 4, [(1, 1, 5), (0, 0, 27)]),
]


def _unit_x3_sum(k3, pp, family_sum):
    """sum over the units x3 mod q of e(k3 x3 / q) * family_sum(x3)."""
    q = pp.q
    return sum(cmath.exp(2j * math.pi * (k3 * x3 % q) / q) * family_sum(x3) for x3 in range(1, q) if x3 % pp.p)


def _dual_by_layers(coeffs, k, pp):
    """The x3-sum of sum_s layer_sum(s, k1, k2, x3): every layer's requests in one direct_sums call."""
    k1, k2, k3 = k
    batch, parts = [], {}
    for x3 in (x for x in range(1, pp.q) if x % pp.p):
        for s in range(len(family_plan(coeffs, pp)[1])):
            requests, weight = layer_requests(s, k1, k2, x3, coeffs, pp)
            parts.setdefault(x3, []).append((len(batch), len(requests), weight))
            batch += requests
    sums = direct_sums(batch, pp)
    return _unit_x3_sum(k3, pp, lambda x3: sum(sum(sums[i : i + m]) / w for i, m, w in parts[x3]))


def test_family_sums_give_the_dual_coefficient():
    # the paper's route: a unit solution with y3 = x3 is x3 (z1, z2, 1), z on the conic that
    # family_plan's layers cover, so C(k;q) is the x3-sum of the layer sums; closed_form_E is
    # layer 0 alone, all of C in Case I, and in Case II whenever p does not divide both k1, k2
    rng = random.Random(37)
    for coeffs, p, n, support in DUAL_ROUTE_CASES:
        pp = PrimePowerModulus(p, n)
        q = pp.q
        case = case_tag(coeffs, p)
        ks = [(0, 0, 0), (p * rng.randrange(q), p * rng.randrange(q), rng.randrange(q))]
        ks += [tuple(rng.randrange(q) for _ in range(3)) for _ in range(2)]
        for k in ks + support:
            want = oracles.brute_dual_coefficient(coeffs, k, p, q)
            assert k not in support or abs(want) > 1, (coeffs, q, k)
            assert abs(_dual_by_layers(coeffs, k, pp) - want) < 1e-9, (coeffs, q, k)
            if case == CASE_II and k[0] % p == 0 and k[1] % p == 0:
                continue
            try:
                got = _unit_x3_sum(k[2], pp, lambda x3: closed_form_E(k[0], k[1], x3, coeffs, pp))
            except ValueError:  # a refused k: unequal powers of p in k1, k2, or UnsupportedCaseError
                continue
            assert abs(got - want) < 1e-9, (coeffs, q, k)
