import cmath
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conic_lab.modcore import TABLE_Q_MAX, PrimePowerModulus, _exact_sum, jacobi
from conic_lab.conic import (
    CASE_I,
    CASE_II,
    BasePoint,
    build_case2_family,
    case1_admissible_alphas,
    case1_slope_base,
    case_tag,
    find_base_point,
    param_case1,
)
from conic_lab.expsum import (
    IntRationalFunction,
    NonUnitDenominatorError,
    UnsupportedCaseError,
    analyze_critical_points,
    closed_form_E,
    cochrane_evaluate,
    direct_E_case1,
    direct_S_alpha,
    direct_full_sum,
    family_case1,
    family_case2,
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
        total = direct_full_sum(f, pp)
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
            assert abs(direct_full_sum(f, pp, alphas) - want) < 1e-9


def _same_float(a, b):
    return float(a).hex() == float(b).hex()


# multiples of 2^-76 in [-1, 1]: a 53-bit mantissa scaled by 2^-53 .. 2^-76
grid_floats = st.builds(
    lambda m, e: math.ldexp(m, -53 - e), st.integers(-(2**53), 2**53), st.integers(0, 23)
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(grid_floats, max_size=200))
def test_exact_sum_is_fsum_on_the_grid(xs):
    assert _same_float(_exact_sum(np.array(xs, dtype=float)), math.fsum(xs))


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
        assert _same_float(_exact_sum(np.array(xs, dtype=float)), math.fsum(xs)), xs


def test_exact_sum_int64_worst_case():
    # a class has at most q/3 terms and a Gauss sum q <= TABLE_Q_MAX terms;
    # every hi limb is near +-2^38, or every lo limb near 2^38
    for n in (3_333_333, TABLE_Q_MAX):
        for x in (1.0 - 2.0**-53, -(1.0 - 2.0**-53), -1.0):
            got = _exact_sum(np.full(n, x))
            assert _same_float(got, math.fsum(itertools.repeat(x, n))), (n, x)


def test_exact_sum_low_limbs_sum_exactly():
    # terms of size 2^-23 with the full 2^-75 grid below; in the second input all
    # 2^17 - 1 terms share one block, whose low limbs sum to an odd total past
    # 2^53 that a float64 low-limb sum cannot hold: it would lose the 2^-76
    rng = np.random.default_rng(14)
    xs = np.ldexp(rng.integers(2**52, 2**53, size=2**16).astype(np.float64), -75)
    tiny = [2.0**-76]
    for parts in ([xs, -xs, tiny], [tiny, xs[1:], -xs[1:]]):
        terms = np.concatenate(parts)
        assert math.fsum(terms.tolist()) == 2.0**-76
        assert _same_float(_exact_sum(terms), 2.0**-76)


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
                vals = _ref_values(f, pp.q, range(a, pp.q, p))
                ang = np.array(vals, dtype=np.int64) * (2.0 * np.pi / pp.q)
                want = complex(math.fsum(np.cos(ang).tolist()), math.fsum(np.sin(ang).tolist()))
                assert direct_S_alpha(f, a, pp) == want


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


def test_analyze_critical_points():
    pp = PrimePowerModulus(7, 4)
    rep = analyze_critical_points(T2, pp)
    assert rep.r == 0
    assert rep.roots == ((0, 1),)
    assert rep.lifted[0] == 0
    assert rep.second_deriv_unit[0] == 4 % 7
    assert rep.lift_modulus == 7 ** ((4 + 1) // 2)
    # every lifted root satisfies the congruence at the lift modulus
    g, r = T2.derivative().stripped(7)
    assert g.eval_mod(rep.lifted[0], rep.lift_modulus) == 0


def test_family_case1_structure():
    pp = PrimePowerModulus(7, 3)
    coeffs = (1, 1, -1)
    b = case1_slope_base(coeffs, pp)
    # k1 = k2 = 0: the zero amplitude; every class sums to p^(n-1)
    f0 = family_case1(0, 0, 1, coeffs, b, pp)
    assert f0.is_zero()
    for alpha in range(1, 7):
        assert abs(direct_S_alpha(f0, alpha, pp) - 49) < 1e-9
    # derivative of the amplitude matches the chord-slope form
    rng = random.Random(3)
    big = 2**61 - 1
    for _ in range(20):
        k1, k2, x3 = rng.randrange(1, 343), rng.randrange(1, 343), rng.randrange(1, 7)
        f = family_case1(k1, k2, x3, coeffs, b, pp)
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
    b = case1_slope_base(coeffs, pp)
    rng = random.Random(4)
    for _ in range(10):
        l1 = rng.randrange(1, 343)
        l2 = rng.randrange(1, 343)
        if l1 % 7 == 0 or l2 % 7 == 0:
            continue
        assert abs(direct_E_case1(l1, 7 * l2, rng.randrange(1, 7), coeffs, b, pp)) < 1e-9
        assert abs(direct_E_case1(7 * l1, l2, rng.randrange(1, 7), coeffs, b, pp)) < 1e-9


def test_family_case2_layer_sums():
    pp = PrimePowerModulus(3, 3)
    coeffs = (1, 1, 1)
    base = find_base_point(coeffs, pp)
    # k1 = k2 = 0 recovers the layer sizes
    assert abs(layer_sum(0, 0, 0, 1, coeffs, base, pp) - 27) < 1e-9
    assert abs(layer_sum(1, 0, 0, 1, coeffs, base, pp) - 6) < 1e-9
    assert abs(layer_sum(2, 0, 0, 1, coeffs, base, pp) - 2) < 1e-9
    # unit (k1, k2): layers with ord_p(f') <= n-2 vanish (critical points
    # would need t = 0 mod p); deeper layers need not vanish.
    rng = random.Random(5)
    checked = 0
    for _ in range(80):
        k1, k2 = rng.randrange(1, 27), rng.randrange(1, 27)
        if k1 % 3 == 0 or k2 % 3 == 0:
            continue
        for s in (1, 2):
            f = family_case2(s, k1, k2, 1, coeffs, base, pp)
            if f.derivative().stripped(3)[1] <= pp.n - 2:
                assert abs(layer_sum(s, k1, k2, 1, coeffs, base, pp)) < 1e-6
                checked += 1
    assert checked >= 10


def test_family_case2_s0_discriminant_obstruction():
    # one-sided extra powers of p kill the full t-sum: the critical
    # congruence's discriminant is -4*a2*a3 (or -4*a1*a3), a non-residue
    pp = PrimePowerModulus(3, 3)
    coeffs = (1, 1, 1)
    base = find_base_point(coeffs, pp)
    rng = random.Random(6)
    for _ in range(10):
        l1, l2 = rng.randrange(1, 27), rng.randrange(1, 27)
        if l1 % 3 == 0 or l2 % 3 == 0:
            continue
        assert abs(layer_sum(0, 3 * l1, l2, 1, coeffs, base, pp)) < 1e-9
        assert abs(layer_sum(0, l1, 3 * l2, 1, coeffs, base, pp)) < 1e-9


def test_families_are_the_conic_maps():
    # family_case1 at x3 = -1 and family_case2 at x3 = 1, with (k1, k2) a unit
    # vector, are the coordinates y1, y2 of conic's pairs
    rng = random.Random(8)
    for p, n in [(3, 2), (5, 2), (7, 1), (7, 2), (11, 1), (13, 2)]:
        pp = PrimePowerModulus(p, n)
        q = pp.q
        coeffs = _sample_case_coeffs(rng, p, CASE_I)
        coeffs = (coeffs[0] - 2 * q, coeffs[1] + q, coeffs[2] + 3 * q)
        b = case1_slope_base(coeffs, pp)
        f1 = family_case1(1, 0, -1, coeffs, b, pp)
        f2 = family_case1(0, 1, -1, coeffs, b, pp)
        for alpha in case1_admissible_alphas(coeffs, p):
            for t in range(alpha, q, p):
                assert (f1.eval_mod(t, q), f2.eval_mod(t, q)) == param_case1(t, b, coeffs, pp)
        if p % 4 == 1:
            continue  # no Case II triple: -1 is a square, so one -ai*aj is too
        coeffs = _sample_case_coeffs(rng, p, CASE_II)
        coeffs = (coeffs[0] + q, coeffs[1] - q, coeffs[2])
        base = find_base_point(coeffs, pp)
        fam = build_case2_family(coeffs, pp, base)
        for s in range(n + 1):
            # layer 0 runs over t = 1..q, layer s >= 1 over the units in 1..p^(n-s),
            # which is t = 1 alone at s = n
            ts = range(1, q + 1) if s == 0 else [t for t in range(1, p ** (n - s) + 1) if t % p]
            f1 = family_case2(s, 1, 0, 1, coeffs, base, pp)
            f2 = family_case2(s, 0, 1, 1, coeffs, base, pp)
            pairs = {(f1.eval_mod(t, q), f2.eval_mod(t, q)) for t in ts}
            assert pairs == fam.layers[s]
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
        b = case1_slope_base(coeffs, pp)
        r = rng.choice([0, 1])
        k1, k2 = 7**r * rng.randrange(1, 7), 7**r * rng.randrange(1, 7)
        x3 = rng.randrange(1, 7)
        try:
            got = closed_form_E(k1, k2, x3, coeffs, pp)
        except UnsupportedCaseError:
            continue
        want = direct_E_case1(k1, k2, x3, coeffs, b, pp)
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
        base = find_base_point(coeffs, pp)
        k1, k2 = rng.randrange(1, 81), rng.randrange(1, 81)
        if k1 % 3 == 0 or k2 % 3 == 0:
            continue
        x3 = rng.randrange(1, 3)
        try:
            got = closed_form_E(k1, k2, x3, coeffs, pp, base=base)
        except UnsupportedCaseError:
            continue
        want = layer_sum(0, k1, k2, x3, coeffs, base, pp)
        assert abs(got - want) / max(1.0, abs(want)) < 1e-6
        checked += 1


def test_closed_form_E_nonresidue_D_is_zero():
    pp = PrimePowerModulus(7, 3)
    coeffs = (1, 1, -1)
    b = case1_slope_base(coeffs, pp)
    found = 0
    for l1 in range(1, 7):
        for l2 in range(1, 7):
            D = l1 * l1 + l2 * l2  # a1 = a2 = 1
            if D % 7 == 0 or jacobi(D, 7) == 1:
                continue
            got = closed_form_E(l1, l2, 1, coeffs, pp)
            assert got == 0
            assert abs(direct_E_case1(l1, l2, 1, coeffs, b, pp)) < 1e-9
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
    # Case II degenerate critical quadratic at a chosen base point
    pp33 = PrimePowerModulus(3, 3)
    degenerate = BasePoint(1, 22)  # 1 - 22 = 0 mod 3 and on the conic
    with pytest.raises(UnsupportedCaseError):
        closed_form_E(1, 1, 1, (1, 1, 1), pp33, base=degenerate)
    # a mixed residue pattern has no closed form until it is permuted into Case I
    assert case_tag((-1, 1, 1), 7) == "mixed"
    with pytest.raises(ValueError, match="mixed"):
        closed_form_E(1, 1, 1, (-1, 1, 1), pp)


@st.composite
def closed_form_instances(draw):
    """(p, n, tag, coeffs, r, l1, l2, x3): a Case I triple, or Case II where p = 3 mod 4."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    n = draw(st.sampled_from([2, 3, 4]))
    tag = draw(st.sampled_from([CASE_I, CASE_II] if p % 4 == 3 else [CASE_I]))
    coeffs = tuple(draw(st.integers(1, p - 1)) for _ in range(3))
    assume(case_tag(coeffs, p) == tag)
    r = draw(st.integers(0, n - 2))

    def unit(bound):
        return draw(st.integers(1, bound - 1).filter(lambda u: u % p))

    return p, n, tag, coeffs, r, unit(p ** (n - r)), unit(p ** (n - r)), unit(p)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(closed_form_instances())
def test_closed_form_E_matches_direct_sums(instance):
    # one sqrt(D) expression serves both cases; every parity of n - r occurs
    p, n, tag, coeffs, r, l1, l2, x3 = instance
    pp = PrimePowerModulus(p, n)
    k1, k2 = p**r * l1, p**r * l2
    if tag == CASE_I:
        want = direct_E_case1(k1, k2, x3, coeffs, case1_slope_base(coeffs, pp), pp)
        base = None
    else:
        base = find_base_point(coeffs, pp)
        want = layer_sum(0, k1, k2, x3, coeffs, base, pp)
    try:
        got = closed_form_E(k1, k2, x3, coeffs, pp, base=base)
    except UnsupportedCaseError:
        return
    assert abs(got - want) / max(1.0, abs(want)) < 1e-6, (got, want)
