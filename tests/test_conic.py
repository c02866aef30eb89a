import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conic_lab.modcore import PrimePowerModulus, jacobi, poly_eval_mod, residue_pattern, s_p
from conic_lab import conic
from conic_lab.conic import (
    CASE_I,
    CASE_II,
    BasePoint,
    build_family,
    case_tag,
    count_unit_circle,
    enumerate_pair_solutions,
    family_plan,
    lift_triple,
    normalize_to_case1,
    slope_form,
)

import oracles


def test_case_classification():
    assert case_tag((1, 1, -1), 7) == CASE_I
    assert case_tag((1, 1, 1), 7) == CASE_II
    assert case_tag((1, 1, 1), 3) == CASE_II
    # p = 1 mod 4 has no Case II: the three symbols multiply to (-1/p) = 1
    rng = random.Random(0)
    for _ in range(200):
        p = rng.choice([5, 13, 17])
        coeffs = tuple(rng.randrange(1, p) for _ in range(3))
        assert case_tag(coeffs, p) != CASE_II


def test_normalize_to_case1():
    rng = random.Random(1)
    done = 0
    while done < 50:
        p = rng.choice([3, 7, 11, 13])
        coeffs = tuple(rng.randrange(1, p) for _ in range(3))
        tag = case_tag(coeffs, p)
        if tag == CASE_II:
            with pytest.raises(ValueError):
                normalize_to_case1(coeffs, p)
            continue
        fixed = normalize_to_case1(coeffs, p)
        assert case_tag(fixed, p) == CASE_I
        # the first residue among -a2*a3, -a1*a3, -a1*a2 picks the order
        a1, a2, a3 = coeffs
        s12, s13, s23 = residue_pattern(coeffs, p)
        want = (a1, a2, a3) if s23 == 1 else (a2, a1, a3) if s13 == 1 else (a3, a1, a2)
        assert fixed == want
        done += 1


def _case2_triples(p):
    return [c for c in itertools.product(range(1, p), repeat=3) if case_tag(c, p) == CASE_II]


def test_family_plan_case2_base_point_contract():
    # family_plan's Case II point solves the congruence mod q, and both coordinates are units
    rng = random.Random(2)
    for _ in range(80):
        p = rng.choice([3, 7, 11])
        n = rng.randint(1, 4)
        pp = PrimePowerModulus(p, n)
        coeffs = rng.choice(_case2_triples(p))
        bp = family_plan(coeffs, pp)[0]
        a1, a2, a3 = coeffs
        assert (a1 * bp.a**2 + a2 * bp.b**2 + a3) % pp.q == 0
        assert bp == family_plan(coeffs, pp)[0]  # deterministic
        assert bp.a % p and bp.b % p


def test_family_plan_case2_base_point_matches_brute_force():
    for p in (3, 7, 11, 19):
        pp = PrimePowerModulus(p, 3)
        for coeffs in _case2_triples(p):
            bp = family_plan(coeffs, pp)[0]
            a1, a2, a3 = coeffs
            assert (a1 * bp.a**2 + a2 * bp.b**2 + a3) % pp.q == 0
            assert (bp.a % p, bp.b % p) == oracles.brute_base_point(coeffs, p), (coeffs, p)
    # one square root per trial a, not a scan of all pairs mod p
    pp = PrimePowerModulus(1_000_003, 2)
    bp = family_plan((1, 1, 1), pp)[0]
    assert (bp.a**2 + bp.b**2 + 1) % pp.q == 0


def test_family_plan_examples():
    # Case I: (0, b) with b the smaller root of b^2 = -a3/a2, layer 0 on the admissible classes
    assert family_plan((1, 1, -1), PrimePowerModulus(7, 1)) == (BasePoint(0, 1), [(0, [2, 3, 4, 5], 0)])
    pp = PrimePowerModulus(7, 3)
    (a, b), _ = family_plan((3, 2, -1), pp)
    assert a == 0 and (2 * b * b - 1) % pp.q == 0 and b < pp.q - b
    # Case II: a = 1 is the first unit with (-1 - 1)/1 a residue mod 3, b = 1, and 1 lifts to 4 mod 9
    pp = PrimePowerModulus(3, 2)
    base, layers = family_plan((1, 1, 1), pp)
    assert base == BasePoint(4, 1)
    assert [(s, list(alphas), e) for s, alphas, e in layers] == [(0, [0, 1, 2], 1), (1, [1, 2], 0), (2, [1], 0)]
    with pytest.raises(ValueError, match="mixed residue pattern"):
        family_plan((-1, 1, 1), PrimePowerModulus(7, 1))


def test_case1_family_size_injectivity_and_coverage():
    rng = random.Random(4)
    done = 0
    while done < 40:
        p = rng.choice([3, 7, 11])
        n = rng.randint(1, 3)
        pp = PrimePowerModulus(p, n)
        coeffs = tuple(rng.randrange(1, p) for _ in range(3))
        if case_tag(coeffs, p) != CASE_I:
            continue
        fam = build_family(coeffs, pp)
        expected = p ** (n - 1) * (p - s_p(coeffs, p))
        assert len(fam.pairs) == expected
        assert len(fam.layers[0]) == expected  # the admissible classes' image
        assert np.array_equal(fam.pairs, enumerate_pair_solutions(coeffs, pp))
        done += 1


def test_case2_family_layers_and_equality():
    pp32 = PrimePowerModulus(3, 2)
    fam = build_family((1, 1, 1), pp32)
    assert len(fam.pairs) == 12
    assert {s: len(v) for s, v in fam.layers.items()} == {0: 9, 1: 2, 2: 1}
    fam31 = build_family((1, 1, 1), PrimePowerModulus(3, 1))
    assert len(fam31.pairs) == 4
    with pytest.raises(ValueError, match="mixed residue pattern"):
        build_family((-1, 1, 1), PrimePowerModulus(7, 1))


def test_case2_family_matches_enumeration_sweep():
    rng = random.Random(5)
    done = 0
    while done < 30:
        p = rng.choice([3, 7, 11])
        n = rng.randint(1, 3)
        pp = PrimePowerModulus(p, n)
        coeffs = tuple(rng.randrange(1, p) for _ in range(3))
        if case_tag(coeffs, p) != CASE_II:
            continue
        fam = build_family(coeffs, pp)
        assert len(fam.pairs) == pp.q + pp.q // p
        units = enumerate_pair_solutions(coeffs, pp)
        assert np.array_equal(units, fam.pairs)
        if pp.q <= 7**3:  # in Case II all solutions have unit coordinates automatically
            every = oracles.brute_pair_solutions(coeffs, p, pp.q, units_only=False)
            assert set(map(tuple, units.tolist())) == every
        done += 1


def _pair_array(a):
    # the pair-set format: a read-only int64 (k, 2) array, rows strictly increasing
    first, second = a[:-1], a[1:]
    rising = (second[:, 0] > first[:, 0]) | ((second[:, 0] == first[:, 0]) & (second[:, 1] > first[:, 1]))
    return a.dtype == np.int64 and a.ndim == 2 and a.shape[1] == 2 and not a.flags.writeable and rising.all()


@st.composite
def case1_instances(draw):
    """(coeffs, pp): a Case I unit triple mod p^n, q <= 7^4."""
    p, n_max = draw(st.sampled_from([(3, 7), (5, 4), (7, 4), (11, 3), (13, 3), (41, 2)]))
    pp = PrimePowerModulus(p, draw(st.integers(1, n_max)))
    unit = st.integers(1, pp.q - 1).filter(lambda a: a % p)
    a1, a2 = draw(unit), draw(unit)
    a3 = draw(unit.filter(lambda a: jacobi(-a2 * a, p) == 1))
    return (a1, a2, a3), pp


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case1_instances())
def test_case1_family_property(instance):
    coeffs, pp = instance
    p = pp.p
    assert case_tag(coeffs, p) == CASE_I
    fam = build_family(coeffs, pp)
    units = enumerate_pair_solutions(coeffs, pp)
    assert np.array_equal(fam.pairs, units)
    assert len(fam.pairs) == p ** (pp.n - 1) * (p - s_p(coeffs, p))
    assert _pair_array(fam.pairs) and _pair_array(units) and _pair_array(fam.layers[0])


@st.composite
def case2_instances(draw):
    """(coeffs, pp): a Case II unit triple mod p^n, q <= 7^4.

    p = 3 mod 4 makes -1 a non-residue, so every -ai*aj is one exactly when
    the three ai share a Legendre symbol.
    """
    p, n_max = draw(st.sampled_from([(3, 7), (7, 4), (11, 3), (19, 2), (23, 2), (43, 2)]))
    pp = PrimePowerModulus(p, draw(st.integers(1, n_max)))
    a1 = draw(st.integers(1, pp.q - 1).filter(lambda a: a % p))
    same = st.integers(1, pp.q - 1).filter(lambda a: a % p and jacobi(a, p) == jacobi(a1, p))
    return (a1, draw(same), draw(same)), pp


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case2_instances())
def test_case2_family_size_property(instance):
    coeffs, pp = instance
    assert case_tag(coeffs, pp.p) == CASE_II
    fam = build_family(coeffs, pp)
    assert len(fam.pairs) == pp.q + pp.q // pp.p
    assert np.array_equal(fam.pairs, enumerate_pair_solutions(coeffs, pp))
    assert _pair_array(fam.pairs) and all(map(_pair_array, fam.layers.values()))


def test_build_family_refuses_a_non_injective_layer(monkeypatch):
    real = conic.ratio_mod_class

    def repeat_a_pair(*args):
        y1, y2 = (y.copy() for y in real(*args))
        y1[1], y2[1] = y1[0], y2[0]
        return y1, y2

    monkeypatch.setattr(conic, "ratio_mod_class", repeat_a_pair)
    with pytest.raises(AssertionError, match=r"^layer 0 has 27 pairs, expected 28$"):
        build_family((1, 1, -1), PrimePowerModulus(7, 2))


def test_build_family_refuses_overlapping_layers(monkeypatch):
    real, layer0 = conic.ratio_mod_class, []

    def reuse_a_layer0_pair(*args):
        y1, y2 = (y.copy() for y in real(*args))
        if not layer0:
            layer0.append((y1[0], y2[0]))
        else:  # layers s >= 1 at u = p j: entry 1 is u = p, layer 1, whose size stays full
            y1[1], y2[1] = layer0[0]
        return y1, y2

    monkeypatch.setattr(conic, "ratio_mod_class", reuse_a_layer0_pair)
    with pytest.raises(AssertionError, match=r"^layer 1 overlaps an earlier layer$"):
        build_family((1, 1, 1), PrimePowerModulus(3, 2))


def test_case2_layers_are_the_plan_layers():
    # each layer against its own classes t of family_plan, in Python ints: apart from
    # ratio_mod_class and the valuation split, which size and union checks would not catch
    rng = random.Random(36)
    for p, n_max in ((3, 5), (7, 3), (11, 2)):  # q <= 7^3
        for n in range(1, n_max + 1):
            pp, q, done = PrimePowerModulus(p, n), p**n, 0
            while done < 3:
                coeffs = tuple(rng.randrange(1, q) for _ in range(3))
                if any(a % p == 0 for a in coeffs) or case_tag(coeffs, p) != CASE_II:
                    continue
                fam = build_family(coeffs, pp)
                base, plan = family_plan(coeffs, pp)
                assert sorted(fam.layers) == [s for s, _, _ in plan]
                for s, alphas, e in plan:
                    (num1, den), (num2, _) = (slope_form(k1, k2, s, base, coeffs, p) for k1, k2 in ((1, 0), (0, 1)))
                    want = set()
                    for t in (alpha + p * j for alpha in alphas for j in range(p**e)):
                        inv = pow(poly_eval_mod(den, t, q), -1, q)
                        want.add((poly_eval_mod(num1, t, q) * inv % q, poly_eval_mod(num2, t, q) * inv % q))
                    assert set(map(tuple, fam.layers[s].tolist())) == want, (coeffs, p, n, s)
                done += 1


def test_build_family_makes_one_class_call_per_chart(monkeypatch):
    # Case I is one ratio_mod_class call; Case II is layer 0 and one call for layers 1..n
    calls, real = [], conic.ratio_mod_class

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(conic, "ratio_mod_class", counted)
    for n in range(1, 9):
        for coeffs, want in (((1, 1, -1), 1), ((1, 1, 1), 2)):
            calls.clear()
            build_family(coeffs, PrimePowerModulus(3, n))
            assert len(calls) == want, (coeffs, n)


def test_enumerate_examples():
    pp = PrimePowerModulus(7, 1)
    assert {tuple(s) for s in enumerate_pair_solutions((1, 1, -1), pp)} == {
        (2, 2), (2, 5), (5, 2), (5, 5),
    }
    assert len(enumerate_pair_solutions((1, 1, 1), PrimePowerModulus(3, 1))) == 4


def test_enumerate_vs_brute():
    rng = random.Random(6)
    moduli = [(rng.choice([3, 5, 7]), rng.randint(1, 3)) for _ in range(30)]
    moduli += [(p, n) for p in (11, 13) for n in (1, 2) for _ in range(2)]
    for p, n in moduli:
        pp = PrimePowerModulus(p, n)
        coeffs = tuple(rng.randrange(1, p) for _ in range(3))
        sols = enumerate_pair_solutions(coeffs, pp)
        assert _pair_array(sols)
        assert {tuple(s) for s in sols.tolist()} == oracles.brute_pair_solutions(coeffs, p, pp.q)


def _sign_panels():
    """(p, (a1/p, a2/p, a3/p)) for p <= 13, by the residue pattern they give.

    The symbol of -ai*aj is (-1/p)(ai/p)(aj/p). 'p = s_p' (2 plus the three symbols is p)
    has no unit solution; it is Case I or mixed at p = 3 and every -ai*aj a residue at p = 5.
    """
    panels = {}
    for p in (3, 5, 7, 11, 13):
        minus_one = 1 if p % 4 == 1 else -1
        for e in itertools.product((1, -1), repeat=3):
            s12, s13, s23 = (minus_one * e[i] * e[j] for i, j in ((0, 1), (0, 2), (1, 2)))
            if 2 + s12 + s13 + s23 == p:
                pattern = "p = s_p"
            else:
                pattern = CASE_I if s23 == 1 else CASE_II if s12 == s13 == -1 else "mixed"
            panels.setdefault(pattern, []).append((p, e))
    return panels


SIGN_PANELS = _sign_panels()


@pytest.mark.parametrize("pattern", [CASE_I, "mixed", CASE_II, "p = s_p"])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_enumerate_is_the_brute_unit_solutions(pattern, data):
    # the half-range join against the O(q^2) oracle, q <= 7^3, n = 1 included
    p, signs = data.draw(st.sampled_from(SIGN_PANELS[pattern]))
    pp = PrimePowerModulus(p, data.draw(st.integers(1, 3 if p <= 7 else 2)))
    coeffs = tuple(data.draw(st.integers(1, pp.q - 1).filter(lambda a: jacobi(a, p) == e)) for e in signs)
    if pattern == "p = s_p":
        assert s_p(coeffs, p) == p
    else:
        assert case_tag(coeffs, p) == pattern
    sols = enumerate_pair_solutions(coeffs, pp)
    assert _pair_array(sols) and len(sols) == pp.q // p * (p - s_p(coeffs, p))
    assert {tuple(s) for s in sols.tolist()} == oracles.brute_pair_solutions(coeffs, p, pp.q)


def test_lift_triple_examples():
    pp = PrimePowerModulus(7, 1)
    lifts = lift_triple((3, 4, 5), (1, 1, -1), pp)
    assert len(lifts) == 49
    assert len(set(lifts)) == 49
    for x1, x2, x3 in lifts:
        assert (x1 * x1 + x2 * x2 - x3 * x3) % 49 == 0
    with pytest.raises(ValueError):
        lift_triple((1, 1, 1), (1, 1, -1), pp)
    with pytest.raises(ValueError):
        lift_triple((7, 4, 5), (1, 1, -1), pp)


def test_lift_triple_random():
    rng = random.Random(7)
    done = 0
    while done < 40:
        p = rng.choice([5, 7, 11])
        n = rng.randint(1, 3)
        pp = PrimePowerModulus(p, n)
        coeffs = tuple(rng.randrange(1, p) for _ in range(3))
        sols = enumerate_pair_solutions(coeffs, pp)
        if len(sols) == 0:
            continue
        y1, y2 = rng.choice(sols.tolist())  # rows are sorted
        x3 = rng.randrange(1, pp.q)
        if x3 % p == 0:
            continue
        x = (y1 * x3 % pp.q, y2 * x3 % pp.q, x3)
        lifts = lift_triple(x, coeffs, pp)
        up = pp.q * p
        a1, a2, a3 = coeffs
        assert len(set(lifts)) == p * p
        for t in lifts:
            assert (a1 * t[0] ** 2 + a2 * t[1] ** 2 + a3 * t[2] ** 2) % up == 0
            assert all(v % p for v in t)
        done += 1


@st.composite
def unit_solutions(draw):
    """(x, coeffs, pp): a unit solution x in [1, q)^3 of a1 x1^2 + a2 x2^2 + a3 x3^2 = 0 mod q <= 7^3."""
    p, n_max = draw(st.sampled_from([(3, 5), (5, 3), (7, 3)]))
    pp = PrimePowerModulus(p, draw(st.integers(1, n_max)))
    q = pp.q
    unit = st.integers(1, q - 1).filter(lambda a: a % p)
    a1, a2, a3 = coeffs = (draw(unit), draw(unit), draw(unit))
    x2, x3 = draw(unit), draw(unit)
    x1s = [x1 for x1 in range(1, q) if x1 % p and (a1 * x1 * x1 + a2 * x2 * x2 + a3 * x3 * x3) % q == 0]
    assume(x1s)
    return (draw(st.sampled_from(x1s)), x2, x3), coeffs, pp


@settings(max_examples=100, derandomize=True, deadline=None)
@given(unit_solutions())
def test_lift_triple_property(instance):
    # the p^2 lifts are exactly the solutions mod p^(n+1) that are = x mod p^n
    x, (a1, a2, a3), pp = instance
    p, q = pp.p, pp.q
    up = p * q
    lifts = lift_triple(x, (a1, a2, a3), pp)
    brute = set()
    for k in itertools.product(range(p), repeat=3):
        y1, y2, y3 = (xi + ki * q for xi, ki in zip(x, k))
        if (a1 * y1 * y1 + a2 * y2 * y2 + a3 * y3 * y3) % up == 0:
            brute.add((y1, y2, y3))
    assert len(lifts) == p * p
    assert set(lifts) == brute


def test_count_unit_circle():
    assert count_unit_circle(1, 1, PrimePowerModulus(3, 1)) == 4
    assert count_unit_circle(1, 1, PrimePowerModulus(3, 2)) == 12
    # every unit pair, both classes of -g1*g2; in the residue case the
    # proposition is silent and the oracle decides
    for (p, n) in [(5, 1), (7, 1), (3, 2), (11, 1), (5, 2), (3, 3)]:
        pp = PrimePowerModulus(p, n)
        units = [g for g in range(1, pp.q) if g % p]
        classes = set()
        for g1 in units:
            for g2 in units:
                classes.add(jacobi(-g1 * g2, p))
                want = oracles.brute_unit_circle(g1, g2, pp.q)
                assert count_unit_circle(g1, g2, pp) == want, (pp.q, g1, g2)
        assert classes == {1, -1}, pp.q
    pp71 = PrimePowerModulus(7, 1)
    with pytest.raises(ValueError):
        count_unit_circle(7, 1, pp71)


def test_count_unit_circle_proposition_sweep():
    rng = random.Random(13)
    done = 0
    while done < 40:
        p = rng.choice([3, 7, 11])
        n = rng.randint(1, 4)
        pp = PrimePowerModulus(p, n)
        g1, g2 = rng.randrange(1, pp.q), rng.randrange(1, pp.q)
        if g1 % p == 0 or g2 % p == 0 or jacobi(-g1 * g2, p) != -1:
            continue
        assert count_unit_circle(g1, g2, pp) == pp.q + pp.q // p
        done += 1


def test_count_unit_circle_peak_memory():
    # the half-range join's arrays, and no q-entry table of square-root counts beside them
    pp = PrimePowerModulus(101, 3)
    tracemalloc.start()
    try:
        count_unit_circle(1, 1, pp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * pp.q, peak / pp.q
