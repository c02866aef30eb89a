import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conic_lab.modcore import PrimePowerModulus, jacobi, s_p
from conic_lab.conic import (
    CASE_I,
    CASE_II,
    BasePoint,
    build_case1_family,
    build_case2_family,
    case1_slope_base,
    case_tag,
    enumerate_pair_solutions,
    find_base_point,
    lift_triple,
    normalize_to_case1,
    param_case1,
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
        fixed, perm = normalize_to_case1(coeffs, p)
        assert case_tag(fixed, p) == CASE_I
        assert sorted(perm) == [0, 1, 2]
        assert tuple(coeffs[i] for i in perm) == tuple(fixed)
        done += 1


def test_find_base_point_contract():
    rng = random.Random(2)
    for _ in range(80):
        p = rng.choice([3, 5, 7, 11])
        n = rng.randint(1, 4)
        pp = PrimePowerModulus(p, n)
        coeffs = tuple(rng.randrange(1, p) for _ in range(3))
        bp = find_base_point(coeffs, pp)
        a1, a2, a3 = coeffs
        assert (a1 * bp.a**2 + a2 * bp.b**2 + a3) % pp.q == 0
        assert bp == find_base_point(coeffs, pp)  # deterministic
        # both-unit pairs are preferred whenever one exists mod p
        both_unit = any(
            (a1 * a * a + a2 * b * b + a3) % p == 0
            for a in range(1, p)
            for b in range(1, p)
        )
        if both_unit:
            assert bp.a % p and bp.b % p


def test_find_base_point_matches_brute_force():
    fallbacks = 0
    for p in (3, 5, 7, 11, 13):
        pp = PrimePowerModulus(p, 3)
        for coeffs in itertools.product(range(1, p), repeat=3):
            bp = find_base_point(coeffs, pp)
            a1, a2, a3 = coeffs
            assert (a1 * bp.a**2 + a2 * bp.b**2 + a3) % pp.q == 0
            want = oracles.brute_base_point(coeffs, p)
            assert (bp.a % p, bp.b % p) == want, (coeffs, p)
            fallbacks += not (want[0] and want[1])
    assert fallbacks > 0  # the no-unit-pair branch was reached
    # one square root per trial a, not a scan of all pairs mod p
    pp = PrimePowerModulus(1_000_003, 2)
    bp = find_base_point((1, 1, 1), pp)
    assert (bp.a**2 + bp.b**2 + 1) % pp.q == 0


def test_param_case1_examples():
    pp = PrimePowerModulus(7, 1)
    assert tuple(param_case1(2, 1, (1, 1, -1), pp)) == (2, 2)
    assert tuple(param_case1(3, 1, (1, 1, -1), pp)) == (5, 5)
    with pytest.raises(ValueError):
        param_case1(0, 1, (1, 1, -1), pp)
    with pytest.raises(ValueError):
        param_case1(2, 2, (1, 1, -1), pp)  # b^2 != -a3/a2
    with pytest.raises(ValueError):
        param_case1(2, 1, (1, 1, 1), PrimePowerModulus(7, 1))  # Case II pattern


def test_param_case1_satisfies_congruence():
    rng = random.Random(3)
    done = 0
    while done < 60:
        p = rng.choice([5, 7, 11, 13])
        n = rng.randint(1, 3)
        pp = PrimePowerModulus(p, n)
        coeffs = tuple(rng.randrange(1, p) for _ in range(3))
        if case_tag(coeffs, p) != CASE_I:
            continue
        b = case1_slope_base(coeffs, pp)
        t = rng.randrange(pp.q)
        a1, a2, a3 = coeffs
        if (t * (a1 - a2 * t * t) * (a1 + a2 * t * t)) % p == 0:
            continue
        y1, y2 = param_case1(t, b, coeffs, pp)
        assert (a1 * y1 * y1 + a2 * y2 * y2 + a3) % pp.q == 0
        assert y1 % p and y2 % p
        done += 1


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
        fam = build_case1_family(coeffs, pp)
        expected = p ** (n - 1) * (p - s_p(coeffs, p))
        assert len(fam.pairs) == expected
        assert len(fam.layers[0]) == expected  # injectivity over admissible t
        assert fam.pairs == frozenset(enumerate_pair_solutions(coeffs, pp))
        done += 1


def test_case2_family_layers_and_equality():
    pp32 = PrimePowerModulus(3, 2)
    fam = build_case2_family((1, 1, 1), pp32, BasePoint(2, 2))
    assert len(fam.pairs) == 12
    assert {s: len(v) for s, v in fam.layers.items()} == {0: 9, 1: 2, 2: 1}
    fam31 = build_case2_family((1, 1, 1), PrimePowerModulus(3, 1))
    assert len(fam31.pairs) == 4
    with pytest.raises(ValueError):
        build_case2_family((1, 1, -1), PrimePowerModulus(7, 1))


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
        fam = build_case2_family(coeffs, pp)
        assert len(fam.pairs) == pp.q + pp.q // p
        units = enumerate_pair_solutions(coeffs, pp, units_only=True)
        every = enumerate_pair_solutions(coeffs, pp, units_only=False)
        # in Case II all solutions have unit coordinates automatically
        assert frozenset(units) == frozenset(every) == fam.pairs
        done += 1


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
    fam = build_case2_family(coeffs, pp)
    assert len(fam.pairs) == pp.q + pp.q // pp.p
    assert fam.pairs == frozenset(enumerate_pair_solutions(coeffs, pp, units_only=False))


def test_enumerate_examples():
    pp = PrimePowerModulus(7, 1)
    assert {tuple(s) for s in enumerate_pair_solutions((1, 1, -1), pp)} == {
        (2, 2), (2, 5), (5, 2), (5, 5),
    }
    assert len(enumerate_pair_solutions((1, 1, 1), PrimePowerModulus(3, 1), units_only=False)) == 4


def test_enumerate_vs_brute():
    rng = random.Random(6)
    moduli = [(rng.choice([3, 5, 7]), rng.randint(1, 3)) for _ in range(30)]
    moduli += [(p, n) for p in (11, 13) for n in (1, 2) for _ in range(2)]
    for p, n in moduli:
        pp = PrimePowerModulus(p, n)
        coeffs = tuple(rng.randrange(1, p) for _ in range(3))
        for flag in (True, False):
            got = {tuple(s) for s in enumerate_pair_solutions(coeffs, pp, units_only=flag)}
            assert got == oracles.brute_pair_solutions(coeffs, p, pp.q, units_only=flag)


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
        if not sols:
            continue
        y1, y2 = rng.choice(sorted(sols))
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
