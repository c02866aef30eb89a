import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conic_lab.dioph import (
    choose_parameters,
    convergents,
    count_F,
    count_equation_solutions,
    dirichlet_approx,
    integer_nth_root,
    reduce_coefficients,
)

import oracles


def test_equation_examples():
    assert count_equation_solutions(1, 1, 25, 5) == 12
    assert count_equation_solutions(1, -2, 1, 10) == 6
    assert count_equation_solutions(1, 1, -1, 5) == 0
    with pytest.raises(ValueError):
        count_equation_solutions(0, 1, 1, 5)
    with pytest.raises(ValueError):
        count_equation_solutions(1, 1, 1, 0)


def test_equation_vs_brute_sweep():
    rng = random.Random(0)
    for _ in range(120):
        A = rng.choice([v for v in range(-20, 21) if v])
        B = rng.choice([v for v in range(-20, 21) if v])
        C = rng.choice([v for v in range(-20, 21) if v])
        x = rng.randint(1, 50)
        got = count_equation_solutions(A, B, C, x)
        assert got == oracles.brute_equation_count(A, B, C, x)


def test_convergents_last_is_exact():
    rng = random.Random(1)
    for _ in range(100):
        den = rng.randint(1, 10**6)
        num = rng.randrange(den)
        cs = convergents(num, den)
        a, r = cs[-1]
        assert Fraction(a, r) == Fraction(num, den)


def test_dirichlet_examples():
    assert (dirichlet_approx(7, 10, 3).a, dirichlet_approx(7, 10, 3).r) == (2, 3)
    assert (dirichlet_approx(1, 3, 10).a, dirichlet_approx(1, 3, 10).r) == (1, 3)
    assert (dirichlet_approx(22, 49, 7).a, dirichlet_approx(22, 49, 7).r) == (1, 2)
    # a = 0 is legal for tiny beta/q
    ap = dirichlet_approx(1, 10**6, 5)
    assert (ap.a, ap.r) == (0, 1)


def test_dirichlet_bound_property():
    rng = random.Random(2)
    for _ in range(3000):
        q = rng.randint(2, 10**6)
        beta = rng.randrange(q)
        Q = rng.randint(1, 10**4)
        ap = dirichlet_approx(beta, q, Q)
        assert math.gcd(ap.a, ap.r) == 1
        assert 1 <= ap.r <= Q
        assert abs(Fraction(beta % q, q) - Fraction(ap.a, ap.r)) <= Fraction(1, ap.r * Q)


def test_count_F_examples():
    assert count_F(1, 1, 3, 49) == 6
    assert count_F(1, 2, 3, 49) == 2
    for M in (2, 5, 11):
        q = 16 * M * M + 1
        assert count_F(3, 3, 2 * M * M, q) == 4 * M * M


def test_count_F_vs_brute():
    rng = random.Random(3)
    for _ in range(40):
        q = rng.randint(5, 300)
        b1 = rng.choice([v for v in range(1, q) if math.gcd(v, q) == 1])
        b2 = rng.randrange(1, q)
        X = rng.randint(1, 25)
        assert count_F(b1, b2, X, q) == oracles.brute_count_F(b1, b2, X, q)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 400), st.data())
def test_count_F_property(q, data):
    # the closed form's edge cases: q = 1, b2 = 0 or a non-unit, negative
    # b's, X <= 0 (count 0) and X >= q (A1 wraps around the modulus)
    b1 = data.draw(st.integers(-2 * q, 2 * q).filter(lambda b: math.gcd(b, q) == 1))
    b2 = data.draw(st.integers(-2 * q, 2 * q))
    X = data.draw(st.integers(-3, 40))
    assert count_F(b1, b2, X, q) == oracles.brute_count_F(b1, b2, X, q)


def test_reduce_coefficients_example():
    rc = reduce_coefficients(22, 1, 1, 49, 7)
    assert (rc.r1, rc.a1, rc.r2, rc.a2) == (2, 1, 1, 0)
    assert (rc.g1, rc.g2) == (5, -2)
    assert rc.r == 2
    # exact-fraction case: b1 = b3 gives target 1/q, approximant 0/1
    rc2 = reduce_coefficients(5, 3, 5, 49, 7)
    assert rc2.r1 == 1 and abs(rc2.g1) <= 49 * 2 // 7 + rc2.r + 1


def test_reduce_coefficients_preserves_solutions():
    rng = random.Random(4)
    p, q = 7, 49
    done = 0
    while done < 10:
        b1, b2, b3 = (rng.choice([v for v in range(1, q) if v % p]) for _ in range(3))
        rc = reduce_coefficients(b1, b2, b3, q, 7)
        orig = set()
        red = set()
        for x1 in range(q):
            if x1 % p == 0:
                continue
            for x2 in range(q):
                if x2 % p == 0:
                    continue
                for x3 in range(q):
                    if x3 % p == 0:
                        continue
                    if (b1 * x1 * x1 + b2 * x2 * x2 + b3 * x3 * x3) % q == 0:
                        orig.add((x1, x2, x3))
                    if (rc.r * x3 * x3 - rc.g1 * x1 * x1 - rc.g2 * x2 * x2) % q == 0:
                        red.add((x1, x2, x3))
        assert orig <= red
        if rc.r % p != 0:
            assert orig == red
        done += 1


def test_integer_nth_root():
    rng = random.Random(5)
    for _ in range(500):
        x = rng.randrange(10**12)
        k = rng.randint(1, 7)
        r = integer_nth_root(x, k)
        assert r**k <= x < (r + 1) ** k
    for _ in range(200):  # beyond float range, where a float first guess is far off
        x = rng.randrange(10**400)
        k = rng.randint(1, 7)
        r = integer_nth_root(x, k)
        assert r**k <= x < (r + 1) ** k
    assert integer_nth_root(10**220, 5) == 10**44


def test_choose_parameters():
    R, Q = choose_parameters(7**6, 343)
    assert R == 4  # ceil(117649^0.4 * 343^-0.6) = ceil(3.21...)
    assert (R - 1) ** 5 * 343**3 < (7**6) ** 2 <= R**5 * 343**3
    R1, Q1 = choose_parameters(100, 100)
    assert R1 == 1  # M = q minimizes R
    assert R1 >= 1 and Q1 >= 1
    rng = random.Random(6)
    for _ in range(300):
        q = rng.randint(2, 10**9)
        M = rng.randint(1, q)
        R, Q = choose_parameters(q, M)
        assert (R - 1) ** 5 * M**3 < q * q <= R**5 * M**3
        assert (Q - 1) ** 5 < q**3 * M**3 <= Q**5
