"""Diophantine toolkit: binary quadratic equation counts, Dirichlet
approximation by continued fractions, congruence-pair counts F_{b1,b2}(X, q),
and the small-coefficient reduction of a unit congruence.

Everything here is exact integer arithmetic. Each function refuses bad input
(ValueError) before any work, by a check_* function that a caller can run alone,
as the CLI does before it charges or dry-runs a request.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .modcore import mod_inverse


def check_equation(A: int, B: int, C: int, x: int) -> None:
    """Refuse what count_equation_solutions refuses: a zero coefficient or x < 1."""
    if A == 0 or B == 0 or C == 0:
        raise ValueError("A, B, C must be nonzero")
    if x < 1:
        raise ValueError("box half-width x must be >= 1")


def count_equation_solutions(A: int, B: int, C: int, x: int) -> int:
    """Exact number of integer pairs (X, Y) with |X|, |Y| <= x solving A X^2 + B Y^2 = C."""
    check_equation(A, B, C, x)
    total = 0
    for X in range(-x, x + 1):
        rem = C - A * X * X
        if rem % B != 0:
            continue
        y2 = rem // B
        if y2 < 0:
            continue
        y = math.isqrt(y2)
        if y * y != y2:
            continue
        if y == 0:
            total += 1
        elif y <= x:
            total += 2
    return total


@dataclass(frozen=True)
class Approximant:
    """dirichlet_approx's reduced fraction a/r: r <= Q and |(beta mod q)/q - a/r| <= 1/(rQ)."""

    a: int
    r: int


def convergents(num: int, den: int):
    """The continued-fraction convergents of num/den (den >= 1), in order."""
    out = []
    h0, h1 = 0, 1
    k0, k1 = 1, 0
    a, b = num, den
    while b:
        w = a // b
        a, b = b, a - w * b
        h0, h1 = h1, w * h1 + h0
        k0, k1 = k1, w * k1 + k0
        out.append((h1, k1))
    return out


def check_approx(beta: int, q: int, Q: int) -> None:
    """Refuse what dirichlet_approx refuses: q < 1 or Q < 1."""
    if q < 1 or Q < 1:
        raise ValueError("q and Q must be >= 1")


def dirichlet_approx(beta: int, q: int, Q: int) -> Approximant:
    """The best convergent a/r of beta/q with r <= Q.

    The largest admissible convergent denominator automatically satisfies
    |beta/q - a/r| <= 1/(r(Q+1)) < 1/(rQ); when beta/q itself has
    denominator <= Q the error is 0.
    """
    check_approx(beta, q, Q)
    beta %= q
    best = (0, 1)
    for a, r in convergents(beta, q):
        if r > Q:
            break
        best = (a, r)
    a, r = best
    assert abs(Fraction(beta, q) - Fraction(a, r)) <= Fraction(1, r * Q)
    return Approximant(a, r)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i<n} floor((a i + b)/m) for n >= 0, m >= 1 and any a, b, by Euclid-style
    reciprocity (Concrete Mathematics, section 3.5) in O(log m) steps."""
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        n, b = divmod(a * n + b, m)
        if n == 0:
            return total
        m, a = a, m


def check_count_F(b1: int, b2: int, X: int, q: int) -> None:
    """Refuse what count_F refuses: X over the cap, q < 1, or b1 not a unit mod q."""
    if X > 10**6:
        raise ValueError("direct pair count capped at X <= 10^6")
    if q < 1:
        raise ValueError("q must be >= 1")
    mod_inverse(b1, q)


def count_F(b1: int, b2: int, X: int, q: int) -> int:
    """F_{b1,b2}(X, q): pairs 0 < |A1|, |A2| <= X with b1 A1 = b2 A2 mod q.

    b1 must be a unit mod q. With r = b2/b1 mod q, each A2 = +-i admits
    floor((X + r i)/q) + floor((X - r i)/q) + 1 - [q | r i] values of A1, so
    for X >= 1, F = 2 (S(r) + S(-r) + X - X // (q / gcd(r, q))) with
    S(a) = sum_{i=1}^{X} floor((a i + X)/q), exact in O(log q) by floor sums.
    The X <= 10^6 cap stays because the refusal is part of the behaviour the
    lab keeps (a ValueError here, exit 2 in the CLI): lifting it would change
    which inputs are refused, not what a count costs. For b1 = b2 and
    X < q/2 the pairs are forced diagonal, A1 = A2, so F(b, b, X, q) = 2X
    (e.g. F(b, b, 2M^2, q) = 4M^2).
    """
    check_count_F(b1, b2, X, q)
    r = b2 * mod_inverse(b1, q) % q
    if X <= 0:
        return 0
    S = sum(_floor_sum(X, q, a, a + X) for a in (r, -r))
    return 2 * (S + X - X // (q // math.gcd(r, q)))


@dataclass(frozen=True)
class ReducedCoefficients:
    """Output of the gamma-reduction of a unit congruence.

    The congruence r x3^2 = g1 x1^2 + g2 x2^2 mod q carries the same unit
    solutions as b1 x1^2 + b2 x2^2 + b3 x3^2 = 0 whenever gcd(r, q) = 1
    (multiplying by the unit r is then reversible); in general the reduced
    form contains the original solution set.
    """

    g1: int
    g2: int
    r1: int
    r2: int
    a1: int
    a2: int

    @property
    def r(self) -> int:
        return self.r1 * self.r2


def check_reduce(b1: int, b2: int, b3: int, q: int, Q: int) -> None:
    """Refuse what reduce_coefficients refuses: b3 not a unit mod q, then q < 1 or Q < 1."""
    mod_inverse(b3, q)
    check_approx(b1, q, Q)


def reduce_coefficients(b1: int, b2: int, b3: int, q: int, Q: int) -> ReducedCoefficients:
    """Replace b1/b3 and b2/b3 by small gamma coefficients via approximants.

    With t_i = b_i * inverse(b3) mod q and Dirichlet fractions a_i/r_i of
    t_i/q at quality Q, sets r = r1 r2 and
        g1 = -t1 r + a1 r2 q,   g2 = -t2 r + a2 r1 q,
    which obey |g_i| <= q (r1 + r2) / Q + r.
    """
    check_reduce(b1, b2, b3, q, Q)
    inv3 = mod_inverse(b3, q)
    t1 = b1 * inv3 % q
    t2 = b2 * inv3 % q
    ap1 = dirichlet_approx(t1, q, Q)
    ap2 = dirichlet_approx(t2, q, Q)
    r = ap1.r * ap2.r
    g1 = -t1 * r + ap1.a * ap2.r * q
    g2 = -t2 * r + ap2.a * ap1.r * q
    out = ReducedCoefficients(g1, g2, ap1.r, ap2.r, ap1.a, ap2.a)
    bound = q * (ap1.r + ap2.r) // Q + r + 1
    assert abs(g1) <= bound and abs(g2) <= bound
    return out


def integer_nth_root(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 0, exact."""
    if x < 0 or k < 1:
        raise ValueError("x must be >= 0 and k >= 1")
    if x in (0, 1):
        return x
    # integer Newton steps from 2^ceil(bits/k) > x^(1/k) fall monotonically to
    # the floor in O(log log x) steps; no float, so any size of x works
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _ceil_fifth_root(num: int, den: int) -> int:
    """Smallest integer R >= (num/den)^(1/5), exact."""
    lo = integer_nth_root(num // den, 5)
    r = max(1, lo)
    while r**5 * den < num:
        r += 1
    return r


def check_parameters(q: int, M: int) -> None:
    """Refuse what choose_parameters refuses: M outside 1..q."""
    if not 1 <= M <= q:
        raise ValueError("need 1 <= M <= q")


def choose_parameters(q: int, M: int):
    """The cutoff pair R = ceil(q^(2/5) M^(-3/5)), Q = ceil(q^(3/5) M^(3/5)).

    Exact ceilings of rational fifth roots (no floating point): R is the
    least integer with R^5 M^3 >= q^2 and Q the least with Q^5 >= q^3 M^3.
    """
    check_parameters(q, M)
    R = _ceil_fifth_root(q * q, M**3)
    Q = _ceil_fifth_root(q**3 * M**3, 1)
    return R, Q
