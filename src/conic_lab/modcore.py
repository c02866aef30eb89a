"""Exact modular arithmetic over odd prime powers.

Jacobi symbols, inverses (of arrays by a product tree), square roots, the
Newton lift of a simple polynomial root, integer polynomials mod q (by Horner
at a point, by baby and giant steps on a residue class t = alpha mod p), the one
class evaluator of ratios mod q (ratio_mod_class), the one exactly rounded
exponential sum (exp_sum, for the Gauss sums and expsum's direct sums), and the
structural constants s_p / C_p. All functions are pure and thread-safe.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

# Residues are conceptually 64-bit; constructors cap q so that downstream
# kernels may assume q*q fits comfortably in signed 128-bit products.
Q_MAX = 2**62

# The one cap on size-q work: residue tables, materialized families, direct
# O(q) sums. The int64 kernels' overflow bounds rest on it: every factor
# reduced below q <= 1e7 keeps a product under 1e14 < 2^63.
TABLE_Q_MAX = 10**7

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimePowerModulus:
    """The pair (p, n) with q = p^n, p an odd prime, q <= 2^62."""

    p: int
    n: int
    q: int = field(init=False)

    def __post_init__(self):
        if self.p <= 2 or not is_prime(self.p):
            raise ValueError(f"p={self.p} is not an odd prime")
        if self.n < 1:
            raise ValueError(f"exponent n={self.n} must be >= 1")
        # p >= 3, so n > 62 is over the cap whatever p is: refuse it before p**n
        if self.n > 62 or (q := self.p**self.n) > Q_MAX:
            raise ValueError(f"q = {self.p}^{self.n} exceeds the 2^62 cap")
        object.__setattr__(self, "q", q)


def check_table_q(q: int) -> None:
    """Refuse a size-q table or sum over TABLE_Q_MAX, before anything is allocated."""
    if q > TABLE_Q_MAX:
        raise ValueError(f"q={q} exceeds the table budget")


class CoefficientTriple(NamedTuple):
    """Coefficients (a1, a2, a3) of a diagonal ternary quadratic congruence."""

    a1: int
    a2: int
    a3: int


def validate_coeffs(coeffs, p: int) -> CoefficientTriple:
    """Check gcd(a_i, p) = 1 for all three coefficients."""
    a1, a2, a3 = coeffs  # a wrong length raises ValueError
    c = CoefficientTriple(a1, a2, a3)
    for a in c:
        if a % p == 0:
            raise ValueError(f"coefficient {a} shares a factor with p={p}")
    return c


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd positive m (Legendre symbol for prime m)."""
    if m <= 0 or m % 2 == 0:
        raise ValueError(f"modulus {m} must be odd and positive")
    a %= m
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def mod_inverse(a: int, q: int) -> int:
    """Inverse of a mod q; raises when gcd(a, q) > 1."""
    try:
        return pow(a, -1, q)
    except ValueError:
        raise ValueError(f"{a} is not invertible mod {q}") from None


def sqrt_mod_prime(a: int, p: int) -> Optional[int]:
    """Tonelli-Shanks square root mod an odd prime; None for non-residues.

    The quadratic non-residue used internally is the smallest positive one,
    so the algorithm is fully deterministic.
    """
    a %= p
    if a == 0:
        return 0
    if jacobi(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # p - 1 = s * 2^e with s odd
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    c = pow(z, s, p)
    x = pow(a, (s + 1) // 2, p)
    t = pow(a, s, p)
    m = e
    while t != 1:
        i, sq = 0, t
        while sq != 1:
            sq = sq * sq % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def sqrt_mod_prime_power(a: int, pp: PrimePowerModulus) -> Optional[int]:
    """Smaller root x in [0, q) of x^2 = a mod q for a unit a, or None.

    The prime-level root is Newton-lifted (lift_root). Rejects a divisible
    by p: callers must strip even powers of p themselves.
    """
    p, q = pp.p, pp.q
    a %= q
    if a % p == 0:
        raise ValueError("sqrt_mod_prime_power requires gcd(a, p) = 1")
    x = sqrt_mod_prime(a, p)
    if x is None:
        return None
    x = lift_root((-a, 0, 1), x, p, q)
    return min(x, q - x)


def poly_eval_mod(coeffs, x: int, m: int) -> int:
    """Horner value mod m of the ascending integer polynomial coeffs at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def lift_root(coeffs, alpha: int, p: int, target: int) -> int:
    """Newton-lift a simple root alpha mod p of the polynomial coeffs to mod target = p^m.

    Each step doubles the p-adic precision; the lift is the unique root mod
    target that is congruent to alpha mod p.
    """
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    x, mod = alpha % p, p
    while mod < target:
        mod = min(mod * mod, target)
        x = (x - poly_eval_mod(coeffs, x, mod) * pow(poly_eval_mod(deriv, x, mod), -1, mod)) % mod
    return x


def poly_eval_mod_class(coeffs, alpha: int, e: int, pp: PrimePowerModulus) -> np.ndarray:
    """coeffs(alpha + p j) mod q for j = 0..p^e - 1, e < n, as int64.

    Baby and giant steps, one reduction per value: with j = i + B k, B = p^floor(e/2),
    u_i = alpha + p i and w_k = p B k, f(u + w) = sum_{a,b} c_(a+b) C(a+b, a) u^a w^b, so
    row k, column i of (W @ ((U @ M) % q).T) % q is index j, for U[i, a] = u_i^a and
    W[k, b] = w_k^b. int64 is safe for q <= 1e7: each matmul sums d + 1 products of
    factors below q, under (d + 1) 1e14 < 2^63 while d + 1 <= 92,000; more is refused.
    """
    p, q = pp.p, pp.q
    k = len(coeffs)
    if k > 92_000:
        raise ValueError(f"degree {k - 1} is over the int64 bound of poly_eval_mod_class")
    big = p ** (e // 2)

    def powers(x):
        out = np.ones((len(x), k), dtype=np.int64)
        for a in range(1, k):
            out[:, a] = out[:, a - 1] * x % q
        return out

    u = powers((alpha % q + p * np.arange(big, dtype=np.int64)) % q)
    w = powers(p * big * np.arange(p**e // big, dtype=np.int64))  # p B k < p^(e+1) <= q
    m = [[c * math.comb(a + b, a) % q for b, c in enumerate(coeffs[a:])] + [0] * a for a in range(k)]
    return (w @ (u @ np.array(m, dtype=np.int64) % q).T % q).ravel()


def inv_mod_array(d: np.ndarray, pp: PrimePowerModulus) -> np.ndarray:
    """Inverses mod q of the units d (entries in [0, q)), as poly_eval_mod_class gives them.

    Montgomery's batch inversion as an iterative product tree: pairwise products
    level by level up to one root, a single pow(root, -1, q), then inv[2k] = up d[2k+1]
    and inv[2k+1] = up d[2k] on the way down, about 3 mulmods per entry. A non-unit
    entry makes the root a non-unit: ValueError. int64 is safe for q <= 1e7: every
    factor lies in [0, q), so products stay < 1e14. An object array of Python ints
    is exact for any q.
    """
    q = pp.q
    levels, x = [], d
    while len(x) > 1:
        levels.append(x)
        x = x[0::2].copy()  # an odd level carries its last entry up unpaired
        x[: len(levels[-1]) // 2] *= levels[-1][1::2]
        x %= q
    inv = x.copy()
    if len(inv):
        try:
            inv[0] = pow(int(inv[0]), -1, q)
        except ValueError:
            raise ValueError(f"inv_mod_array: an entry is not a unit mod {q}") from None
    while levels:
        x = levels.pop()
        up = np.empty_like(x)
        up[0::2] = inv
        up[0 : len(x) - 1 : 2] *= x[1::2]
        np.multiply(inv[: len(x) // 2], x[0 : len(x) - 1 : 2], out=up[1::2])
        up %= q
        inv = up
    return inv


def ratio_mod_class(numers, denom, alphas, e: int, pp: PrimePowerModulus) -> list:
    """numer(t) / denom(t) mod q on t = alpha + p j, j < p^e, alpha in alphas: an int64 array per numer.

    poly_eval_mod_class values, so q <= TABLE_Q_MAX is checked first; a constant denominator
    is inverted by one pow, any other by one inv_mod_array tree (a non-unit is a ValueError).
    """
    check_table_q(pp.q)

    def values(f):  # one class uncopied; np.array, not concatenate: no classes is an empty array
        rows = [poly_eval_mod_class(f, a, e, pp) for a in alphas]
        return rows[0] if len(rows) == 1 else np.array(rows, np.int64).ravel()

    dinv = pow(denom[0], -1, pp.q) if len(denom) == 1 else inv_mod_array(values(denom), pp)
    return [values(f) * dinv % pp.q for f in numers]


def _exact_sum(x: np.ndarray) -> float:
    """fsum(x), bit for bit, for terms x on the grid 2^-76 Z within [-1, 1].

    exp_sum's cos and sin terms lie on it: q is odd and at most TABLE_Q_MAX, so a nonzero
    one is at least sin(pi/(2q)) > 2^-23 in size. Each term splits exactly into whole floats
    hi = floor(x 2^38), |hi| <= 2^38, and lo = (x - hi 2^-38) 2^76 in [0, 2^38). Summed with
    dtype=int64 (exact per term, no int64 copy) in blocks of 2^17 terms, which bound the
    temporaries, both stay below 2^56; Python ints add the blocks, and int true division
    rounds the exact total once, half to even, as fsum does.
    """
    total = 0
    for i in range(0, len(x), 1 << 17):
        y = x[i : i + (1 << 17)] * 2.0**38
        hi = np.floor(y)
        y -= hi
        y *= 2.0**38
        total += (int(hi.sum(dtype=np.int64)) << 38) + int(y.sum(dtype=np.int64))
    return total / (1 << 76)


def exp_sum(vals: np.ndarray, q: int, chi: Optional[np.ndarray] = None) -> complex:
    """sum of chi(v) e(v/q) over the residues vals (q odd <= TABLE_Q_MAX, chi = 1 if None).

    _exact_sum rounds the float terms chi cos(2 pi v/q), then chi sin(2 pi v/q), once each.
    """
    ang = vals * (2.0 * np.pi / q)
    parts = (trig(ang) if chi is None else trig(ang) * chi for trig in (np.cos, np.sin))
    return complex(*map(_exact_sum, parts))  # one full-length part alive at a time


def gauss_sum(q: int) -> complex:
    """Quadratic Gauss sum G_q = sum_{x=1..q} exp(2 pi i x^2 / q), q odd."""
    if q <= 0 or q % 2 == 0:
        raise ValueError(f"q={q} must be odd and positive")
    check_table_q(q)
    return exp_sum(np.arange(1, q + 1, dtype=np.int64) ** 2 % q, q)


def _factorize(m: int) -> list:
    out = []
    d = 3
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 2
    if m > 1:
        out.append((m, 1))
    return out


def legendre_table(p: int) -> np.ndarray:
    """(y/p) for y = 0..p-1 as an int8 array, filled by marking the squares mod p."""
    leg = np.full(p, -1, dtype=np.int8)
    leg[0] = 0
    r = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    leg[r * r % p] = 1
    return leg


def jacobi_table(q: int) -> np.ndarray:
    """(y/q) for y = 0..q-1 as an int8 array: prod_p (y/p)^e over q's factorization."""
    if q % 2 == 0 or q <= 0:
        raise ValueError(f"q={q} must be odd and positive")
    check_table_q(q)
    tab = np.ones(q, dtype=np.int8)
    y = np.arange(q, dtype=np.int64)
    for p, e in _factorize(q):
        vals = legendre_table(p)[y % p]
        tab *= vals if e % 2 else np.abs(vals)
    return tab


def gauss_sum_character(q: int) -> complex:
    """Character form sum_{y=1..q} (y/q) exp(2 pi i y / q); equals G_q for odd q."""
    chi = jacobi_table(q)  # refuses even, non-positive and over-budget q first
    return exp_sum(np.arange(q, dtype=np.int64), q, chi)


def gauss_sum_unit(q: int) -> complex:
    """Exact value of G_q / sqrt(q) for odd q: 1 if q = 1 mod 4, else i."""
    if q % 4 == 1:
        return 1.0 + 0.0j
    return 1.0j


def s_p(coeffs, p: int) -> int:
    """Number of excluded parameter classes mod p for the coefficient triple.

    Equals 2 + (-a1*a2/p) + (-a1*a3/p) + (-a2*a3/p); the prime-level solution
    count of the congruence is (p-1)(p - s_p).
    """
    a1, a2, a3 = validate_coeffs(coeffs, p)
    return (
        2
        + jacobi(-a1 * a2, p)
        + jacobi(-a1 * a3, p)
        + jacobi(-a2 * a3, p)
    )


def main_constant(coeffs, p: int) -> Fraction:
    """Main-term density C_p = (p - s_p)(p - 1) / p^2 as an exact rational.

    May be zero or negative (e.g. Pythagorean coefficients at p = 5, where
    s_p = p); predictions built on it are then vacuous and callers must treat
    them as such rather than expect a failure here.
    """
    s = s_p(coeffs, p)
    return Fraction((p - s) * (p - 1), p * p)
