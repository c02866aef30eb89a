"""Exact modular arithmetic over odd prime powers.

Jacobi symbols, inverses (of arrays by a product tree), square roots, the
Newton lift of a simple polynomial root, the table of unit squares mod q
(unit_squares), integer polynomials mod q (by Horner at a point, by baby and
giant steps on residue classes t = alpha mod p), the one class evaluator of
ratios mod q (ratio_mod_class: one call evaluates every class it is given, in
one stacked matmul per polynomial and one inverse tree), the one source of
exponential-sum terms (trig_table: cos and sin on an arithmetic progression of
residues) and the one exactly rounded sum of them (exact_sum, for the Gauss
sums and expsum's direct sums), and the residue pattern and structural
constants s_p / C_p. All are pure and thread-safe.

poly_eval_mod_class's giant-step matmul runs in float64 BLAS, which is exact there: its
operands are integers in [0, q), and it sums at most n <= 14 products, as the giant-step
powers w^b vanish mod q from b = n on. So every partial sum is an integer below
n (q - 1)^2 < 2^53, whatever BLAS's blocking, threads and fused multiply-adds. numpy's
int64 matmul is an unblocked loop, about 8 times slower on a 5^8 class (2-vCPU Xeon). The
baby-step U @ M stays int64: it sums d + 1 products below 1e14, so its guard,
(d + 1) 1e14 < 2^63 for d + 1 <= 92,000, stays with it.

The full-length int64 reductions of the array kernels go through _rem, which reduces
in place by floor division: numpy divides an int64 array by one scalar about four
times faster than % does (about 1.0 against 4.2 ns an entry on a 2-vCPU Xeon), and
x - q (x // q) is x % q for every sign, with q (x // q) in (x - q, x].

A sum of e(v/q) takes cos and sin once per residue of a table, not once per term: the
terms are gathered from the table by index and exact_sum rounds their exact total, which
does not depend on the order. A table of the coset c + p^(s+1) Z holds q/p^(s+1) <= q/p
entries, 16 B each: at most 1.25 MB at 5^8, and TABLE_Q_MAX/3 entries (53 MB) with p = 3,
where one class's int64 values, which the table's indices replace, already take 27 MB."""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

# The cap on q. Residues are Python ints and the int64 kernels have their own
# TABLE_Q_MAX cap, so no product needs this one. It keeps every accepted p below
# 3.3e24, where is_prime's Miller-Rabin bases are deterministic, and q inside a
# signed 64-bit integer, and lets PrimePowerModulus refuse n > 62 before p**n.
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


def unit_squares(p: int, q: int, half: float):
    """(xs, xs^2 mod q) over the units xs in 1..floor(half), half >= 0: int64 arrays.

    The one builder of this table, for census's kernels and conic's pair join. half is
    held to TABLE_Q_MAX before the arange, and each x is reduced below q before it is
    squared, which keeps the square in int64 for every q <= TABLE_Q_MAX (the bound
    stated there; the callers check q).
    """
    if not half <= TABLE_Q_MAX:  # before int() (inf overflows) and before the arange
        raise ValueError(f"box half-width {half} exceeds the table budget")
    xs = np.arange(1, int(half) + 1, dtype=np.int64)
    xs = xs[xs % p != 0]
    r = xs % q
    return xs, r * r % q


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


def _rem(x: np.ndarray, q: int) -> np.ndarray:
    """x % q in place, as x -= q (x // q), with one temporary; returns x.

    Floor division makes this np.remainder for every sign of x. Nothing overflows for
    x >= -2^63 + q: q (x // q) lies in (x - q, x]. Object arrays reduce the same way.
    """
    t = np.floor_divide(x, q)
    t *= q
    x -= t
    return x


def poly_eval_mod_class(coeffs, alphas, e: int, pp: PrimePowerModulus) -> np.ndarray:
    """coeffs(alpha + p j) mod q for alpha in alphas, j = 0..p^e - 1, e < n: one int64 array, class by class.

    Baby and giant steps, one reduction per value: with j = i + B k, B = p^floor(e/2),
    u_i = alpha + p i and w_k = p B k, f(u + w) = sum_{a,b} c_(a+b) C(a+b, a) u^a w^b, so
    row k, column i of (W @ ((U @ M) % q).T) % q is index j, for U[i, a] = u_i^a and
    W[k, b] = w_k^b. p B divides w_k, so w_k^b = 0 mod q once b (floor(e/2) + 1) >= n: W
    and M keep only the columns b < min(d + 1, ceil(n / (floor(e/2) + 1))), at most n.
    Every class is one slice of a stacked U, so all of them take one giant-step matmul of
    shape (classes, G, B), G = p^e / B.

    That matmul runs in float64 BLAS, exactly: both operands are integers in [0, q) and it
    sums at most n products, so every partial sum is an integer below n (q - 1)^2 < 2^53
    (n <= 14 and q <= 1e7 under TABLE_Q_MAX, which is checked first), and BLAS's blocking,
    threads and fused multiply-adds cannot change a bit. The small U @ M stays int64: it
    sums d + 1 products of factors below q, under (d + 1) 1e14 < 2^63 while
    d + 1 <= 92,000; more is refused.
    """
    p, q = pp.p, pp.q
    check_table_q(q)
    k = len(coeffs)
    if k > 92_000:
        raise ValueError(f"degree {k - 1} is over the int64 bound of poly_eval_mod_class")
    big = p ** (e // 2)
    nb = min(k, -(-pp.n // (e // 2 + 1)))  # the giant-step powers w^b that are not 0 mod q

    def powers(x, count):
        out = np.ones(x.shape + (count,), dtype=np.int64)
        for a in range(1, count):
            out[..., a] = out[..., a - 1] * x % q
        return out

    starts = np.array([a % q for a in alphas], dtype=np.int64).reshape(-1, 1)
    u = powers((starts + p * np.arange(big, dtype=np.int64)) % q, k)
    w = powers(p * big * np.arange(p**e // big, dtype=np.int64), nb)  # p B k < p^(e+1) <= q
    m = [[coeffs[a + b] * math.comb(a + b, a) % q if a + b < k else 0 for b in range(nb)] for a in range(k)]
    # C-ordered, so BLAS reads it: numpy's float64 matmul of a transposed stack is unblocked
    v = (u @ np.array(m, dtype=np.int64) % q).transpose(0, 2, 1).astype(np.float64, order="C")
    return _rem((w.astype(np.float64) @ v).astype(np.int64), q).ravel()


def inv_mod_array(d: np.ndarray, pp: PrimePowerModulus) -> np.ndarray:
    """Inverses mod q of the units d (entries in [0, q)), as poly_eval_mod_class gives them.

    Montgomery's batch inversion as an iterative product tree: pairwise products level by
    level while a level has more than 32 entries, one pow(v, -1, q) for each of the <= 32
    entries of the top level, then inv[2k] = up d[2k+1] and inv[2k+1] = up d[2k] on the
    way down, about 3 mulmods per entry. The tree stops at 32 because each level costs
    about six numpy calls whatever its length: a level of a few entries is cheaper
    inverted one by one in Python. A non-unit entry makes its top-level product a
    non-unit: ValueError. int64 is safe for q <= 1e7: every factor lies in [0, q), so
    products stay < 1e14.
    """
    q = pp.q
    levels, x = [], d
    while len(x) > 32:
        levels.append(x)
        x = x[0::2].copy()  # an odd level carries its last entry up unpaired
        x[: len(levels[-1]) // 2] *= levels[-1][1::2]
        _rem(x, q)
    try:
        inv = np.array([pow(v, -1, q) for v in x.tolist()], dtype=x.dtype)
    except ValueError:
        raise ValueError(f"inv_mod_array: an entry is not a unit mod {q}") from None
    while levels:
        x = levels.pop()
        up = np.empty_like(x)
        up[0::2] = inv
        up[0 : len(x) - 1 : 2] *= x[1::2]
        np.multiply(inv[: len(x) // 2], x[0 : len(x) - 1 : 2], out=up[1::2])
        inv = _rem(up, q)
    return inv


def ratio_mod_class(numers, denom, alphas, e: int, pp: PrimePowerModulus) -> list:
    """numer(t) / denom(t) mod q on t = alpha + p j, j < p^e, alpha in alphas: an int64 array per numer.

    One poly_eval_mod_class call evaluates a polynomial on every class at once, so
    q <= TABLE_Q_MAX is checked first; a constant denominator is inverted by one pow and
    folded into each numer's coefficients (the same residues, one array pass fewer), any
    other by one inv_mod_array tree over all the classes (a non-unit is a ValueError).
    """
    q = pp.q
    check_table_q(q)
    if len(denom) == 1:
        dinv = pow(denom[0], -1, q)
        return [poly_eval_mod_class([c * dinv % q for c in f], alphas, e, pp) for f in numers]
    dinv = inv_mod_array(poly_eval_mod_class(denom, alphas, e, pp), pp)
    return [_rem(poly_eval_mod_class(f, alphas, e, pp) * dinv, q) for f in numers]


def trig_table(q: int, first: int = 0, step: int = 1) -> np.ndarray:
    """cos and sin of v (2 pi / q) on v = first, first + step, ... < q: the rows of one array.

    The one source of exponential-sum terms: the Gauss sums take step 1 (q entries, like
    the arrays of their terms), and expsum.direct_sums one coset p^s w + p^(s+1) Z of a
    class's values, at most q/p entries. An entry is the float v * (2 pi / q), wherever v
    sits. The angles come out increasing, which keeps the range branches of numpy's
    float64 cos and sin predicted, with no sort.
    """
    ang = np.arange(first, q, step, dtype=np.int64) * (2.0 * np.pi / q)
    table = np.empty((2, len(ang)))
    np.cos(ang, out=table[0])
    np.sin(ang, out=table[1])
    return table


def exact_sum(table: np.ndarray, idx: Optional[np.ndarray] = None, multiplicity: int = 1) -> list:
    """fsum of each row of table[:, idx] (of table if idx is None) repeated multiplicity times, bit for bit.

    For entries on the grid 2^-76 Z in [-1, 1]. trig_table's entries lie on it: q is odd and
    at most TABLE_Q_MAX, so a nonzero one is at least sin(pi/(2q)) > 2^-23 in size. Each term
    splits exactly into whole floats hi = floor(x 2^38), |hi| <= 2^38, and lo =
    (x - hi 2^-38) 2^76 in [0, 2^38). In blocks of 2^15 terms every partial sum of either
    limb is an integer of size at most 2^53, so the float64 block sums are exact in any
    order. Python ints add the blocks and multiply the exact total by multiplicity (a rounded
    float times it would not be fsum's value), and int true division rounds it once, half to
    even, as fsum does. So the sum does not depend on the order of the terms.
    """
    totals = [0] * len(table)
    for i in range(0, table.shape[1] if idx is None else len(idx), 1 << 15):
        block = slice(i, i + (1 << 15))
        y = (table[:, block] if idx is None else table.take(idx[block], axis=1)) * 2.0**38
        hi = np.floor(y)
        y -= hi
        y *= 2.0**38
        totals = [t + (int(h) << 38) + int(lo) for t, h, lo in zip(totals, hi.sum(axis=1), y.sum(axis=1))]
        del y, hi  # freed before the next block's: a lower peak, and the allocator reuses them
    return [t * multiplicity / (1 << 76) for t in totals]


def gauss_sum(q: int) -> complex:
    """Quadratic Gauss sum G_q = sum_{x=1..q} exp(2 pi i x^2 / q), q odd."""
    if q <= 0 or q % 2 == 0:
        raise ValueError(f"q={q} must be odd and positive")
    check_table_q(q)
    return complex(*exact_sum(trig_table(q), np.arange(1, q + 1, dtype=np.int64) ** 2 % q))


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
    table = trig_table(q)
    table *= chi
    return complex(*exact_sum(table))


def gauss_sum_unit(q: int) -> complex:
    """Exact value of G_q / sqrt(q) for odd q: 1 if q = 1 mod 4, else i."""
    if q % 4 == 1:
        return 1.0 + 0.0j
    return 1.0j


def residue_pattern(coeffs, p: int) -> tuple:
    """The triple of Legendre symbols ((-a1a2/p), (-a1a3/p), (-a2a3/p))."""
    a1, a2, a3 = validate_coeffs(coeffs, p)
    return (jacobi(-a1 * a2, p), jacobi(-a1 * a3, p), jacobi(-a2 * a3, p))


def s_p(coeffs, p: int) -> int:
    """Number of excluded parameter classes mod p for the coefficient triple.

    Equals 2 + (-a1*a2/p) + (-a1*a3/p) + (-a2*a3/p); the prime-level solution
    count of the congruence is (p-1)(p - s_p).
    """
    return 2 + sum(residue_pattern(coeffs, p))


def main_constant(coeffs, p: int) -> Fraction:
    """Main-term density C_p = (p - s_p)(p - 1) / p^2 as an exact rational.

    May be zero or negative (e.g. Pythagorean coefficients at p = 5, where
    s_p = p); predictions built on it are then vacuous and callers must treat
    them as such rather than expect a failure here.
    """
    s = s_p(coeffs, p)
    return Fraction((p - s) * (p - 1), p * p)
