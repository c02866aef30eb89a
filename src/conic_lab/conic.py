"""Parametrization of y1, y2 with a1*y1^2 + a2*y2^2 = -a3 mod p^n.

Two regimes, decided by the residue pattern of the -ai*aj mod p:

* Case I  (-a2*a3 is a residue): chord slopes through the point (0, -b) with
  b^2 = -a3/a2 parametrize the unit solutions; the map t -> (y1, y2) is
  injective on the p^(n-1)*(p - s_p) admissible t.
* Case II (no -ai*aj is a residue): the slope line is layered into sets M_s,
  s = 0..n, which together cover all p^n + p^(n-1) solutions exactly.

Also: base-point search and Hensel lifting of full solution triples.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .modcore import (
    CoefficientTriple,
    PrimePowerModulus,
    jacobi,
    mod_inverse,
    sqrt_mod_prime_power,
    validate_coeffs,
)

CASE_I = "CaseI"
CASE_II = "CaseII"

# Families are materialized eagerly as pair sets.
FAMILY_Q_MAX = 10**7


class BasePoint(NamedTuple):
    a: int
    b: int


class SolutionPair(NamedTuple):
    y1: int
    y2: int


def residue_pattern(coeffs, p: int) -> tuple:
    """The triple of Legendre symbols ((-a1a2/p), (-a1a3/p), (-a2a3/p))."""
    a1, a2, a3 = validate_coeffs(coeffs, p)
    return (jacobi(-a1 * a2, p), jacobi(-a1 * a3, p), jacobi(-a2 * a3, p))


def case_tag(coeffs, p: int) -> str:
    """CASE_I when -a2*a3 is a residue, CASE_II when no -ai*aj is; else 'mixed'.

    'mixed' means some -ai*aj is a residue but not -a2*a3; permuting the
    coordinates (normalize_to_case1) turns those into Case I.
    """
    s12, s13, s23 = residue_pattern(coeffs, p)
    if s23 == 1:
        return CASE_I
    if s12 == -1 and s13 == -1:
        return CASE_II
    return "mixed"


def normalize_to_case1(coeffs, p: int):
    """Permute coordinates so that -a2*a3 is a residue mod p.

    Returns (permuted_coeffs, perm) with permuted_coeffs[i] = coeffs[perm[i]];
    a solution (x1, x2, x3) of the original congruence corresponds to
    (x[perm[0]], x[perm[1]], x[perm[2]]) for the permuted one. Raises if no
    -ai*aj is a residue (Case II).
    """
    c = validate_coeffs(coeffs, p)
    s12, s13, s23 = residue_pattern(coeffs, p)
    if s23 == 1:
        perm = (0, 1, 2)
    elif s13 == 1:
        perm = (1, 0, 2)
    elif s12 == 1:
        perm = (2, 0, 1)
    else:
        raise ValueError("no -ai*aj is a residue: Case II pattern")
    return CoefficientTriple(*(c[i] for i in perm)), perm


def find_base_point(coeffs, pp: PrimePowerModulus) -> BasePoint:
    """A pair (a, b) mod q with a1*a^2 + a2*b^2 = -a3 mod q.

    Scans (a, b) lexicographically mod p preferring pairs with both
    coordinates units (falling back to any solution), then Hensel-lifts one
    unit coordinate level by level. Deterministic.
    """
    c = validate_coeffs(coeffs, pp.p)
    p, q = pp.p, pp.q
    target = (-c.a3) % p
    pt = fallback = None
    for a in range(p):
        for b in range(p):
            if (c.a1 * a * a + c.a2 * b * b) % p == target:
                if a % p and b % p:
                    pt = (a, b)
                    break
                if fallback is None:
                    fallback = (a, b)
        if pt is not None:
            break
    if pt is None:
        pt = fallback
    if pt is None:
        raise ArithmeticError(f"no base point mod {p}; cannot happen for odd p")
    a, b = pt
    mod = p
    while mod < q:
        nxt = mod * p
        g = (c.a1 * a * a + c.a2 * b * b + c.a3) % nxt
        carry = (g // mod) % p
        if a % p:
            k = (-carry * mod_inverse(2 * c.a1 * a % p, p)) % p
            a += k * mod
        else:
            k = (-carry * mod_inverse(2 * c.a2 * b % p, p)) % p
            b += k * mod
        mod = nxt
    return BasePoint(a % q, b % q)


def case1_slope_base(coeffs, pp: PrimePowerModulus) -> int:
    """The smaller root b of b^2 = -a3/a2 mod q; requires the Case I pattern."""
    c = validate_coeffs(coeffs, pp.p)
    if jacobi(-c.a2 * c.a3, pp.p) != 1:
        raise ValueError("-a2*a3 is not a residue mod p: no Case I slope base")
    b = sqrt_mod_prime_power((-c.a3 * mod_inverse(c.a2, pp.q)) % pp.q, pp)
    assert b is not None
    return b


def param_case1(t: int, b: int, coeffs, pp: PrimePowerModulus) -> SolutionPair:
    """Chord-slope parametrization: t -> (y1, y2) in the Case I regime.

    y1 = -2 b a2 t / (a1 + a2 t^2),  y2 = -b(a1 - a2 t^2) / (a1 + a2 t^2),
    computed mod q; this is the slope map through the conic point (0, -b)
    and the only component pairing for which a1*y1^2 + a2*y2^2 = -a3 holds
    when a1 != a2. Requires b^2 = -a3/a2 mod q and
    gcd(t (a1 - a2 t^2)(a1 + a2 t^2), p) = 1.
    """
    c = validate_coeffs(coeffs, pp.p)
    p, q = pp.p, pp.q
    if jacobi(-c.a2 * c.a3, p) != 1:
        raise ValueError("not a Case I residue pattern")
    if (c.a2 * b * b + c.a3) % q != 0:
        raise ValueError("b does not satisfy a2*b^2 = -a3 mod q")
    t %= q
    minus = (c.a1 - c.a2 * t * t) % q
    plus = (c.a1 + c.a2 * t * t) % q
    if t % p == 0 or minus % p == 0 or plus % p == 0:
        raise ValueError(f"t={t} violates the unit conditions")
    dinv = mod_inverse(plus, q)
    y1 = (-2 * b * c.a2 * t * dinv) % q
    y2 = (-b * minus * dinv) % q
    return SolutionPair(y1, y2)


def case1_admissible_alphas(coeffs, p: int):
    """Classes alpha mod p with alpha(a1 - a2 alpha^2)(a1 + a2 alpha^2) a unit."""
    c = validate_coeffs(coeffs, p)
    return [
        a
        for a in range(1, p)
        if (c.a1 - c.a2 * a * a) % p and (c.a1 + c.a2 * a * a) % p
    ]


def case1_admissible_t(coeffs, pp: PrimePowerModulus):
    """Generator of all t mod q passing the Case I unit conditions."""
    good = case1_admissible_alphas(coeffs, pp.p)
    for base in range(0, pp.q, pp.p):
        for alpha in good:
            yield base + alpha


@dataclass(frozen=True)
class ParamFamily:
    """A materialized parametrization family.

    For CASE_II, layers[s] is the pair set M_s (s = 0..n) and pairs is their
    disjoint union of size p^n + p^(n-1). For CASE_I, layers[0] holds the
    admissible t values and pairs the injective image of param_case1.
    """

    case_tag: str
    base: BasePoint
    layers: dict
    pairs: frozenset
    coeffs: CoefficientTriple
    pp: PrimePowerModulus


def build_case1_family(coeffs, pp: PrimePowerModulus) -> ParamFamily:
    """Materialize the Case I image together with its parameter set."""
    c = validate_coeffs(coeffs, pp.p)
    if pp.q > FAMILY_Q_MAX:
        raise ValueError(f"q={pp.q} exceeds the family materialization cap")
    b = case1_slope_base(coeffs, pp)
    ts = list(case1_admissible_t(coeffs, pp))
    pairs = {param_case1(t, b, coeffs, pp) for t in ts}
    if len(pairs) != len(ts):
        raise AssertionError("Case I parametrization failed injectivity")
    return ParamFamily(
        CASE_I, BasePoint(0, (-b) % pp.q), {0: frozenset(ts)}, frozenset(pairs), c, pp
    )


def build_case2_family(
    coeffs, pp: PrimePowerModulus, base: Optional[BasePoint] = None
) -> ParamFamily:
    """Materialize the layered sets M_s covering all solutions in Case II.

    Layer s evaluates the slope map at t / p^s with denominators cleared:
      y1 = a - 2 a2 (a t^2 - b t p^s) / (a1 p^(2s) + a2 t^2)
      y2 = -b - 2 a1 p^s (a t - b p^s) / (a1 p^(2s) + a2 t^2),
    all inverses taken of units mod q. Layer sizes |M_0| = p^n, |M_n| = 1,
    |M_s| = p^(n-s) - p^(n-s-1) otherwise are enforced, as is pairwise
    disjointness; the union has exactly p^n + p^(n-1) distinct pairs.
    """
    c = validate_coeffs(coeffs, pp.p)
    p, n, q = pp.p, pp.n, pp.q
    if case_tag(coeffs, p) != CASE_II:
        raise ValueError("residue pattern is not Case II")
    if q > FAMILY_Q_MAX:
        raise ValueError(f"q={q} exceeds the family materialization cap")
    if base is None:
        base = find_base_point(coeffs, pp)
    a, b = base.a % q, base.b % q
    if (c.a1 * a * a + c.a2 * b * b + c.a3) % q != 0:
        raise ValueError("base point does not lie on the conic mod q")
    layers = {}
    seen = set()
    for s in range(n + 1):
        ps = pow(p, s, q)
        p2s = ps * ps % q
        span = q if s == 0 else p ** (n - s)
        pairs = set()
        for t in range(1, span + 1):
            if s > 0 and t % p == 0:
                continue
            dinv = mod_inverse((c.a1 * p2s + c.a2 * t * t) % q, q)
            y1 = (a - 2 * c.a2 * (a * t * t - b * t * ps) * dinv) % q
            y2 = (-b - 2 * c.a1 * ps * (a * t - b * ps) * dinv) % q
            pairs.add(SolutionPair(y1, y2))
        expected = q if s == 0 else (1 if s == n else p ** (n - s) - p ** (n - s - 1))
        if len(pairs) != expected:
            raise AssertionError(f"layer {s} has {len(pairs)} pairs, expected {expected}")
        if seen & pairs:
            raise AssertionError(f"layer {s} overlaps an earlier layer")
        seen |= pairs
        layers[s] = frozenset(pairs)
    assert len(seen) == q + q // p
    return ParamFamily(CASE_II, BasePoint(a, b), layers, frozenset(seen), c, pp)


def lift_triple(x, coeffs, pp: PrimePowerModulus) -> list:
    """All p^2 lifts of a unit solution mod p^n to solutions mod p^(n+1).

    The correction digits (k1, k2, k3) run over the solution set of the
    linear congruence obtained by expanding (x_i + k_i p^n)^2.
    """
    c = validate_coeffs(coeffs, pp.p)
    p, q = pp.p, pp.q
    x1, x2, x3 = x
    for xi in (x1, x2, x3):
        if xi % p == 0:
            raise ValueError(f"coordinate {xi} is not a unit mod {p}")
    val = c.a1 * x1 * x1 + c.a2 * x2 * x2 + c.a3 * x3 * x3
    if val % q != 0:
        raise ValueError("x is not a solution mod q")
    up = PrimePowerModulus(p, pp.n + 1)
    carry = (val // q) % p
    inv1 = mod_inverse(2 * c.a1 * x1 % p, p)
    lifts = []
    for k2 in range(p):
        for k3 in range(p):
            k1 = (-(carry + 2 * c.a2 * x2 * k2 + 2 * c.a3 * x3 * k3) * inv1) % p
            lifts.append(
                ((x1 + k1 * q) % up.q, (x2 + k2 * q) % up.q, (x3 + k3 * q) % up.q)
            )
    assert len(set(lifts)) == p * p
    return lifts


def enumerate_pair_solutions(coeffs, pp: PrimePowerModulus, units_only: bool = True):
    """Exhaustive solution set of a1*y1^2 + a2*y2^2 + a3 = 0 mod q.

    A sort-join over y in [0, q) (only the units when units_only is set):
    y1 pairs with y2 exactly when a1*y1^2 = -(a2*y2^2 + a3) mod q, so the
    keys of both sides are sorted and matched with searchsorted.
    O(q log q); int64 throughout, as y^2 < q^2 <= 1e14 < 2^63 and every
    other product has both factors reduced below q.
    """
    c = validate_coeffs(coeffs, pp.p)
    p, q = pp.p, pp.q
    if q > FAMILY_Q_MAX:
        raise ValueError(f"q={q} exceeds the enumeration cap")
    ys = np.arange(q, dtype=np.int64)
    if units_only:
        ys = ys[ys % p != 0]
    sq = ys * ys % q
    key1 = c.a1 % q * sq % q
    key2 = (-c.a3 % q - c.a2 % q * sq) % q
    order = np.argsort(key2)
    key2 = key2[order]
    lo = np.searchsorted(key2, key1, "left")
    cnt = np.searchsorted(key2, key1, "right") - lo
    # match k of y1 = ys[i] is the sorted position lo[i] + k
    i1 = np.repeat(np.arange(len(ys)), cnt)
    pos = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(len(i1))
    return set(map(SolutionPair._make, zip(ys[i1].tolist(), ys[order[pos]].tolist())))
