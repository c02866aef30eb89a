"""Parametrization of y1, y2 with a1*y1^2 + a2*y2^2 = -a3 mod p^n.

Two regimes, decided by the residue pattern of the -ai*aj mod p:

* Case I  (-a2*a3 is a residue): chord slopes through the point (0, -b) with
  b^2 = -a3/a2 parametrize the unit solutions; the map t -> (y1, y2) is
  injective on the p^(n-1)*(p - s_p) t in the admissible classes mod p.
* Case II (no -ai*aj is a residue): the slope line is layered into sets M_s,
  s = 0..n, which together cover all p^n + p^(n-1) solutions exactly.

Both regimes use one chord-slope map, written once as the form k1*y1 + k2*y2
(slope_form): Case II is its layers s through a base point, Case I its layer 0
through (0, -b). The family builders run one layer loop that evaluates it
class by class (modcore.ratio_mod_class); expsum's amplitudes scale it
by x3. Pairs are plain (y1, y2) tuples of ints.

Also: base-point search and Hensel lifting of full solution triples.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .modcore import (
    CoefficientTriple,
    PrimePowerModulus,
    check_table_q,
    jacobi,
    lift_root,
    mod_inverse,
    poly_eval_mod,
    ratio_mod_class,
    sqrt_mod_prime,
    sqrt_mod_prime_power,
    validate_coeffs,
)

CASE_I = "CaseI"
CASE_II = "CaseII"


class BasePoint(NamedTuple):
    a: int
    b: int


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

    Tries a = 0, 1, ... mod p, taking b as the smaller square root of
    (-a3 - a1*a^2)/a2 mod p: the first pair with both coordinates units wins,
    else the first pair found. These are the lexicographically least such
    pairs mod p. One unit coordinate is then Newton-lifted to mod q.
    Deterministic.
    """
    c = validate_coeffs(coeffs, pp.p)
    p, q = pp.p, pp.q
    inv2 = mod_inverse(c.a2, p)
    pt = None
    for a in range(p):
        b = sqrt_mod_prime((-c.a3 - c.a1 * a * a) * inv2, p)
        if b is None:
            continue
        b = min(b, p - b)
        if a and b:
            pt = (a, b)
            break
        if pt is None:
            pt = (a, b)
    assert pt is not None, "a1*a^2 and -a3 - a2*b^2 each take (p+1)/2 values mod p, so they meet"
    a, b = pt
    if a:
        a = lift_root((c.a2 * b * b + c.a3, 0, c.a1), a, p, q)
    else:
        b = lift_root((c.a3, 0, c.a2), b, p, q)
    return BasePoint(a, b)


def case1_slope_base(coeffs, pp: PrimePowerModulus) -> int:
    """The smaller root b of b^2 = -a3/a2 mod q; requires the Case I pattern."""
    c = validate_coeffs(coeffs, pp.p)
    if jacobi(-c.a2 * c.a3, pp.p) != 1:
        raise ValueError("-a2*a3 is not a residue mod p: no Case I slope base")
    b = sqrt_mod_prime_power((-c.a3 * mod_inverse(c.a2, pp.q)) % pp.q, pp)
    assert b is not None
    return b


def slope_form(k1, k2, s, base, coeffs, p: int):
    """k1*y1 + k2*y2 of the chord-slope map at t / p^s, as ascending integer (numer, denom).

    The chord of slope t / p^s through the base point (a, b) meets the conic again at
      y1 = a - 2 a2 (a t^2 - b t p^s) / (a1 p^(2s) + a2 t^2)
      y2 = -b - 2 a1 p^s (a t - b p^s) / (a1 p^(2s) + a2 t^2).
    Case II uses layers s = 0..n; Case I is layer 0 through (0, -b) with b^2 = -a3/a2.
    """
    a, b = base
    a1, a2, _ = coeffs
    ps = p**s
    d = a * k1 + b * k2
    return (a1 * ps * ps * d, 2 * ps * (b * a2 * k1 - a * a1 * k2), -a2 * d), (a1 * ps * ps, 0, a2)


def _map_pairs(coeffs, s, base, alphas, e, pp: PrimePowerModulus) -> set:
    """The pairs (y1, y2) of slope_form's map at t / p^s mod q, t = alpha + p j for j < p^e.

    By modcore.ratio_mod_class (q <= TABLE_Q_MAX); the denominator must be a unit.
    """
    num1, den = slope_form(1, 0, s, base, coeffs, pp.p)
    num2, _ = slope_form(0, 1, s, base, coeffs, pp.p)
    y1, y2 = ratio_mod_class((num1, num2), den, alphas, e, pp)
    return set(zip(y1.tolist(), y2.tolist()))


def param_case1(t: int, b: int, coeffs, pp: PrimePowerModulus) -> tuple:
    """Case I chord-slope parametrization t -> (y1, y2) mod q: slope_form through (0, -b).

    Requires b^2 = -a3/a2 mod q and gcd(t (a1 - a2 t^2)(a1 + a2 t^2), p) = 1.
    Scalar Python-int arithmetic, exact for any q.
    """
    c = validate_coeffs(coeffs, pp.p)
    p, q = pp.p, pp.q
    if jacobi(-c.a2 * c.a3, p) != 1:
        raise ValueError("not a Case I residue pattern")
    if (c.a2 * b * b + c.a3) % q != 0:
        raise ValueError("b does not satisfy a2*b^2 = -a3 mod q")
    t %= q
    if t % p == 0 or (c.a1 - c.a2 * t * t) % p == 0 or (c.a1 + c.a2 * t * t) % p == 0:
        raise ValueError(f"t={t} violates the unit conditions")
    num1, den = slope_form(1, 0, 0, (0, -b), c, p)
    num2, _ = slope_form(0, 1, 0, (0, -b), c, p)
    dinv = mod_inverse(poly_eval_mod(den, t, q), q)
    return poly_eval_mod(num1, t, q) * dinv % q, poly_eval_mod(num2, t, q) * dinv % q


def case1_admissible_alphas(coeffs, p: int):
    """Classes alpha mod p with alpha(a1 - a2 alpha^2)(a1 + a2 alpha^2) a unit."""
    c = validate_coeffs(coeffs, p)
    return [a for a in range(1, p) if (c.a1 - c.a2 * a * a) % p and (c.a1 + c.a2 * a * a) % p]


@dataclass(frozen=True)
class ParamFamily:
    """A materialized parametrization family.

    layers[s] is the pair set of layer s of slope_form's map and pairs is their
    disjoint union. CASE_II has the sets M_s, s = 0..n, of total size
    p^n + p^(n-1); CASE_I has the one layer 0, the injective image of the
    admissible classes, of size p^(n-1)(p - s_p).
    """

    layers: dict
    pairs: frozenset


def _family(coeffs, base: BasePoint, plan, pp: PrimePowerModulus) -> ParamFamily:
    """The family of the layers (s, alphas, e) of plan, each of its full size len(alphas) p^e.

    A layer whose map is not injective, or that meets an earlier layer, is an
    AssertionError.
    """
    layers, seen = {}, set()
    for s, alphas, e in plan:
        pairs = _map_pairs(coeffs, s, base, alphas, e, pp)
        expected = len(alphas) * pp.p**e
        if len(pairs) != expected:
            raise AssertionError(f"layer {s} has {len(pairs)} pairs, expected {expected}")
        if seen & pairs:
            raise AssertionError(f"layer {s} overlaps an earlier layer")
        seen |= pairs
        layers[s] = frozenset(pairs)
    return ParamFamily(layers, frozenset(seen))


def build_case1_family(coeffs, pp: PrimePowerModulus) -> ParamFamily:
    """Materialize the Case I image: layer 0 through (0, -b) on the admissible classes."""
    c = validate_coeffs(coeffs, pp.p)
    check_table_q(pp.q)
    base = BasePoint(0, -case1_slope_base(coeffs, pp) % pp.q)
    return _family(c, base, [(0, case1_admissible_alphas(c, pp.p), pp.n - 1)], pp)


def build_case2_family(
    coeffs, pp: PrimePowerModulus, base: Optional[BasePoint] = None
) -> ParamFamily:
    """Materialize the layered sets M_s covering all solutions in Case II.

    Layer s evaluates slope_form's map at t / p^s, for t = 0..p^n - 1 at
    s = 0 (t = 0 stands for t = p^n, equal mod q) and the units t in
    1..p^(n-s) otherwise (t = 1 alone at s = n); the denominators are units
    mod q. Layer sizes |M_0| = p^n, |M_n| = 1, |M_s| = p^(n-s) - p^(n-s-1)
    otherwise are enforced, as is pairwise disjointness; the union has
    exactly p^n + p^(n-1) distinct pairs.
    """
    c = validate_coeffs(coeffs, pp.p)
    p, n, q = pp.p, pp.n, pp.q
    if case_tag(coeffs, p) != CASE_II:
        raise ValueError("residue pattern is not Case II")
    check_table_q(q)
    if base is None:
        base = find_base_point(coeffs, pp)
    a, b = base.a % q, base.b % q
    if (c.a1 * a * a + c.a2 * b * b + c.a3) % q != 0:
        raise ValueError("base point does not lie on the conic mod q")
    plan = [(0, range(p), n - 1), *((s, range(1, p), n - s - 1) for s in range(1, n)), (n, [1], 0)]
    fam = _family(c, BasePoint(a, b), plan, pp)
    assert len(fam.pairs) == q + q // p
    return fam


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
    check_table_q(q)
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
    return set(zip(ys[i1].tolist(), ys[order[pos]].tolist()))
