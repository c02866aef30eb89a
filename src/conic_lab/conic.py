"""Parametrization of y1, y2 with a1*y1^2 + a2*y2^2 = -a3 mod p^n.

Two regimes, decided by the residue pattern of the -ai*aj mod p:

* Case I  (-a2*a3 is a residue): chord slopes through (0, b), b^2 = -a3/a2,
  parametrize the unit solutions; the map t -> (y1, y2) is injective on the
  p^(n-1)*(p - s_p) t in the admissible classes mod p.
* Case II (no -ai*aj is a residue): the slope line is layered into sets M_s,
  s = 0..n, which together cover all p^n + p^(n-1) solutions exactly.

Both regimes are one chord-slope map, written once as the form k1*y1 + k2*y2
(slope_form), and family_plan is the one place that maps a case to its base
point and its layers: Case II is the layers s through (a, b), a the first unit
mod p with (-a3 - a1 a^2)/a2 a residue and b its smaller root, Case I layer 0
through (0, b). build_family evaluates layer 0 in one modcore.ratio_mod_class
call and Case II's layers s >= 1 in one more, as the class 0 mod p of the
reversed slope form at u = p^s / t split by the valuation of u; it sorts each
layer's keys once and merges the layers in one more sort; expsum's amplitudes
scale the map by x3. A pair set mod q is a read-only int64 (k, 2) array of rows
(y1, y2) strictly increasing in the key y1*q + y2 < q^2 <= 1e14 < 2^63.

A binary conic is solved in one place, a join over the units y in 1..(q-1)/2
alone (_half_range_join): each matched pair gives the four unit solutions
(+-y1, +-y2). On it run enumerate_pair_solutions, the families' independent
check, and count_unit_circle, which adds the pairs with a coordinate = 0 mod p
by Hensel. Its int64 products stay below q^2 <= 1e14 (y^2 < q^2).

Also: Hensel lifting of full solution triples.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .modcore import (
    CoefficientTriple,
    PrimePowerModulus,
    check_table_q,
    jacobi,
    lift_root,
    mod_inverse,
    ratio_mod_class,
    residue_pattern,
    sqrt_mod_prime,
    sqrt_mod_prime_power,
    unit_squares,
    validate_coeffs,
)

CASE_I = "CaseI"
CASE_II = "CaseII"


class BasePoint(NamedTuple):
    a: int
    b: int


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


def normalize_to_case1(coeffs, p: int) -> CoefficientTriple:
    """The first of (a1,a2,a3), (a2,a1,a3), (a3,a1,a2) that case_tag calls Case I.

    A solution (x1, x2, x3) of the original congruence, with its coordinates
    permuted the same way, solves the permuted one. Raises if no -ai*aj is a
    residue (Case II).
    """
    a1, a2, a3 = validate_coeffs(coeffs, p)
    for perm in ((a1, a2, a3), (a2, a1, a3), (a3, a1, a2)):
        if case_tag(perm, p) == CASE_I:
            return CoefficientTriple(*perm)
    raise ValueError("no -ai*aj is a residue: Case II pattern")


def slope_form(k1, k2, s, base, coeffs, p: int):
    """k1*y1 + k2*y2 of the chord-slope map at t / p^s, as ascending integer (numer, denom).

    The chord of slope t / p^s through the base point (a, b) meets the conic again at
      y1 = a - 2 a2 (a t^2 - b t p^s) / (a1 p^(2s) + a2 t^2)
      y2 = -b - 2 a1 p^s (a t - b p^s) / (a1 p^(2s) + a2 t^2).
    family_plan gives the base point and the layers s of each case.
    """
    a, b = base
    a1, a2, _ = coeffs
    ps = p**s
    d = a * k1 + b * k2
    return (a1 * ps * ps * d, 2 * ps * (b * a2 * k1 - a * a1 * k2), -a2 * d), (a1 * ps * ps, 0, a2)


def _pair_rows(keys, q: int) -> np.ndarray:
    """The read-only pair rows of the sorted, distinct int64 keys y1*q + y2."""
    rows = np.stack(np.divmod(keys, q), axis=1)
    rows.flags.writeable = False
    return rows


def _distinct_sorted(keys) -> np.ndarray:
    """The int64 keys sorted, repeats masked out (np.unique is ~15x slower)."""
    keys.sort()
    return keys[np.diff(keys, prepend=-1) != 0]


def _map_keys(coeffs, base, alphas, e, pp: PrimePowerModulus, inverse=False) -> np.ndarray:
    """The keys y1*q + y2 of slope_form's map at slope t (1 / t if inverse), t = alpha + p j, j < p^e, in t order.

    By modcore.ratio_mod_class (q <= TABLE_Q_MAX); the denominator must be a unit.
    """
    (num1, den), (num2, _) = (slope_form(k1, k2, 0, base, coeffs, pp.p) for k1, k2 in ((1, 0), (0, 1)))
    step = -1 if inverse else 1  # at 1 / t, times t^2: the coefficient tuples reversed
    y1, y2 = ratio_mod_class((num1[::step], num2[::step]), den[::step], alphas, e, pp)
    return y1 * pp.q + y2


def _inverse_slope_keys(coeffs, base, pp: PrimePowerModulus) -> dict:
    """Case II's layers s = 1..n in one evaluation: s -> the distinct keys, sorted, of the map at u = p^s / t.

    Put t / p^s = 1 / u and multiply by u^2: the map at the inverse slope u is
    slope_form's at s = 0 with both coefficient tuples reversed, and its
    denominator a2 + a1 u^2 is a2 mod p, a unit, on the class u = p j, j < p^(n-1).
    As t runs over the units mod p^(n-s), u = p^s (t^-1 mod p^(n-s)) runs over the
    residues mod q of exact valuation s, on the same chord: layer s is the j with
    v_p(j) = s - 1, and j = 0 (u = 0, slope t / p^n with t = 1) is layer n.
    """
    p, n = pp.p, pp.n
    rest = _map_keys(coeffs, base, [0], n - 1, pp, inverse=True)
    layers = {}
    for s in range(1, n):  # rest holds the j divisible by p^(s-1), as rows j / p^s by last digit
        by_digit = rest.reshape(-1, p)
        layers[s] = _distinct_sorted(by_digit[:, 1:].ravel())
        rest = by_digit[:, 0]
    layers[n] = rest
    return layers


def family_plan(coeffs, pp: PrimePowerModulus):
    """The case's chord-slope family: (base point, layers (s, alphas, e)).

    Layer s is slope_form's map at t / p^s for t = alpha + p j, alpha in
    alphas and j < p^e. Case I is (0, b), b the smaller root of
    b^2 = -a3/a2 mod q, with layer 0 on the admissible classes: the alpha in
    1..p-1 with (a1 - a2 alpha^2)(a1 + a2 alpha^2) a unit. Case II is (a, b)
    with a the first of 1..p-1 for which (-a3 - a1 a^2)/a2 is a residue mod p,
    b its smaller root mod p and a Newton-lifted to mod q, with the layers
    M_s: all t mod q at s = 0 (t = 0 stands for t = p^n), the units t in
    1..p^(n-s) at 0 < s < n, and t = 1 alone at s = n; every denominator is a
    unit mod q. Such an a exists, and the point's coordinates are units:
    a1 a^2 and -a3 - a2 b^2 each take (p+1)/2 values mod p, so they meet, and
    a meeting point with a = 0 would make -a2*a3 a residue, one with b = 0
    would make -a1*a3 one, which Case II rules out. A mixed pattern is a
    ValueError: normalize_to_case1 permutes it into Case I.
    """
    c = validate_coeffs(coeffs, pp.p)
    p, n, q = pp.p, pp.n, pp.q
    tag = case_tag(c, p)
    if tag == CASE_I:
        b = sqrt_mod_prime_power(-c.a3 * mod_inverse(c.a2, q) % q, pp)
        alphas = [t for t in range(1, p) if (c.a1 - c.a2 * t * t) % p and (c.a1 + c.a2 * t * t) % p]
        return BasePoint(0, b), [(0, alphas, n - 1)]
    if tag == CASE_II:
        inv2 = mod_inverse(c.a2, p)
        for a in range(1, p):
            b = sqrt_mod_prime((-c.a3 - c.a1 * a * a) * inv2, p)
            if b is not None:
                break
        b = min(b, p - b)
        layers = [(0, range(p), n - 1), *((s, range(1, p), n - s - 1) for s in range(1, n)), (n, [1], 0)]
        return BasePoint(lift_root((c.a2 * b * b + c.a3, 0, c.a1), a, p, q), b), layers
    raise ValueError("a mixed residue pattern has no family sum; permute it into Case I")


@dataclass(frozen=True)
class ParamFamily:
    """A materialized parametrization family, its pair sets in the module's sorted-array format.

    layers[s] is the pair set of layer s of slope_form's map and pairs is their
    disjoint union. CASE_II has the sets M_s, s = 0..n, of total size
    p^n + p^(n-1); CASE_I has the one layer 0, the injective image of the
    admissible classes, of size p^(n-1)(p - s_p).
    """

    layers: dict
    pairs: np.ndarray


def build_family(coeffs, pp: PrimePowerModulus) -> ParamFamily:
    """Materialize the layers (s, alphas, e) of family_plan, after checking the table budget.

    Case I gives the unit solutions, Case II all p^n + p^(n-1) solutions.
    Layer 0 is one ratio_mod_class call; Case II's layers s >= 1 are one more,
    the class 0 mod p of the reversed slope form at u = p^s / t
    (_inverse_slope_keys). A layer with fewer than len(alphas) p^e distinct
    pairs (its map is not injective) is an AssertionError, checked layer by
    layer; so, after all of them, is a pair in two layers (a key repeated in
    the layers' sorted keys, merged by one stable sort of their sorted runs;
    Case I has one layer, and nothing to merge), named by the first layer with
    a pair of an earlier one.
    """
    c = validate_coeffs(coeffs, pp.p)
    check_table_q(pp.q)
    base, plan = family_plan(c, pp)
    _, alphas, e = plan[0]
    keys = {0: _distinct_sorted(_map_keys(c, base, alphas, e, pp))}
    if len(plan) > 1:  # Case II
        keys.update(_inverse_slope_keys(c, base, pp))
    for s, alphas, e in plan:
        expected = len(alphas) * pp.p**e
        if len(keys[s]) != expected:
            raise AssertionError(f"layer {s} has {len(keys[s])} pairs, expected {expected}")
    layers = {s: _pair_rows(k, pp.q) for s, k in keys.items()}
    if len(layers) == 1:  # Case I's one layer 0: nothing to merge
        return ParamFamily(layers, layers[0])
    merged = np.sort(np.concatenate(list(keys.values())), kind="stable")
    if (merged[1:] == merged[:-1]).any():
        seen = np.empty(0, np.int64)
        for s, k in keys.items():
            if np.isin(k, seen).any():
                raise AssertionError(f"layer {s} overlaps an earlier layer")
            seen = np.concatenate((seen, k))
    return ParamFamily(layers, _pair_rows(merged, pp.q))


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
            lifts.append(((x1 + k1 * q) % up.q, (x2 + k2 * q) % up.q, (x3 + k3 * q) % up.q))
    assert len(set(lifts)) == p * p
    return lifts


def _half_range_join(coeffs, pp: PrimePowerModulus):
    """The units y1, y2 in 1..(q-1)/2 with a1*y1^2 + a2*y2^2 + a3 = 0 mod q: int64 y1 ascending, int32 y2.

    The units mod q (p odd) are a cyclic group, so a unit square has exactly the
    two unit roots +-y, one in each half of [1, q): on the half range both keys
    a1*y^2 and -a3 - a2*y^2 are injective. So y1 pairs with y2 exactly when
    a1*y1^2 = -a3 - a2*y2^2 mod q, and a direct-address table over the residues
    mod q, filled with y2 at its key, gives each y1 its one partner (or 0, which
    is no unit) without a sort. O(q); int64 throughout, as the squares come from
    modcore.unit_squares and every other product has both factors reduced below q
    (TABLE_Q_MAX's bound); the table is int32, as y < q <= 1e7 < 2^31.
    """
    c = validate_coeffs(coeffs, pp.p)
    p, q = pp.p, pp.q
    check_table_q(q)
    ys, sq = unit_squares(p, q, (q - 1) // 2)
    partner = np.zeros(q, np.int32)
    partner[(-c.a3 % q - c.a2 % q * sq) % q] = ys
    y2 = partner[c.a1 % q * sq % q]
    hit = y2 != 0
    return ys[hit], y2[hit]


def enumerate_pair_solutions(coeffs, pp: PrimePowerModulus) -> np.ndarray:
    """The unit solutions of a1*y1^2 + a2*y2^2 + a3 = 0 mod q, in the module's pair format.

    The four sign variants (+-y1, +-y2) of each pair of _half_range_join. They come
    out sorted: with y1 ascending, the rows (y1, y2), (y1, q - y2) are the solutions
    with y1 < q/2 in order, and (y1, y2) -> (q - y1, q - y2) reverses the order of
    rows of units, so the rest are the first rows reversed and negated.
    """
    y1, y2 = _half_range_join(coeffs, pp)
    q = pp.q
    low = np.empty((2 * len(y2), 2), np.int64)
    low[:, 0] = np.repeat(y1, 2)
    low[0::2, 1] = y2
    low[1::2, 1] = q - y2
    rows = np.concatenate((low, q - low[::-1]))
    rows.flags.writeable = False
    return rows


def count_unit_circle(g1: int, g2: int, pp: PrimePowerModulus) -> int:
    """Number of pairs (x1, x2) mod q with g1 x1^2 + g2 x2^2 = 1 mod q.

    All residue pairs count, units or not; when -g1*g2 is a non-residue mod p
    the value is p^n + p^(n-1). The pairs of units are the four sign variants
    of each pair of _half_range_join on (g1, g2, -1). No pair has both
    coordinates = 0 mod p, as 0 is not 1. A pair with x2 = 0 mod p (p^(n-1)
    choices of x2) needs g1 x1^2 = 1 - g2 x2^2, a unit = 1 mod p: x1^2 is the
    unit (1 - g2 x2^2)/g1, a square mod q exactly when it is a residue mod p
    (Hensel), that is when g1 is one, and then it has exactly two roots. So
    those pairs number p^(n-1) (1 + chi(g1)), chi the Legendre symbol mod p,
    and those with x1 = 0 mod p, symmetrically, p^(n-1) (1 + chi(g2)).
    """
    p = pp.p
    if g1 % p == 0 or g2 % p == 0:
        raise ValueError("g1, g2 must be units mod p")
    _, y2 = _half_range_join((g1, g2, -1), pp)
    return 4 * len(y2) + p ** (pp.n - 1) * (2 + jacobi(g1, p) + jacobi(g2, p))
