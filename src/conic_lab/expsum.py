"""Complete exponential sums sum_t e(f(t)/p^n) for rational-function f.

Three routes to the same values, kept deliberately separate so they can be
played against each other:

* direct_sums: brute summation over residue classes t = alpha mod p, one
  period of f each, by modcore's one class evaluator and one exactly rounded
  sum, with the terms of the requests whose values share a coset
  p^s w(alpha) + p^(s+1) Z taken from one table of cos and sin. It evaluates
  every t, so it does not use the critical-point lemma that cochrane_evaluate
  is checked against. direct_S_alpha is one request; layer_sum and direct_E,
  closed_form_E's twin, sum a layer's classes in one call;
* cochrane_evaluate: the critical-point evaluation (zero away from critical
  points of p^(-r) f', a single Gauss-sum-normalized term at simple ones);
* closed_form_E: the two-critical-point closed form for the chord-slope
  amplitude families (x3 times conic.slope_form through conic.family_plan's
  base point), one sqrt(D) expression for both cases.

Polynomial arithmetic is exact over Python integers; reduction mod q happens
only at evaluation time.
"""

import math

import numpy as np

from .modcore import (
    PrimePowerModulus,
    check_table_q,
    exact_sum,
    gauss_sum_unit,
    jacobi,
    lift_root,
    mod_inverse,
    poly_eval_mod,
    ratio_mod_class,
    sqrt_mod_prime_power,
    trig_table,
    validate_coeffs,
)
from .conic import family_plan, slope_form


class NonUnitDenominatorError(ValueError):
    """The denominator vanishes mod p where a unit value is required."""


class UnsupportedCaseError(ValueError):
    """Inputs outside the closed-form evaluation's hypotheses."""


# ---------------------------------------------------------------------------
# dense integer polynomials, ascending coefficients


def _trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_sub(a, b):
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for j, bj in enumerate(b):
        out[j] -= bj
    return _trim(out)


def _poly_deriv(a):
    if len(a) == 1:
        return (0,)
    return _trim([i * ai for i, ai in enumerate(a)][1:])


def _poly_valuation(a, p):
    """Largest e with p^e dividing every coefficient; None for the zero poly."""
    v = None
    for c in a:
        if c == 0:
            continue
        e = 0
        while c % p == 0:
            c //= p
            e += 1
        v = e if v is None else min(v, e)
        if v == 0:
            return 0
    return v


def _poly_strip(a, p, v):
    return tuple(c // p**v for c in a)


class IntRationalFunction:
    """f = numer / denom with integer-coefficient polynomials."""

    __slots__ = ("numer", "denom")

    def __init__(self, numer, denom=(1,)):
        self.numer = _trim(numer)
        self.denom = _trim(denom)
        if self.denom == (0,):
            raise ZeroDivisionError("denominator is the zero polynomial")

    def __repr__(self):
        return f"IntRationalFunction({self.numer}, {self.denom})"

    def eval_mod(self, t, q):
        """numer(t) * inverse(denom(t)) mod q; denominator must be a unit."""
        dv = poly_eval_mod(self.denom, t, q)
        if math.gcd(dv, q) != 1:
            raise NonUnitDenominatorError(f"denominator not a unit at t={t} mod {q}")
        return poly_eval_mod(self.numer, t, q) * pow(dv, -1, q) % q

    def derivative(self):
        num = _poly_sub(
            _poly_mul(_poly_deriv(self.numer), self.denom),
            _poly_mul(self.numer, _poly_deriv(self.denom)),
        )
        return IntRationalFunction(num, _poly_mul(self.denom, self.denom))

    def stripped(self, p):
        """The function with p-content removed from both parts, plus its ord."""
        vn = _poly_valuation(self.numer, p)
        if vn is None:
            raise ValueError("cannot strip the zero function")
        vd = _poly_valuation(self.denom, p)
        return (
            IntRationalFunction(_poly_strip(self.numer, p, vn), _poly_strip(self.denom, p, vd)),
            vn - vd,
        )


# ---------------------------------------------------------------------------
# direct summation


def _e_q(value: int, q: int) -> complex:
    return complex(np.exp(2j * np.pi * (value % q) / q))


def _unit_class(f: IntRationalFunction, alpha: int, p: int) -> int:
    """alpha mod p, a class on which f's denominator is a unit; NonUnitDenominatorError otherwise."""
    alpha %= p
    if poly_eval_mod(f.denom, alpha, p) == 0:
        raise NonUnitDenominatorError(f"denominator vanishes on the class {alpha} mod {p}")
    return alpha


def direct_sums(requests, pp: PrimePowerModulus) -> list:
    """S_alpha(f; p^n) = sum over t = alpha mod p, t in [1, p^n] of e_q(f(t)), for each request (f, alpha).

    With s = min(v_p(content of f.numer), n - 1) (n - 1 for a zero numer), f(t) mod q is
    p^s w(t) for w = (numer / p^s) / denom mod p^(n-s), and w depends on t mod p^(n-s) only.
    As t runs over the class alpha mod p in [0, q), t mod p^(n-s) runs over that class in
    [0, p^(n-s)) and meets each point exactly p^s times. So the terms of the period's
    p^(n-s-1) points (values from modcore.ratio_mod_class mod p^(n-s)), each taken p^s
    times, are the class's p^(n-1) terms, and modcore.exact_sum's multiplicity p^s gives
    the class's sum bit for bit. The values lie in one coset: w(t) = w(alpha) mod p, as the
    denominator is a unit on the class, so p^s w is in p^s w(alpha) + p^(s+1) Z, whose
    p^(n-s-1) <= q/p residues modcore.trig_table lists in order, p^s w at entry w // p. So
    the requests are grouped by (s, w(alpha) mod p), one table alive at a time. Each t is
    still evaluated: nothing uses the bijection t -> f(t) of a class on which f' is a unit,
    the lemma that cochrane_evaluate is checked against. Every class is checked, and q is
    held to TABLE_Q_MAX however small p^(n-s) is, before anything is summed.
    """
    p, n, q = pp.p, pp.n, pp.q
    check_table_q(q)
    cosets = {}  # (s, w(alpha) mod p) -> [(request number, numer / p^s, denom, alpha)]
    for i, (f, alpha) in enumerate(requests):
        alpha = _unit_class(f, alpha, p)
        v = _poly_valuation(f.numer, p)
        s = n - 1 if v is None else min(v, n - 1)
        numer = _poly_strip(f.numer, p, s)
        coset = poly_eval_mod(numer, alpha, p) * pow(poly_eval_mod(f.denom, alpha, p), -1, p) % p
        cosets.setdefault((s, coset), []).append((i, numer, f.denom, alpha))
    sums = [0j] * len(requests)
    for (s, coset), members in cosets.items():
        ps, period = p**s, PrimePowerModulus(p, n - s) if s else pp
        table = trig_table(q, ps * coset, ps * p)
        for i, numer, denom, alpha in members:
            w = ratio_mod_class((numer,), denom, (alpha,), n - s - 1, period)[0]
            w //= p  # in place: the table entry of p^s w
            sums[i] = complex(*exact_sum(table, w, ps))
            del w  # one period-length array alive at a time, not two
    return sums


def direct_S_alpha(f: IntRationalFunction, alpha: int, pp: PrimePowerModulus) -> complex:
    """S_alpha(f; p^n) by direct summation: the one request of direct_sums."""
    return direct_sums([(f, alpha)], pp)[0]


# ---------------------------------------------------------------------------
# the Cochrane evaluation


def _check_evaluable(p, n, r):
    """Raise UnsupportedCaseError where the stationary-phase evaluation at level r fails."""
    if r > n - 2:
        raise UnsupportedCaseError(f"r = {r} > n-2 = {n - 2}")
    if p == 3 and n - r == 3 and r >= 1:
        # The cubic Taylor term survives mod 3^n here (3 | 3!), so the
        # quadratic stationary-phase value is wrong in general.
        raise UnsupportedCaseError("p=3 with n-r=3 and r>=1 is outside the evaluation")


def cochrane_evaluate(f: IntRationalFunction, alpha: int, pp: PrimePowerModulus) -> complex:
    """Closed-form S_alpha(f; p^n) from the critical points of p^(-r) f'.

    Returns exactly 0 when alpha is not a critical point; at a simple
    critical point, lifts alpha to alpha* mod p^ceil((n-r)/2) and evaluates
        e_q(f(alpha*)) * p^((n+r)/2) * [1  or  (A(alpha)/p) * G_p/sqrt(p)]
    for n-r even / odd, with A(alpha) = 2 p^(-r) f''(alpha) mod p. Raises
    UnsupportedCaseError when r > n-2 or the critical point is a multiple
    root (cases the evaluation does not cover), NonUnitDenominatorError when
    f is undefined on the class.
    """
    p, n, q = pp.p, pp.n, pp.q
    alpha = _unit_class(f, alpha, p)
    g, r = f.derivative().stripped(p)
    _check_evaluable(p, n, r)
    if poly_eval_mod(g.numer, alpha, p) != 0:
        return 0j
    # g.numer(alpha) = 0 mod p, so A(alpha) = 2 g'(alpha) = 2 g.numer'(alpha) / g.denom(alpha)
    # mod p (g.denom is f.denom^2, a unit on the class): zero exactly at a multiple root.
    a = 2 * IntRationalFunction(_poly_deriv(g.numer), g.denom).eval_mod(alpha, p) % p
    if a == 0:
        raise UnsupportedCaseError(f"alpha={alpha} is a multiple critical point")
    phase = _e_q(f.eval_mod(lift_root(g.numer, alpha, p, p ** ((n - r + 1) // 2)), q), q)
    if (n - r) % 2 == 0:
        return phase * p ** ((n + r) // 2)
    mag = p ** ((n + r - 1) // 2) * math.sqrt(p)
    return phase * mag * jacobi(a, p) * gauss_sum_unit(p)


# ---------------------------------------------------------------------------
# the chord-slope amplitude families


def family_amplitude(s, k1, k2, x3, coeffs, pp: PrimePowerModulus) -> IntRationalFunction:
    """Amplitude x3*(k1 y1(t/p^s) + k2 y2(t/p^s)) with denominators cleared.

    Layer s of the chord-slope family through conic.family_plan's base point
    (in both cases): conic.slope_form at (x3 k1, x3 k2), with exact integer
    coefficients. Refuses a layer the plan does not have, as layer_sum does.
    """
    base, layers = family_plan(coeffs, pp)
    if not 0 <= s < len(layers):
        raise ValueError(f"the family has no layer {s}")
    return IntRationalFunction(*slope_form(x3 * k1, x3 * k2, s, base, validate_coeffs(coeffs, pp.p), pp.p))


def layer_requests(s, k1, k2, x3, coeffs, pp: PrimePowerModulus) -> tuple:
    """The direct_sums requests of layer s of conic.family_plan, checked, and their weight.

    The class sums run over all p^(n-1) t of each class mod q, while the layer amplitude
    depends on t mod p^(e+1) only (it is constant at s = n), so they meet each of the
    layer's t = alpha + p j, j < p^e, p^(n-1-e) times: the weight that divides their sum.
    """
    f = family_amplitude(s, k1, k2, x3, coeffs, pp)  # refuses a layer the plan does not have
    _, alphas, e = family_plan(coeffs, pp)[1][s]
    return [(f, _unit_class(f, a, pp.p)) for a in alphas], pp.p ** (pp.n - 1 - e)


def layer_sum(s, k1, k2, x3, coeffs, pp: PrimePowerModulus) -> complex:
    """Layer s of conic.family_plan: the amplitude summed over the layer's t, in one direct_sums call.

    At k1 = k2 = 0 this recovers the layer size: p^n at s = 0 of Case II,
    p^(n-s) - p^(n-s-1) at 0 < s < n, 1 at s = n, and p^(n-1)(p - s_p) at s = 0
    of Case I. For s >= 1 the sum vanishes whenever ord_p of the amplitude
    derivative is at most n-2, because unit critical points would force t = 0 mod p.
    """
    requests, weight = layer_requests(s, k1, k2, x3, coeffs, pp)
    return sum(direct_sums(requests, pp), start=0j) / weight


def direct_E(k1, k2, x3, coeffs, pp: PrimePowerModulus) -> complex:
    """The family sum E(k1,k2,x3;p^n) by direct summation: closed_form_E's twin.

    It is layer 0 of conic.family_plan: all t through its unit point (a, b)
    in Case II, the admissible classes through (0, b) in Case I.
    """
    return layer_sum(0, k1, k2, x3, coeffs, pp)


def _split_common_power(k1, k2, p, n):
    r = 0
    while r < n and k1 % p == 0 and k2 % p == 0:
        k1 //= p
        k2 //= p
        r += 1
    return k1, k2, r


def closed_form_E(k1, k2, x3, coeffs, pp: PrimePowerModulus) -> complex:
    """The sqrt(D) closed form of the family sum E(k1,k2,x3;p^n).

    Writing (k1,k2) = p^r (l1,l2) with l1, l2 units and
    D = -(a3/a2) (a1 a2 l1^2 + a1^2 l2^2): the sum vanishes when D is a
    non-residue mod p, and otherwise equals

        p^((n+r)/2) * sum_{eps = +-1} e(eps * (x3/a1) * sqrt(D) / p^(n-r)) * K(eps)

    with K(eps) = 1 for n-r even and (-2*x3*a2*eps*sqrt(D) / p) * G_p/sqrt(p)
    for n-r odd. Both cases share it: each family is layer 0 through
    conic.family_plan's base point, and (eps, sqrt(D)) run over its two
    critical points. The Legendre factor is attached per critical point, which
    makes the expression independent of the sqrt(D) branch. Unsupported:
    r > n-2, D = 0 mod p, and a critical quadratic that degenerates mod p
    (leading coefficient l2*a1*a - l1*a2*b = 0 at the base point (a, b); in
    Case I, where a = 0 and b is a unit, it cannot). A mixed residue pattern
    is a ValueError: normalize_to_case1 permutes it into Case I. direct_E
    sums the same E directly.
    """
    c = validate_coeffs(coeffs, pp.p)
    p, n = pp.p, pp.n
    if x3 % p == 0:
        raise ValueError("x3 must be a unit mod p")
    l1, l2, r = _split_common_power(k1, k2, p, n)
    if l1 % p == 0 or l2 % p == 0:
        raise ValueError("k1 and k2 must share the same exact power of p")
    _check_evaluable(p, n, r)
    (a, b), _ = family_plan(c, pp)
    if (l2 * c.a1 * a - l1 * c.a2 * b) % p == 0:
        raise UnsupportedCaseError("critical quadratic degenerates mod p")
    nr = n - r
    mod_nr = p**nr
    core = c.a1 * c.a2 * l1 * l1 + c.a1 * c.a1 * l2 * l2
    d_val = -c.a3 * mod_inverse(c.a2, mod_nr) * core % mod_nr
    if d_val % p == 0:
        raise UnsupportedCaseError("D = 0 mod p is excluded by the admissible classes")
    if jacobi(d_val, p) == -1:
        return 0j
    sq = sqrt_mod_prime_power(d_val, PrimePowerModulus(p, nr))
    cphase = x3 * mod_inverse(c.a1, mod_nr) % mod_nr
    total = 0j
    for eps in (1, -1):
        term = _e_q(eps * cphase * sq, mod_nr)
        if nr % 2:
            term *= jacobi(-2 * x3 * c.a2 * eps * sq, p) * gauss_sum_unit(p)
        total += term
    if nr % 2 == 0:
        return total * p ** ((n + r) // 2)
    return total * p ** ((n + r - 1) // 2) * math.sqrt(p)
