"""Complete exponential sums sum_t e(f(t)/p^n) for rational-function f.

Three routes to the same values, kept deliberately separate so they can be
played against each other:

* direct_S_alpha: brute summation over a residue class t = alpha mod p, by
  modcore's one class evaluator and one exactly rounded exponential sum;
* cochrane_evaluate: the critical-point evaluation (zero away from critical
  points of p^(-r) f', a single Gauss-sum-normalized term at simple ones);
* closed_form_E: the two-critical-point closed form for the chord-slope
  amplitude families (x3 times conic.slope_form; Case I is the Case II
  layer 0 through (0, -b)), one sqrt(D) expression for both cases.

Polynomial arithmetic is exact over Python integers; reduction mod q happens
only at evaluation time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .modcore import (
    PrimePowerModulus,
    exp_sum,
    gauss_sum_unit,
    jacobi,
    lift_root,
    mod_inverse,
    poly_eval_mod,
    ratio_mod_class,
    sqrt_mod_prime_power,
    validate_coeffs,
)
from .conic import (
    BasePoint,
    case1_admissible_alphas,
    case_tag,
    find_base_point,
    slope_form,
    CASE_II,
)


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


def _synth_div(a, alpha, p):
    """Divide a by (x - alpha) mod p; assumes alpha is a root mod p."""
    out = [0] * (len(a) - 1)
    carry = 0
    for i in range(len(a) - 1, 0, -1):
        carry = (carry * alpha + a[i]) % p
        out[i - 1] = carry
    return _trim(out)


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

    def is_zero(self):
        return self.numer == (0,)

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


def direct_S_alpha(f: IntRationalFunction, alpha: int, pp: PrimePowerModulus) -> complex:
    """S_alpha(f; p^n) = sum over t = alpha mod p, t in [1, p^n] of e_q(f(t)).

    Values by modcore.ratio_mod_class, rounded by modcore.exp_sum.
    """
    p, q = pp.p, pp.q
    alpha %= p
    if poly_eval_mod(f.denom, alpha, p) == 0:
        raise NonUnitDenominatorError(f"denominator vanishes on the class {alpha} mod {p}")
    return exp_sum(ratio_mod_class((f.numer,), f.denom, (alpha,), pp.n - 1, pp)[0], q)


def direct_full_sum(f: IntRationalFunction, pp: PrimePowerModulus, alphas=None) -> complex:
    """Sum of S_alpha over the given residue classes (default: all of them)."""
    if alphas is None:
        alphas = range(pp.p)
    return sum((direct_S_alpha(f, a, pp) for a in alphas), start=0j)


# ---------------------------------------------------------------------------
# critical points and the Cochrane evaluation


@dataclass(frozen=True)
class CriticalPointReport:
    """Critical-point data of p^(-r) f' mod p.

    roots lists (alpha, multiplicity); lifted maps each simple root alpha to
    its unique lift mod p^ceil((n-r)/2); second_deriv_unit maps it to
    A(alpha) = 2 p^(-r) f''(alpha*) mod p.
    """

    r: int
    roots: tuple
    lifted: dict
    second_deriv_unit: dict
    lift_modulus: int


def analyze_critical_points(
    f: IntRationalFunction, pp: PrimePowerModulus, alphas=None
) -> CriticalPointReport:
    """The roots mod p of g = p^(-r) f' where f is defined, with lifts and A(alpha).

    Scans the classes alphas (default: all p of them; a full scan costs O(p)).
    """
    p, n = pp.p, pp.n
    if alphas is None:
        alphas = range(p)
    g, r = f.derivative().stripped(p)
    lift_mod = p ** ((n - r + 1) // 2)
    roots, lifted, second = [], {}, {}
    gnum_p = tuple(c % p for c in g.numer)
    dg = g.derivative()
    for alpha in alphas:
        if poly_eval_mod(g.denom, alpha, p) == 0 or poly_eval_mod(gnum_p, alpha, p) != 0:
            continue
        mult = _root_multiplicity(gnum_p, alpha, p)
        roots.append((alpha, mult))
        if mult == 1:
            lifted[alpha] = lift_root(g.numer, alpha, p, lift_mod)
            second[alpha] = 2 * dg.eval_mod(alpha, p) % p
    return CriticalPointReport(r, tuple(roots), lifted, second, lift_mod)


def _root_multiplicity(poly_p, alpha, p):
    """Multiplicity of alpha as a root of poly_p, whose coefficients are reduced mod p."""
    mult = 0
    while poly_p != (0,) and poly_eval_mod(poly_p, alpha, p) == 0:
        poly_p = _synth_div(poly_p, alpha, p)
        mult += 1
    return mult


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
    critical point, lifts alpha and evaluates
        e_q(f(alpha*)) * p^((n+r)/2) * [1  or  (A(alpha)/p) * G_p/sqrt(p)]
    for n-r even / odd. Raises UnsupportedCaseError when r > n-2 or the
    critical point is a multiple root (cases the evaluation does not cover),
    NonUnitDenominatorError when f is undefined on the class.
    """
    p, n, q = pp.p, pp.n, pp.q
    alpha %= p
    if poly_eval_mod(f.denom, alpha, p) == 0:
        raise NonUnitDenominatorError(f"denominator vanishes at alpha={alpha} mod {p}")
    crit = analyze_critical_points(f, pp, (alpha,))
    r = crit.r
    _check_evaluable(p, n, r)
    mult = dict(crit.roots).get(alpha)
    if mult is None:
        return 0j
    if mult != 1:
        raise UnsupportedCaseError(f"alpha={alpha} is a multiple critical point")
    phase = _e_q(f.eval_mod(crit.lifted[alpha], q), q)
    if (n - r) % 2 == 0:
        return phase * p ** ((n + r) // 2)
    mag = p ** ((n + r - 1) // 2) * math.sqrt(p)
    return phase * mag * jacobi(crit.second_deriv_unit[alpha], p) * gauss_sum_unit(p)


# ---------------------------------------------------------------------------
# the chord-slope amplitude families


def family_case1(k1, k2, x3, coeffs, b, pp: PrimePowerModulus) -> IntRationalFunction:
    """Amplitude -x3*(k1 y1(t) + k2 y2(t)) of the Case I map: layer 0 through (0, -b).

    This is the phase produced by the Case I parametrization after Poisson
    summation in the first two coordinates; (0, -b) is on the conic exactly
    when b^2 = -a3/a2 mod q.
    """
    return family_case2(0, k1, k2, -x3, coeffs, BasePoint(0, -b), pp)


def family_case2(s, k1, k2, x3, coeffs, base: BasePoint, pp: PrimePowerModulus) -> IntRationalFunction:
    """Amplitude x3*(k1 y1(t/p^s) + k2 y2(t/p^s)) with denominators cleared.

    Layer s of the Case II family: conic.slope_form at (x3 k1, x3 k2), with
    exact integer coefficients.
    """
    c = validate_coeffs(coeffs, pp.p)
    if not 0 <= s <= pp.n:
        raise ValueError(f"layer index s={s} out of range 0..{pp.n}")
    a, b = base
    if (c.a1 * a * a + c.a2 * b * b + c.a3) % pp.q != 0:
        raise ValueError("base point does not lie on the conic mod q")
    return IntRationalFunction(*slope_form(x3 * k1, x3 * k2, s, base, c, pp.p))


def direct_E_case1(k1, k2, x3, coeffs, b, pp: PrimePowerModulus) -> complex:
    """E(k1,k2,x3;p^n) for Case I: the t-sum over admissible classes, directly."""
    f = family_case1(k1, k2, x3, coeffs, b, pp)
    return direct_full_sum(f, pp, case1_admissible_alphas(coeffs, pp.p))


def layer_sum(s, k1, k2, x3, coeffs, base: BasePoint, pp: PrimePowerModulus) -> complex:
    """Layer-s contribution: the unit-t sum of the layer amplitude over 1/p^s.

    At k1 = k2 = 0 this recovers the layer size (p^(n-s) - p^(n-s-1) for
    1 <= s <= n-1, p^n at s=0, where the s=0 sum runs over all t). For
    s >= 1 the sum vanishes whenever ord_p of the amplitude derivative is
    at most n-2, because unit critical points would force t = 0 mod p.
    """
    f = family_case2(s, k1, k2, x3, coeffs, base, pp)
    if s == 0:
        return direct_full_sum(f, pp)
    return direct_full_sum(f, pp, range(1, pp.p)) / pp.p**s


def _split_common_power(k1, k2, p, n):
    r = 0
    while r < n and k1 % p == 0 and k2 % p == 0:
        k1 //= p
        k2 //= p
        r += 1
    return k1, k2, r


def closed_form_E(k1, k2, x3, coeffs, pp: PrimePowerModulus, base: BasePoint = None) -> complex:
    """The sqrt(D) closed form of the family sum E(k1,k2,x3;p^n).

    Writing (k1,k2) = p^r (l1,l2) with l1, l2 units and
    D = -(a3/a2) (a1 a2 l1^2 + a1^2 l2^2): the sum vanishes when D is a
    non-residue mod p, and otherwise equals

        p^((n+r)/2) * sum_{eps = +-1} e(eps * (x3/a1) * sqrt(D) / p^(n-r)) * K(eps)

    with K(eps) = 1 for n-r even and (-2*x3*a2*eps*sqrt(D) / p) * G_p/sqrt(p)
    for n-r odd. Both cases (case_tag of the coefficients) share it: the Case I
    family is the Case II layer 0 through (0, -b), b^2 = -a3/a2, whose
    (eps, sqrt(D)) run over the same two critical points. The Legendre factor
    is attached per critical point, which makes the expression independent of
    the sqrt(D) branch. Unsupported: r > n-2, D = 0 mod p, and Case II
    instances whose critical quadratic degenerates mod p (leading coefficient
    l2*a1*a - l1*a2*b = 0 at the base point; through (0, -b) it is l1*a2*b, a
    unit). A mixed residue pattern is a ValueError: normalize_to_case1
    permutes it into Case I. base is the Case II base point (find_base_point's
    when None); Case I ignores it.
    """
    c = validate_coeffs(coeffs, pp.p)
    p, n = pp.p, pp.n
    if x3 % p == 0:
        raise ValueError("x3 must be a unit mod p")
    l1, l2, r = _split_common_power(k1, k2, p, n)
    if l1 % p == 0 or l2 % p == 0:
        raise ValueError("k1 and k2 must share the same exact power of p")
    _check_evaluable(p, n, r)
    tag = case_tag(c, p)
    if tag == "mixed":
        raise ValueError("a mixed residue pattern has no closed form; permute it into Case I")
    if tag == CASE_II:
        if base is None:
            base = find_base_point(coeffs, pp)
        if (l2 * c.a1 * base.a - l1 * c.a2 * base.b) % p == 0:
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
