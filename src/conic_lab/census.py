"""Counting solution triples of a1 x1^2 + a2 x2^2 + a3 x3^2 = 0 mod p^n in boxes.

Sharp and Gaussian-smoothed counts, the main-term predictor C_p N^3 / q,
exact prime-level counts, unit-circle counts mod p^n, the smallest-solution
box search, and n-sweeps comparing observed counts to the prediction.

The weight is a switch. By default it is the paper's self-dual Gaussian
exp(-pi (x/N)^2), counted by count_smoothed over the box GAUSSIAN_TAIL_RADIUS
* N; sharp=True selects the box |x_i| <= floor(N), counted exactly by
count_sharp. count, predict_main_term, estimate_count_work, estimate_scan_work
and asymptotic_scan take the switch, and count is the one place that picks the
kernel. Like the kernels, asymptotic_scan charges no budget: its caller charges
the scan, with estimate_scan_work, before it runs.

The Gaussian count is evaluated on the dual side, as in the paper's Poisson
step: count = (1/q) sum_{h mod q} prod_i F_i(h), with F_i the discrete
Fourier transform over Z/q of the Gaussian-weighted histogram of a_i x^2. This
costs O(half + q log q) and agrees with direct summation to within a few ulps
of the count (float64 FFT rounding); exponent bins round the h-sum exactly,
equal to math.fsum. Sharp counts stay exact: blocks of (x1, x2) rows gather a
histogram of a3 x3^2 in the narrowest unsigned dtype that holds its largest
bin (bins <= 2(N/q + 1)), laid out by residue class mod p. By Hensel a unit
is a square mod p^n exactly when it is a residue mod p, so a row class whose
cells fill an eighth of a block joins only the column classes that can meet a
unit x3, the share (p - s_p)/(2(p - 1)) of the box. Both kernels run in one
thread with a fixed operation order.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .modcore import (
    PrimePowerModulus,
    TABLE_Q_MAX,
    check_table_q,
    main_constant,
    mod_inverse,
    s_p,
    unit_squares,
    validate_coeffs,
)

# The Gaussian count's box, in units of N: the weight's tail mass beyond it is
# below 1e-15 per coordinate, so any larger radius gives the same float.
GAUSSIAN_TAIL_RADIUS = 6.0
# Cells (x1, x2) per row block of the sharp count and the box search: bounds
# their scratch arrays to a few MB whatever the box size.
BOX_BLOCK_CELLS = 1 << 16


def _gaussian(x):
    """The self-dual weight exp(-pi x^2): its own Fourier transform, with hat(0) = 1."""
    return np.exp(-np.pi * np.square(x))


@dataclass(frozen=True)
class CountReport:
    """One observed-vs-predicted record of a box count."""

    modulus: PrimePowerModulus
    box_half_width: float
    observed: float
    predicted: float
    ratio: Optional[float]  # None when the prediction is not positive


def _float_sum(x: np.ndarray) -> float:
    """math.fsum(x), bit for bit, for a float64 array x; ValueError on a non-finite term.

    A term is m 2^e (frexp: m = 0 or 1/2 <= |m| < 1, e >= -1073), so m 2^53 splits exactly
    into whole floats hi = floor(m 2^26), |hi| <= 2^26, and lo = (m 2^26 - hi) 2^27 in
    [0, 2^27). In blocks of 2^15 terms, which bound the temporaries, bincount sums both per
    exponent (Demmel and Hida's binned sum) exactly: each partial sum is an integer below
    2^27 2^15 < 2^53. Python ints add the bins on the grid 2^-1126 Z, and int true division
    rounds the total once, half to even, as fsum does.
    """
    total = 0
    for i in range(0, len(x), 1 << 15):
        block = x[i : i + (1 << 15)]
        if not np.isfinite(block).all():  # before frexp: inf - inf would warn, NaN pass
            raise ValueError("cannot round a sum with a non-finite term")
        m, e = np.frexp(block)
        m *= 2.0**26
        hi = np.floor(m)
        e -= (e0 := int(e.min()))
        m -= hi
        m *= 2.0**27  # lo, in place: each temporary costs peak RSS
        bins = zip(*(np.bincount(e, weights=w).tolist() for w in (hi, m)))
        total += sum(((int(a) << 27) + int(b)) << k for k, (a, b) in enumerate(bins)) << (e0 + 1073)
    return total / (1 << 1126)


def count_sharp(coeffs, pp: PrimePowerModulus, N: float) -> int:
    """Exact number of solutions with |x_i| <= floor(N) and all coordinates units, for real N.

    A unit is a square mod p^n exactly when it is a quadratic residue mod p
    (Hensel). So, with t_i = -a_i x_i^2 mod q and r_i = t_i mod p, the cell
    (x1, x2) meets a unit x3 only when (r1 + r2)/a3 is a nonzero square mod p:
    over a period, the share (p - s_p)/(2(p - 1)) of the cells, 2/3 or 1/3 at
    p = 7. The rows t1 are grouped by r1; a class of at least
    BOX_BLOCK_CELLS/8 cells joins only the columns t2 whose r2 passes, and the
    smaller classes join every column together, as their own column arrays
    would cost more than the cells they skip.

    The table of a3 x3^2 over two periods is laid out by residue: v = r + p u
    (v < 2q) sits at r W + u, W = 2q/p, so a class reads one dense W-entry
    segment per target residue. With the keys r W + u of t1 and t2, the cell
    sits at key1 + key2 - k (2q - 1), k = [r1 + r2 >= p], as p W = 2q; it is
    inside its segment, as u1 + u2 + k < W, so below 2q <= 2e7. int64 holds
    every key, index and sum: a%q * sq < q^2 <= 1e14 < 2^63. A row is summed
    in the narrowest unsigned dtype that holds its length times the largest
    bin, a block in int64.
    """
    if N < 0:
        raise ValueError("box half-width must be >= 0")
    p, q = pp.p, pp.q
    c = validate_coeffs(coeffs, p)
    check_table_q(q)
    _, sq = unit_squares(p, q, N)
    # A bin is at most 2(N/q + 1) (two roots per unit square, each hit at most
    # N/q + 1 times in 1..N); the table takes the narrowest unsigned dtype that
    # holds it, uint8 for N < q/2, and holds v and v + q, so t1 + t2 < 2q needs
    # no reduction.
    W = 2 * q // p
    vals, counts = np.unique(c.a3 % q * sq % q, return_counts=True)
    top = int(counts.max(initial=0))
    hist = np.zeros(2 * q, dtype=np.min_scalar_type(top))
    at = vals % p * W + vals // p
    hist[at] = hist[at + q // p] = counts
    # the residues mod p that the table holds: the classes a3 (unit square) it reaches
    target = np.zeros(p, dtype=bool)
    target[vals % p] = True
    key1, key2 = (np.sort(t % p * W + t // p) for t in ((-c.a1) % q * sq % q, (-c.a2) % q * sq % q))
    cls1, sizes = np.unique(key1 // W, return_counts=True)
    joined = sizes * len(key2) >= BOX_BLOCK_CELLS // 8  # measured break-even, p = 7 to 1009
    total, rest = 0, key1[np.repeat(~joined, sizes)]
    step = max(1, BOX_BLOCK_CELLS // max(len(key2), 1))
    for start in range(0, len(rest), step):
        at = rest[start : start + step, None] + key2
        np.subtract(at, 2 * q - 1, out=at, where=at >= 2 * q - 1)  # k = 1 exactly there
        total += int(hist[at].sum(dtype=np.int64))
    r2, ends = key2 // W, np.cumsum(sizes)
    for i in np.flatnonzero(joined).tolist():
        r1 = cls1[i]
        cols = np.where(r2 >= p - r1, key2 - (2 * q - 1), key2)[np.take(target, r1 + r2, mode="wrap")]
        rows = key1[ends[i] - sizes[i] : ends[i]]
        sum_dtype = np.min_scalar_type(len(cols) * top)
        step = max(1, BOX_BLOCK_CELLS // max(len(cols), 1))
        for start in range(0, len(rows), step):
            cells = hist[rows[start : start + step, None] + cols]
            total += int(cells.sum(axis=1, dtype=sum_dtype).sum(dtype=np.int64))
    return 8 * total  # independent signs of x1, x2, x3


def count_smoothed(coeffs, pp: PrimePowerModulus, N: float) -> float:
    """Sum of exp(-pi |x/N|^2) over the unit solutions x: the Gaussian-smoothed count.

    Truncated at |x_i| <= GAUSSIAN_TAIL_RADIUS * N, where the discarded tail
    is below 1e-15 per coordinate. Evaluated on the dual side, 8/q * sum_h
    prod_i F_i(h) with F_i the float64 FFT of the weighted histogram of
    a_i x^2 mod q; agrees with direct summation to about 1e-15 relative, and
    _float_sum's exponent bins round the h-sum exactly, equal to math.fsum.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    p, q = pp.p, pp.q
    c = validate_coeffs(coeffs, p)
    check_table_q(q)
    xs, sq = unit_squares(p, q, GAUSSIAN_TAIL_RADIUS * N)
    phi = _gaussian(xs / N)

    def spectrum(a):
        # residues a%q * sq < q^2 <= 1e14 < 2^63
        return np.fft.rfft(np.bincount(a % q * sq % q, weights=phi, minlength=q))

    # Besides pocketfft's own buffers, at most one histogram (8q B) and two
    # spectra ((q//2+1)*16 B each) are alive at once: under 3*(q/2+1)*16 B,
    # 240 MB at TABLE_Q_MAX. So a spectrum is reused only for the next
    # coefficient: keeping F1 for a1 = a3 != a2 would hold a third one.
    prod = f = spectrum(c.a1)
    for prev, a in ((c.a1, c.a2), (c.a2, c.a3)):
        if (a - prev) % q:
            f = None  # drop the last spectrum before the next is built
            f = spectrum(a)
        # in place, unless prod is still F1 itself, which a3 = a2 = a1 needs again
        prod = prod * f if prod is f else np.multiply(prod, f, out=prod)
    # The histograms are real, so P(-h) = conj P(h); q is odd, so the rfft
    # bins h = 1..(q-1)/2 pair up with -h and there is no Nyquist bin.
    return 8.0 * (float(prod[0].real) + 2.0 * _float_sum(prod[1:].real)) / q


def count(coeffs, pp: PrimePowerModulus, N: float, sharp: bool = False):
    """The one place that picks the kernel: count_sharp's exact int if sharp, else count_smoothed's float."""
    return count_sharp(coeffs, pp, N) if sharp else count_smoothed(coeffs, pp, N)


def predict_main_term(coeffs, pp: PrimePowerModulus, N: float, sharp: bool = False) -> float:
    """Main-term prediction hat(Phi)(0)^3 * C_p * N^3 / q.

    hat(Phi)(0) is the weight's integral over R: 1 for the self-dual Gaussian
    and 2 for the sharp box [-1, 1], so the sharp prediction is 8 times the
    Gaussian one (each coordinate's box holds 2N integers, not N).
    Zero or negative C_p (s_p >= p) makes the prediction vacuous; the value
    is returned as-is, and asymptotic_scan leaves such a report's ratio None.
    An N that check_main_term_N refuses raises ValueError.
    """
    cp = main_constant(coeffs, pp.p)
    check_main_term_N(N)
    return (8.0 if sharp else 1.0) * float(cp) * float(N) ** 3 / pp.q


def check_main_term_N(N: float) -> None:
    """Refuse an N that is negative, NaN or infinite, or whose cube overflows a float, before any work."""
    if not 0 <= N < math.inf:
        raise ValueError("predict requires a finite --N >= 0")
    try:
        float(N) ** 3
    except OverflowError:
        raise ValueError(f"N={N} is too large: N^3 overflows a float") from None


def count_mod_p(coeffs, p: int) -> int:
    """Exact count of unit-coordinate solutions mod a prime p.

    count_sharp at q = p over the box +-(p-1)/2, which holds each unit
    residue mod p exactly once; always equals (p-1)(p - s_p).
    """
    if p > 10**4:
        raise ValueError("exhaustive prime-level scan capped at p <= 10^4")
    return count_sharp(coeffs, PrimePowerModulus(p, 1), (p - 1) // 2)


def sqrt_count_table(pp: PrimePowerModulus) -> np.ndarray:
    """counts[c] = #{x mod q : x^2 = c mod q} for every residue c.

    The histogram of x^2 mod q over x in [0, q), squared and reduced in
    place (x^2 < q^2 <= 1e14 < 2^63), so the peak is 2x the table.
    """
    q = pp.q
    check_table_q(q)
    x = np.arange(q, dtype=np.int64)
    x *= x
    x %= q
    return np.bincount(x, minlength=q)


def count_unit_circle(g1: int, g2: int, pp: PrimePowerModulus) -> int:
    """Number of pairs (x1, x2) mod q with g1 x1^2 + g2 x2^2 = 1 mod q.

    All residue pairs count, units or not; when -g1*g2 is a non-residue
    mod p the value is p^n + p^(n-1).
    """
    p, q = pp.p, pp.q
    if g1 % p == 0 or g2 % p == 0:
        raise ValueError("g1, g2 must be units mod p")
    counts = sqrt_count_table(pp)
    inv2 = mod_inverse(g2, q)
    xs = np.arange(q, dtype=np.int64)
    need = (1 - g1 % q * (xs * xs % q)) % q * inv2 % q
    return int(np.sum(counts[need]))


def _box_minimum(k1: int, k2: int, pp: PrimePowerModulus, M: int):
    """Least (norm, (x1, x2, x3)) over unit solutions with 1 <= x1 <= M and
    |x2|, |x3| <= M, or None; the solutions are x3^2 = k1 x1^2 + k2 x2^2 mod q.

    x2 and x3 enter squared, so only the cells (x1, x2) with x2 in the units
    1..M are joined, and a match r yields (x1, -x2, -r): the least of its four
    sign variants under the (norm, x1, x2, x3) order. Each cell value is looked
    up among the sorted squares of the units r in 1..M. Needs 2M < q, so that
    two different units in 1..M never have equal squares and a cell has at
    most one match. int64 throughout: every factor is reduced below
    q <= TABLE_Q_MAX = 1e7 before a product, so no product reaches
    q^2 <= 1e14 < 2^63.
    """
    p, q = pp.p, pp.q
    xs, sq = unit_squares(p, q, M)
    order = np.argsort(sq)
    roots, keys = xs[order], sq[order]
    t1_all, t2 = k1 * sq % q, k2 * sq % q
    rows = max(1, BOX_BLOCK_CELLS // len(xs))
    best = None
    for start in range(0, len(xs), rows):
        cval = t1_all[start : start + rows, None] + t2
        cval[cval >= q] -= q
        at = np.minimum(np.searchsorted(keys, cval), len(keys) - 1)
        i1, i2 = np.nonzero(keys[at] == cval)
        if len(i1) == 0:
            continue
        a, b, c = xs[start + i1], -xs[i2], -roots[at[i1, i2]]
        norm = np.maximum(np.maximum(a, -b), -c)
        j = np.lexsort((c, b, a, norm))[0]
        cand = (int(norm[j]), (int(a[j]), int(b[j]), int(c[j])))
        if best is None or cand < best:
            best = cand
    return best


def smallest_solution(coeffs, pp: PrimePowerModulus, budget: int = 10**9, spent: int = 0):
    """Minimal max-norm unit solution of the congruence, or None.

    Returns (m, witness) with the witness normalized to x1 >= 0 (hence
    x1 >= 1, as 0 is not a unit) and lexicographically least among the
    max-norm-m solutions; None when p <= s_p (no unit solution mod p, so
    none mod q). Searches the boxes |x_i| <= M from the last box that
    estimate_smallest_work charges, doubling up to M = (q-1)/2, which holds
    every residue triple. The charge sums M (2M + 1) from M = 1 on top of the
    pair visits already spent (by the earlier searches of a batch), and a box
    that takes it over budget is a ValueError before it is searched. Any
    start box is exact: a box holds no solution or every solution of norm
    <= M, so its minimum is the global one.
    """
    p, q = pp.p, pp.q
    c = validate_coeffs(coeffs, p)
    if p - s_p(coeffs, p) <= 0:
        return None
    check_table_q(q)  # the int64 bound of the box search
    inv3 = mod_inverse(c.a3, q)
    k1, k2 = -c.a1 * inv3 % q, -c.a2 * inv3 % q
    first, work = max(_box_sizes(q, _expected_norm(coeffs, pp))), spent
    for M in _box_sizes(q, q):  # work sums M (2M + 1) from M = 1, as the charge does
        if (work := work + M * (2 * M + 1)) > budget and M >= first:
            raise ValueError(f"smallest needs ~{work} pair visits by box {M}, over the budget {budget}")
        if M >= first and (found := _box_minimum(k1, k2, pp, M)) is not None:
            return found
    raise AssertionError("box search overran the residue box")


def _box_sizes(q: int, stop: int):
    """Box sizes 1, 2, 4, ..., cut at (q-1)/2, until one reaches stop or (q-1)/2."""
    cap = (q - 1) // 2
    M = 1
    while True:
        yield M
        if M >= min(stop, cap):
            return
        M = min(2 * M, cap)


def _expected_norm(coeffs, pp: PrimePowerModulus) -> int:
    """m_est = ceil((q / C_p)^(1/3)), C_p floored at 0.05: where C_p m^3 / q reaches 1."""
    cp = float(main_constant(coeffs, pp.p))
    return int(math.ceil((pp.q / max(cp, 0.05)) ** (1 / 3)))


def estimate_smallest_work(coeffs, pp: PrimePowerModulus, m: int = 0) -> int:
    """(x1, x2) pairs M (2M + 1) summed over the boxes M = 1, 2, 4, ... up to max(m, m_est).

    m_est is _expected_norm, where the main term C_p m^3 / q reaches 1. The
    search starts at the last of the boxes up to m_est, so the charge bounds
    the first box it joins (at most M^2 cells); with m the minimum it found,
    the sum is what the finished search charged. 0 when C_p <= 0, as no
    search runs then; otherwise a q over TABLE_Q_MAX is refused, as the search
    refuses it.
    """
    if main_constant(coeffs, pp.p) <= 0:
        return 0
    check_table_q(pp.q)
    return sum(M * (2 * M + 1) for M in _box_sizes(pp.q, max(m, _expected_norm(coeffs, pp))))


def estimate_count_work(N: float, sharp: bool = False) -> int:
    """Pair visits floor(r N)^2 of one count, r = GAUSSIAN_TAIL_RADIUS (1 if sharp).

    Refuses, before any work, the N that count refuses: a non-finite N, N < 1
    (Gaussian) or N < 0 (sharp), a box r N past the largest float, and one
    past TABLE_Q_MAX.
    """
    low = 0 if sharp else 1
    if not low <= N < math.inf:
        raise ValueError(f"count requires a finite N >= {low}, got {N}")
    radius = 1.0 if sharp else GAUSSIAN_TAIL_RADIUS
    if radius * N == math.inf:
        raise ValueError(f"count box {radius:g} * N overflows a float")
    if radius * N > TABLE_Q_MAX:
        raise ValueError(f"box half-width {radius * N} exceeds the table budget")
    return int(radius * N) ** 2


def estimate_scan_work(p: int, n_values, theta: float, sharp: bool = False) -> int:
    """Pair visits the scan will perform: estimate_count_work at N = ceil(q^theta) per n.

    Checks theta and each modulus, against Q_MAX and TABLE_Q_MAX, first, so a
    bad scan is refused before any count.
    """
    if not 0.5 < theta <= 1.0:
        raise ValueError("theta must lie in (0.5, 1]")
    qs = [PrimePowerModulus(p, n).q for n in n_values]
    for q in qs:
        check_table_q(q)
    return sum(estimate_count_work(math.ceil(q**theta), sharp) for q in qs)


def asymptotic_scan(coeffs, p: int, n_values, theta: float, sharp: bool = False) -> list:
    """CountReports of count at N = ceil(q^theta) for each n; the caller charges the work.

    No n is read past the first modulus over Q_MAX, and a bad theta, q or box
    is refused, as estimate_scan_work refuses it, before any count.
    """
    moduli = [PrimePowerModulus(p, n) for n in n_values]
    estimate_scan_work(p, [pp.n for pp in moduli], theta, sharp)
    reports = []
    for pp in moduli:
        N = math.ceil(pp.q**theta)
        observed = float(count(coeffs, pp, N, sharp))
        predicted = predict_main_term(coeffs, pp, N, sharp)
        ratio = observed / predicted if predicted > 0 else None
        reports.append(CountReport(pp, N, observed, predicted, ratio))
    return reports


def poisson_selfcheck(scale: float) -> float:
    """|sum_m Phi(m/scale) - scale * sum_m Phi(scale m)| for the Gaussian Phi(x) = exp(-pi x^2).

    Both sides are truncated where the tails drop below double precision;
    the summation-formula defect is ~1e-15 at any scale. A scale that is not
    finite and positive is refused, and so is one whose wider side,
    ceil(6 * max(scale, 1/scale)) + 1 terms each way, passes TABLE_Q_MAX.
    """
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be finite and positive, got {scale}")
    # ceil(r) + 1 > TABLE_Q_MAX exactly when r > TABLE_Q_MAX - 1; an inf r is refused before ceil
    if GAUSSIAN_TAIL_RADIUS * max(scale, 1 / scale) > TABLE_Q_MAX - 1:
        raise ValueError(f"poisson_selfcheck at scale {scale} exceeds the table budget")
    lhs_half = math.ceil(GAUSSIAN_TAIL_RADIUS * scale) + 1
    rhs_half = math.ceil(GAUSSIAN_TAIL_RADIUS / scale) + 1
    m = np.arange(-lhs_half, lhs_half + 1)
    lhs = math.fsum(_gaussian(m / scale))
    k = np.arange(-rhs_half, rhs_half + 1)
    rhs = scale * math.fsum(_gaussian(scale * k))
    return abs(lhs - rhs)
