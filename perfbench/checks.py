"""Output checks: every CLI output against an oracle or a law.

Nothing here imports conic_lab, so no check shares code with what is timed.
Exact integers are compared exactly. Floats are compared to the 1e-12
relative tolerance the repository's tests use for smoothed counts, widened
by the 5e-12 rounding of the CLI's 12-significant-digit output. Each check
returns None when the output is right and a one-line reason otherwise.
"""

import csv
import math
from fractions import Fraction

import numpy as np

FLOAT_RTOL = 1e-11
EXPSUM_RTOL = 1e-6
SMALLEST_ORACLE_MAX = 400  # largest shell radius the mesh oracle will search


def _rows(text: str):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _close(got: float, want: float, rtol: float = FLOAT_RTOL) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _unit_residues(p: int, count: int):
    """The units 1..count mod p."""
    x = np.arange(1, count + 1, dtype=np.int64)
    return x[x % p != 0]


def s_p_brute(coeffs, p: int) -> int:
    """s_p from the prime-level law #unit solutions mod p = (p-1)(p - s_p)."""
    a1, a2, a3 = coeffs
    found = sum(
        1
        for x1 in range(1, p)
        for x2 in range(1, p)
        for x3 in range(1, p)
        if (a1 * x1 * x1 + a2 * x2 * x2 + a3 * x3 * x3) % p == 0
    )
    return p - found // (p - 1)


def gaussian_count(coeffs, p: int, q: int, N: int, radius: float = 6.0) -> float:
    """Gaussian-weighted unit solution count in the box |x_i| <= floor(radius N).

    Dual-side evaluation: the count is (1/q) sum_h prod_i F_i(h), where F_i is
    the DFT over Z/q of the weighted histogram of a_i x^2 mod q.
    """
    x = _unit_residues(p, math.floor(radius * N))
    w = np.exp(-np.pi * np.square(x / N))
    sq = x * x % q
    prod = np.ones(q, dtype=np.complex128)
    for a in coeffs:
        prod *= np.fft.fft(2.0 * np.bincount(a % q * sq % q, weights=w, minlength=q))
    return float(prod.sum().real / q)


def sharp_count(coeffs, p: int, q: int, N: int) -> int:
    """Exact unit solution count in |x_i| <= N: pairs (x1, x2) against a histogram of a3 x3^2."""
    sq = _unit_residues(p, N) ** 2 % q
    a1, a2, a3 = (a % q for a in coeffs)
    hist3 = np.bincount(a3 * sq % q, minlength=q)
    t2 = a2 * sq % q
    total = sum(int(hist3[(-(t1 + t2)) % q].sum()) for t1 in a1 * sq % q)
    return 8 * total  # independent sign choices of x1, x2, x3


def pair_count(coeffs, p: int, q: int, units_only: bool) -> int:
    """#{(y1, y2) mod q : a1 y1^2 + a2 y2^2 + a3 = 0}, units only or all pairs."""
    y = np.arange(q, dtype=np.int64)
    if units_only:
        y = y[y % p != 0]
    sq = y * y % q
    a1, a2, a3 = (a % q for a in coeffs)
    h1 = np.bincount(a1 * sq % q, minlength=q)
    h2 = np.bincount(a2 * sq % q, minlength=q)
    return int(h1 @ h2[(-a3 - np.arange(q)) % q])


def countf_brute(b1: int, b2: int, X: int, q: int) -> int:
    """#{0 < |A1|, |A2| <= X : b1 A1 = b2 A2 mod q} from a residue histogram of A1."""
    a = np.concatenate([np.arange(-X, 0), np.arange(1, X + 1)]).astype(np.int64)
    hist = np.bincount(a % q, minlength=q)
    ratio = b2 * pow(b1, -1, q) % q
    return int(hist[ratio * a % q].sum())


def smallest_brute(coeffs, p: int, q: int, limit: int):
    """(m, witness): least max-norm of a unit solution with |x_i| <= limit, and
    the lexicographically least witness of that norm with x1 >= 1; None if none."""
    a1, a2, a3 = (a % q for a in coeffs)
    r = np.arange(-limit, limit + 1, dtype=np.int64)
    sq = r * r % q
    grid = (a2 * sq % q)[:, None] + (a3 * sq % q)[None, :]  # rows x2, columns x3
    units = (r % p != 0)[:, None] & (r % p != 0)[None, :]
    norm23 = np.maximum(np.abs(r)[:, None], np.abs(r)[None, :])
    best = None
    for x1 in range(1, limit + 1):
        if x1 % p == 0 or (best is not None and x1 > best[0]):
            continue
        hit = units & ((grid + a1 * (x1 * x1 % q)) % q == 0)
        if not hit.any():
            continue
        norms = np.maximum(norm23, x1)
        m = int(norms[hit].min())
        if best is None or m < best[0]:
            i, j = np.argwhere(hit & (norms == m))[0]  # row-major: least x2, then x3
            best = (m, (x1, int(r[i]), int(r[j])))
    return best


def check_scan(job, rows):
    p, theta, coeffs = job.params["p"], job.params["theta"], job.params["coeffs"]
    if [int(row["n"]) for row in rows] != list(job.params["n"]):
        return "scan rows do not cover the n range"
    cp = Fraction((p - s_p_brute(coeffs, p)) * (p - 1), p * p)
    for row in rows:
        q = p ** int(row["n"])
        N = math.ceil(q**theta)
        if int(row["q"]) != q or int(row["N"]) != N:
            return f"n={row['n']}: q or N is wrong"
        observed, want = float(row["observed"]), gaussian_count(coeffs, p, q, N)
        if not _close(observed, want):
            return f"n={row['n']}: observed {observed} != dual-side count {want}"
        predicted = float(row["predicted"])
        if not _close(predicted, float(cp * N**3 / q)):
            return f"n={row['n']}: predicted {predicted} != C_p N^3/q"
        if not _close(float(row["ratio"]), observed / predicted):
            return f"n={row['n']}: ratio is not observed/predicted"
    return None


def check_smallest(job, rows):
    p, coeffs = job.params["p"], job.params["coeffs"]
    q = p ** job.params["n"]
    (row,) = rows
    m = int(row["m"])
    if m == 0:
        return None if s_p_brute(coeffs, p) >= p else "m=0 but unit solutions exist mod p"
    if m > SMALLEST_ORACLE_MAX:
        return f"m={m} is beyond the oracle's search box"
    witness = (int(row["x1"]), int(row["x2"]), int(row["x3"]))
    want = smallest_brute(coeffs, p, q, m)
    if want != (m, witness):
        return f"got m={m} witness {witness}, brute force gives {want}"
    return None


def check_param(job, rows):
    p, n, coeffs, tag = (job.params[k] for k in ("p", "n", "coeffs", "tag"))
    q = p**n
    (row,) = rows
    size = pair_count(coeffs, p, q, units_only=tag != "CaseII")
    if row["case"] != tag:
        return f"case {row['case']} != {tag}"
    if tag == "CaseII" and size != q + q // p:
        return f"Case II solution count {size} != p^n + p^(n-1)"
    if int(row["family_size"]) != size or int(row["expected_size"]) != size:
        return f"family/expected size {row['family_size']}/{row['expected_size']} != {size}"
    if row["matches_enumeration"] != "1":
        return "family does not match the enumeration"
    return None


def check_expsum(job, rows):
    if len(rows) != job.params["count"]:
        return f"{len(rows)} rows, expected {job.params['count']}"
    for row in rows:
        if row["status"] == "ok":
            if not float(row["rel_err"]) < EXPSUM_RTOL:
                return f"closed form off by {row['rel_err']}"
        elif row["status"] != "unsupported" or row["rel_err"] != "":
            return f"row status {row['status']!r}"
    return None


def check_dioph(job, rows):
    (row,) = rows
    want = countf_brute(*(job.params[k] for k in ("b1", "b2", "X", "q")))
    return None if int(row["result"]) == want else f"count_F {row['result']} != {want}"


def check_count(job, rows):
    p, coeffs, N = job.params["p"], job.params["coeffs"], job.params["N"]
    (row,) = rows
    want = sharp_count(coeffs, p, p ** job.params["n"], N)
    return None if int(row["observed"]) == want else f"sharp count {row['observed']} != {want}"


def check_selftest(job, rows):
    failed = [row["check"] for row in rows if row["status"] != "pass"]
    return f"selftest failed: {failed}" if failed or not rows else None


CHECKS = {
    "scan": check_scan,
    "smallest": check_smallest,
    "param-check": check_param,
    "expsum-check": check_expsum,
    "dioph": check_dioph,
    "count": check_count,
    "selftest": check_selftest,
}


def check(job, result):
    """None if one invocation's (exit code, stdout, stderr) is right, else why not."""
    code, out, err = result
    if code != 0:
        return f"exit {code}: {err.strip()[-200:]}"
    try:
        rows = _rows(out)
        if any(row.get("schema_version") != "1" for row in rows):
            return "schema_version is not 1"
        return CHECKS[job.kind](job, rows)
    except (KeyError, ValueError, TypeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
