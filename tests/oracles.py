"""Independent brute-force oracles used to pin expected values.

Everything here enumerates naively (full loops or numpy meshes) and stays
deliberately independent of the library's progression/table kernels.
"""

import math

import numpy as np


def brute_count_triples(coeffs, p, q, N):
    """Plain triple loop: unit solutions of the congruence with |x_i| <= N."""
    a1, a2, a3 = coeffs
    total = 0
    for x1 in range(-N, N + 1):
        if x1 % p == 0:
            continue
        for x2 in range(-N, N + 1):
            if x2 % p == 0:
                continue
            base = a1 * x1 * x1 + a2 * x2 * x2
            for x3 in range(-N, N + 1):
                if x3 % p == 0:
                    continue
                if (base + a3 * x3 * x3) % q == 0:
                    total += 1
    return total


def brute_count_triples_mesh(coeffs, p, q, N):
    """Same count via a numpy mesh, chunked over x1."""
    a1, a2, a3 = coeffs
    xs = np.arange(-N, N + 1, dtype=np.int64)
    unit = xs % p != 0
    sq = xs * xs % q
    res23 = (a2 * sq[None, :] + a3 * sq[:, None]) % q  # [x3, x2]
    mask23 = unit[:, None] & unit[None, :]
    total = 0
    for i in range(len(xs)):
        if not unit[i]:
            continue
        need = (-a1 * sq[i]) % q
        total += int(np.count_nonzero((res23 == need) & mask23))
    return total


def brute_smoothed_mesh(coeffs, p, q, N, radius=6.0):
    """Gaussian-weighted count via a numpy mesh, chunked over x1."""
    a1, a2, a3 = coeffs
    T = int(radius * N)
    xs = np.arange(-T, T + 1, dtype=np.int64)
    unit = xs % p != 0
    w = np.where(unit, np.exp(-np.pi * (xs / N) ** 2), 0.0)
    sq = xs * xs % q
    res23 = (a2 * sq[None, :] + a3 * sq[:, None]) % q
    w23 = w[:, None] * w[None, :]
    total = 0.0
    for i in range(len(xs)):
        if not unit[i]:
            continue
        need = (-a1 * sq[i]) % q
        total += w[i] * float(np.sum(w23[res23 == need]))
    return total


def brute_pair_solutions(coeffs, p, q, units_only=True):
    a1, a2, a3 = coeffs
    out = set()
    for y1 in range(q):
        for y2 in range(q):
            if (a1 * y1 * y1 + a2 * y2 * y2 + a3) % q == 0:
                if not units_only or (y1 % p and y2 % p):
                    out.add((y1, y2))
    return out


def brute_unit_circle(g1, g2, q):
    return sum(
        1
        for x1 in range(q)
        for x2 in range(q)
        if (g1 * x1 * x1 + g2 * x2 * x2 - 1) % q == 0
    )


def brute_base_point(coeffs, p):
    """Lexicographically least (a, b) mod p with a1 a^2 + a2 b^2 + a3 = 0 mod p
    and both coordinates units; the least solution at all when none is."""
    a1, a2, a3 = coeffs
    sols = [(a, b) for a in range(p) for b in range(p) if (a1 * a * a + a2 * b * b + a3) % p == 0]
    return ([s for s in sols if s[0] and s[1]] or sols)[0]


def brute_smallest(coeffs, p, q, cap=512):
    """Exhaustive minimal max-norm unit solution by growing mesh boxes.

    Returns (m, witness with x1 >= 1, lexicographically least) or None when
    nothing exists within the cap.
    """
    a1, a2, a3 = coeffs
    N = 4
    while N <= cap:
        xs = np.arange(-N, N + 1, dtype=np.int64)
        unit = xs % p != 0
        sq = xs * xs % q
        res23 = (a2 * sq[None, :] + a3 * sq[:, None]) % q  # [x3, x2]
        mask23 = unit[:, None] & unit[None, :]
        best = None
        for i, x1 in enumerate(xs):
            if x1 < 1 or not unit[i]:
                continue
            hit = (res23 == (-a1 * sq[i]) % q) & mask23
            if not hit.any():
                continue
            i3, i2 = np.nonzero(hit)
            for a_, b_ in zip(i3, i2):
                cand = (int(x1), int(xs[b_]), int(xs[a_]))
                norm = max(abs(v) for v in cand)
                if best is None or (norm, cand) < best:
                    best = (norm, cand)
        if best is not None:
            return best
        N *= 2
    return None


def brute_equation_count(A, B, C, x):
    return sum(
        1
        for X in range(-x, x + 1)
        for Y in range(-x, x + 1)
        if A * X * X + B * Y * Y == C
    )


def brute_count_F(b1, b2, X, q):
    return sum(
        1
        for A1 in range(-X, X + 1)
        for A2 in range(-X, X + 1)
        if A1 and A2 and (b1 * A1 - b2 * A2) % q == 0
    )


def direct_exp_sum(fvals, q):
    """sum of e(v/q) over an iterable of integer values, via math.fsum."""
    re = []
    im = []
    for v in fvals:
        ang = 2.0 * math.pi * (v % q) / q
        re.append(math.cos(ang))
        im.append(math.sin(ang))
    return complex(math.fsum(re), math.fsum(im))


def root_multiplicity_mod_p(coeffs, alpha, p):
    """How many times x - alpha divides the ascending integer polynomial coeffs mod p,
    by repeated synthetic division; coeffs must not vanish mod p."""
    c = [x % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    assert c, "the zero polynomial mod p"
    mult = 0
    while True:
        acc, quot = 0, []
        for x in reversed(c):  # quotient coefficients from the top, then the remainder
            acc = (acc * alpha + x) % p
            quot.append(acc)
        if quot.pop() != 0:
            return mult
        c = quot[::-1]
        mult += 1


def horner_mod(coeffs, xs, q):
    """The values mod q of the ascending integer polynomial coeffs at each x of xs, one by one."""
    out = []
    for x in map(int, xs):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % q
        out.append(acc)
    return out


def prime_powers_upto(limit, p_min=3):
    """All odd prime powers p^n <= limit as (p, n) pairs."""
    def is_prime(m):
        if m < 2:
            return False
        for d in range(2, int(math.isqrt(m)) + 1):
            if m % d == 0:
                return False
        return True

    out = []
    for p in range(p_min, limit + 1, 2):
        if not is_prime(p):
            continue
        n, q = 1, p
        while q <= limit:
            out.append((p, n))
            n += 1
            q *= p
    return out


def brute_dual_coefficient(coeffs, k, p, q):
    """C(k;q): the sum over the unit solutions y of the congruence of e(k.y / q), by a numpy mesh.

    For each unit pair (y1, y2) the unit y3 that complete it are read from a q-entry table,
    T[r] = sum over the unit y3 with a3 y3^2 + r = 0 mod q of e(k3 y3 / q).
    """
    a1, a2, a3 = coeffs
    k1, k2, k3 = k
    ys = np.array([y for y in range(q) if y % p], dtype=np.int64)
    table = np.zeros(q, complex)
    np.add.at(table, (-a3 * ys * ys) % q, np.exp(2j * np.pi * (k3 * ys % q) / q))
    r = (a1 * ys[:, None] ** 2 + a2 * ys[None, :] ** 2) % q
    phase = np.exp(2j * np.pi * ((k1 * ys[:, None] + k2 * ys[None, :]) % q) / q)
    return complex(np.sum(phase * table[r]))
