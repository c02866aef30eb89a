import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conic_lab import census, cli, conic, expsum, modcore
from conic_lab.modcore import PrimePowerModulus, jacobi, s_p
from conic_lab.census import (
    _float_sum,
    asymptotic_scan,
    count,
    count_mod_p,
    count_sharp,
    count_smoothed,
    count_unit_circle,
    estimate_count_work,
    estimate_scan_work,
    estimate_smallest_work,
    poisson_selfcheck,
    predict_main_term,
    smallest_solution,
    sqrt_count_table,
)

import oracles


def test_sharp_prediction_is_eight_times_gaussian():
    # hat(0) is 2 for the box [-1, 1] and 1 for the Gaussian, cubed over three coordinates
    for coeffs, p, n, N in [((1, 1, -1), 7, 4, 100), ((1, 2, 3), 5, 3, 7.5), ((2, 5, 5), 11, 2, 13)]:
        pp = PrimePowerModulus(p, n)
        assert predict_main_term(coeffs, pp, N, sharp=True) == 8 * predict_main_term(coeffs, pp, N)
    # the box N = (q-1)/2 holds each residue once, so it counts C_p q^2 = C_p (2N+1)^3 / q exactly
    pp = PrimePowerModulus(7, 2)
    N = (pp.q - 1) // 2
    count = count_sharp((1, 2, 3), pp, N)
    assert count == modcore.main_constant((1, 2, 3), 7) * (2 * N + 1) ** 3 / pp.q
    assert predict_main_term((1, 2, 3), pp, N, sharp=True) == pytest.approx(count * (2 * N / (2 * N + 1)) ** 3)


def test_count_sharp_examples():
    pp71 = PrimePowerModulus(7, 1)
    assert count_sharp((1, 1, -1), pp71, 3) == 24
    assert count_sharp((1, 1, -1), pp71, 0) == 0
    # the (3,4,5) family is inside the N=5 box mod 49
    pp72 = PrimePowerModulus(7, 2)
    assert count_sharp((1, 1, -1), pp72, 5) == oracles.brute_count_triples((1, 1, -1), 7, 49, 5)
    # count picks count_sharp when sharp, and keeps its exact int
    v = count((1, 1, -1), pp72, 5.5, sharp=True)
    assert type(v) is int and v == count_sharp((1, 1, -1), pp72, 5)


def test_count_sharp_vs_brute_sweep():
    rng = random.Random(10)
    for _ in range(25):
        p = rng.choice([3, 5, 7, 11, 13])
        n = rng.randint(1, 3)
        pp = PrimePowerModulus(p, n)
        if pp.q > 2200:
            continue
        coeffs = tuple(rng.choice([1, -1]) * rng.randrange(1, p) for _ in range(3))
        N = rng.randint(0, 30)
        assert count_sharp(coeffs, pp, N) == oracles.brute_count_triples_mesh(coeffs, p, pp.q, N)
    # Residue patterns, in boxes whose classes (rows x columns) join class by class:
    # Case I (s_p = 3), Case II (s_p = -1) and mixed (s_p = 3) mod 7^2, N = 200 > q;
    # the vacuous (1,1,-1) mod 5^2 (s_p = p), which admits no column and counts 0;
    # q = p; and the boxes N >= q/2, where bins reach 2, and N > q.
    for coeffs, p, n, N, tag in [((1, 1, -1), 7, 2, 200, conic.CASE_I), ((1, 1, 1), 7, 2, 200, conic.CASE_II),
                                 ((6, 1, 1), 7, 2, 200, "mixed"), ((1, 1, -1), 5, 2, 170, conic.CASE_I),
                                 ((2, 3, 5), 13, 1, 6, None), ((1, 2, 3), 7, 2, 25, None),
                                 ((3, 4, 6), 5, 2, 40, None), ((1, 2, 2), 3, 3, 150, None)]:
        pp = PrimePowerModulus(p, n)
        assert tag is None or conic.case_tag(coeffs, p) == tag
        want = oracles.brute_count_triples_mesh(coeffs, p, pp.q, N)
        assert count_sharp(coeffs, pp, N) == want, (coeffs, p, n, N)
        assert want > 0 or s_p(coeffs, p) >= p


@pytest.mark.parametrize("p, n, k", [(7, 1, 130), (5, 1, 140), (5, 2, 130)])
def test_count_sharp_periodicity_law(p, n, k):
    # N = k q + (q-1)/2: the box [-N, N] holds (2k+1) q consecutive integers,
    # so it covers each residue 2k+1 times and the count scales by (2k+1)^3.
    # A unit square's two roots r and q - r are hit k+1 and k times in 1..N,
    # so a bin holds 2k+1 > 255 values and the table must be wider than uint8.
    pp = PrimePowerModulus(p, n)
    half = (pp.q - 1) // 2
    units = [a for a in range(-pp.q + 1, pp.q) if a % p]
    rng = random.Random(p * k)
    # three drawn triples, one of each residue pattern mod p, and (1,1,-1),
    # vacuous at p = 5 (s_p = p)
    drawn = [tuple(rng.choice(units) for _ in range(3)) for _ in range(3)]
    patterns = {conic.case_tag(t, p): t for t in itertools.product(range(1, p), repeat=3)}
    for coeffs in drawn + sorted(patterns.values()) + [(1, 1, -1)]:
        want = (2 * k + 1) ** 3 * count_sharp(coeffs, pp, half)
        assert count_sharp(coeffs, pp, k * pp.q + half) == want
        if n == 1:
            assert want == (2 * k + 1) ** 3 * count_mod_p(coeffs, p)


def test_count_sharp_large_modulus_memory(capsys):
    # the sharp count of the benchmark's verify batch (seed 1): 7^7, N = 4677
    coeffs, pp, N = (574975, 243455, 538729), PrimePowerModulus(7, 7), 4677
    tracemalloc.start()
    try:
        got = count_sharp(coeffs, pp, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == 971096  # as counted by the earlier int64-table kernel
    argv = ["count", "--p", "7", "--n", "7", "--coeffs", "574975,243455,538729",
            "--N", str(N), "--sharp"]
    assert cli.run(argv) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[8] == str(got)
    # a uint8 table of 2q entries (1.6 MB), laid out by residue class mod p,
    # and 2^16-cell row blocks; the int64 table was 13 MB
    assert peak < 4 * 10**6


_SHARP_MODULI = [(p, n) for p in (3, 5, 7, 11, 13) for n in (1, 2, 3) if p**n <= 7**3]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SHARP_MODULI), st.data())
def test_count_sharp_invariant_under_permutation_and_scaling(pn, data):
    # Each order of (a1, a2, a3) puts another coefficient in the table and
    # admits other class pairs; a unit lambda mod q scales the congruence.
    p, n = pn
    pp = PrimePowerModulus(p, n)
    unit = st.integers(1, pp.q - 1).filter(lambda a: a % p != 0)
    coeffs = (data.draw(unit), data.draw(unit), data.draw(unit))
    lam, N = data.draw(unit), data.draw(st.integers(0, 2 * pp.q))
    want = count_sharp(coeffs, pp, N)
    for perm in itertools.permutations(coeffs):
        assert count_sharp(perm, pp, N) == want, perm
    assert count_sharp(tuple(lam * a % pp.q for a in coeffs), pp, N) == want


def test_count_sharp_monotone_in_N():
    pp = PrimePowerModulus(7, 2)
    last = 0
    for N in range(0, 60, 7):
        cur = count_sharp((1, 2, 3), pp, N)
        assert cur >= last
        last = cur


def test_count_smoothed_examples():
    pp71 = PrimePowerModulus(7, 1)
    v = count_smoothed((1, 1, -1), pp71, 3)
    assert type(v) is float and 0 < v < 24
    assert type(count_sharp((1, 1, -1), pp71, 3)) is int
    # count picks count_smoothed by default, and keeps its float
    w = count((1, 1, -1), pp71, 3)
    assert type(w) is float and w == v


def test_count_smoothed_vs_brute():
    rng = random.Random(11)
    for _ in range(6):
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 2)
        pp = PrimePowerModulus(p, n)
        coeffs = tuple(rng.choice([1, -1]) * rng.randrange(1, p) for _ in range(3))
        N = rng.randint(1, 4)
        got = count_smoothed(coeffs, pp, N)
        want = oracles.brute_smoothed_mesh(coeffs, p, pp.q, N)
        assert abs(got - want) <= 1e-12 * max(1.0, want)
    # larger moduli: the box half-width floor(6 N) stays below q, so the
    # residue histograms do not wrap (the small-q cases above do)
    for (p, n) in [(3, 5), (5, 3), (7, 3), (11, 2)]:
        pp = PrimePowerModulus(p, n)
        coeffs = tuple(rng.choice([1, -1]) * rng.randrange(1, p) for _ in range(3))
        N = rng.randint(5, 12)
        got = count_smoothed(coeffs, pp, N)
        want = oracles.brute_smoothed_mesh(coeffs, p, pp.q, N)
        assert abs(got - want) <= 1e-12 * max(1.0, want), (p, n, coeffs, N)


FINITE = st.floats(allow_nan=False, allow_infinity=False)  # subnormals included
BLOCK = 1 << 15  # _float_sum's block length


@settings(max_examples=300, deadline=None)
@given(st.lists(FINITE, max_size=30), FINITE, st.sampled_from([0, 7, BLOCK - 3, BLOCK + 1, 3 * BLOCK]), st.data())
def test_float_sum_equals_fsum(xs, fill, gap, data):
    # xs, then gap copies of fill, then the negation of a prefix of xs: the
    # cancelling terms land in another block once gap crosses the block length
    cut = data.draw(st.integers(0, len(xs)), label="cut")
    x = np.concatenate([xs, np.full(gap, fill), np.negative(xs[:cut])])
    try:
        want = math.fsum(x)
    except OverflowError:
        return  # an overflowing sum has no float value to match
    got = _float_sum(x)
    assert got.hex() == want.hex() or got == want == 0.0  # the sign of a zero total is not pinned


def test_float_sum_worst_case_bins():
    # Full blocks at one exponent of the largest mantissa 2^53 - 1: the per-bin
    # partial sums of hi and lo reach their stated bound 2^27 * 2^15.
    rng = np.random.default_rng(15)
    top = 1.0 - 2.0**-53
    for e in (-1021, -60, 0, 52, 1000):
        for signs in (np.ones(BLOCK), -np.ones(2 * BLOCK + 1), rng.choice([-1.0, 1.0], 3 * BLOCK)):
            x = signs * math.ldexp(top, e)
            assert _float_sum(x).hex() == math.fsum(x).hex(), (e, len(x))


def test_float_sum_refuses_non_finite_terms():
    for bad in (math.nan, math.inf, -math.inf):
        for at in (0, BLOCK + 5):  # in the first block and in a later one
            x = np.ones(2 * BLOCK)
            x[at] = bad
            with pytest.raises(ValueError, match="non-finite"):
                _float_sum(x)


def test_count_smoothed_nan_spectrum_raises(monkeypatch):
    # A NaN spectrum must not come back as a NaN count. NaN, not inf: inf * 0
    # in the spectrum product would warn before the sum is reached.
    monkeypatch.setattr(np.fft, "rfft", lambda h: np.full(len(h) // 2 + 1, complex(math.nan, 0.0)))
    with pytest.raises(ValueError, match="non-finite"):
        count_smoothed((1, 2, 3), PrimePowerModulus(7, 3), 15)


def test_predict_examples(capsys):
    pp74 = PrimePowerModulus(7, 4)
    assert abs(predict_main_term((1, 1, -1), pp74, 100) - (24 / 49) * 1e6 / 2401) < 1e-9
    assert predict_main_term((1, 1, -1), pp74, 0, sharp=True) == 0
    # predict_main_term refuses the N the predict subcommand refuses: a negative N once gave a
    # negative prediction, and NaN a NaN one
    for N in (-5, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite --N >= 0"):
            predict_main_term((1, 2, 3), PrimePowerModulus(7, 2), N)
    with pytest.raises(ValueError, match="overflows"):
        predict_main_term((1, 2, 3), PrimePowerModulus(7, 2), 1e200)
    # C_p = 0 at p = 5 (s_p = p): the prediction is vacuous
    for p, vacuous in ((5, "true"), (7, "false")):
        argv = ["predict", "--p", str(p), "--n", "1", "--coeffs", "1,1,-1", "--N", "3", "--format", "jsonl"]
        assert cli.run(argv) == 0
        assert f'"vacuous": {vacuous}' in capsys.readouterr().out


def test_count_mod_p_examples_and_law():
    assert count_mod_p((1, 1, -1), 7) == 24
    assert count_mod_p((1, 1, 1), 7) == 48
    assert count_mod_p((1, 1, -1), 5) == 0
    rng = random.Random(12)
    for _ in range(60):
        p = rng.choice([3, 5, 7, 11, 13, 17])
        coeffs = tuple(rng.randrange(1, p) for _ in range(3))
        assert count_mod_p(coeffs, p) == (p - 1) * (p - s_p(coeffs, p))
    with pytest.raises(ValueError):
        count_mod_p((1, 1, 1), 9)  # composite moduli are not prime levels


def test_sqrt_count_table():
    for (p, n) in [(3, 1), (3, 3), (5, 2), (7, 2), (7, 3)]:
        pp = PrimePowerModulus(p, n)
        tab = sqrt_count_table(pp)
        for c in range(pp.q):
            assert tab[c] == len(oracles.brute_sqrt_roots(c, pp.q)), (p, n, c)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from([(3, 1), (3, 5), (5, 3), (7, 3), (11, 2), (13, 3), (101, 2)]), st.data())
def test_sqrt_counts_property(pn, data):
    # a unit has 2 square roots mod p^n if it is a residue mod p, else none
    pp = PrimePowerModulus(*pn)
    p, q = pp.p, pp.q
    tab = sqrt_count_table(pp)
    c = np.arange(q)
    units = c % p != 0
    want = np.where(modcore.legendre_table(p)[c % p] == 1, 2, 0)
    assert np.array_equal(tab[units], want[units])
    a = data.draw(st.integers(1, q - 1).filter(lambda a: a % p))
    root = modcore.sqrt_mod_prime_power(a, pp)
    if jacobi(a, p) == 1:
        assert root * root % q == a
    else:
        assert root is None


def test_table_builders_peak_memory():
    # the builder holds one q-entry temporary beside its q-entry table
    pp = PrimePowerModulus(101, 3)
    tracemalloc.start()
    try:
        tab = sqrt_count_table(pp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tab) == pp.q
    assert peak <= 2.2 * tab.nbytes, peak / tab.nbytes


def test_count_unit_circle():
    assert count_unit_circle(1, 1, PrimePowerModulus(3, 1)) == 4
    assert count_unit_circle(1, 1, PrimePowerModulus(3, 2)) == 12
    # every unit pair, both classes of -g1*g2; in the residue case the
    # proposition is silent and the oracle decides
    for (p, n) in [(5, 1), (7, 1), (3, 2), (11, 1), (5, 2), (3, 3)]:
        pp = PrimePowerModulus(p, n)
        units = [g for g in range(1, pp.q) if g % p]
        classes = set()
        for g1 in units:
            for g2 in units:
                classes.add(jacobi(-g1 * g2, p))
                want = oracles.brute_unit_circle(g1, g2, pp.q)
                assert count_unit_circle(g1, g2, pp) == want, (pp.q, g1, g2)
        assert classes == {1, -1}, pp.q
    pp71 = PrimePowerModulus(7, 1)
    with pytest.raises(ValueError):
        count_unit_circle(7, 1, pp71)


def test_count_unit_circle_proposition_sweep():
    rng = random.Random(13)
    done = 0
    while done < 40:
        p = rng.choice([3, 7, 11])
        n = rng.randint(1, 4)
        pp = PrimePowerModulus(p, n)
        g1, g2 = rng.randrange(1, pp.q), rng.randrange(1, pp.q)
        if g1 % p == 0 or g2 % p == 0 or jacobi(-g1 * g2, p) != -1:
            continue
        assert count_unit_circle(g1, g2, pp) == pp.q + pp.q // p
        done += 1


def test_smallest_solution_examples():
    got = smallest_solution((1, 1, -1), PrimePowerModulus(7, 2))
    assert got is not None
    m, (x1, x2, x3) = got
    assert m == 5 and sorted((abs(x1), abs(x2), abs(x3))) == [3, 4, 5]
    assert x1 >= 1
    assert smallest_solution((1, 1, -1), PrimePowerModulus(5, 1)) is None
    # postcondition on an arbitrary solvable instance
    n, w = smallest_solution((2, 3, 5), PrimePowerModulus(11, 2))
    assert (2 * w[0] ** 2 + 3 * w[1] ** 2 + 5 * w[2] ** 2) % 121 == 0
    assert max(abs(v) for v in w) == n


def test_smallest_solution_vs_brute():
    rng = random.Random(14)
    done = 0
    while done < 12:
        p = rng.choice([3, 7, 11, 13])
        n = rng.randint(1, 3)
        pp = PrimePowerModulus(p, n)
        if pp.q > 2500:
            continue
        coeffs = tuple(rng.choice([1, -1]) * rng.randrange(1, p) for _ in range(3))
        want = oracles.brute_smallest(coeffs, p, pp.q)
        got = smallest_solution(coeffs, pp)
        if want is None:
            assert got is None
        else:
            assert got == want
        done += 1


def test_smallest_solution_large_moduli():
    pp = PrimePowerModulus(7, 6)
    want = (150, (131, -150, -136))
    assert oracles.brute_smallest((1, 2, 3), 7, pp.q) == want
    assert smallest_solution((1, 2, 3), pp) == want
    pp = PrimePowerModulus(101, 3)
    want = (421, (384, -419, -421))
    assert oracles.brute_smallest((1, 2, 3), 101, pp.q) == want
    tracemalloc.start()
    try:
        got = smallest_solution((1, 2, 3), pp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    # no q-entry table: the box search holds its unit squares and row blocks
    assert peak < 4 * 10**6


_SMALL_MODULI = [(p, n) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
                 for n in range(1, 8) if p**n <= 2500]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SMALL_MODULI), st.data())
def test_smallest_solution_property(pn, data):
    p, n = pn
    unit = st.integers(-3 * p, 3 * p).filter(lambda a: a % p != 0)
    coeffs = (data.draw(unit), data.draw(unit), data.draw(unit))
    got = smallest_solution(coeffs, PrimePowerModulus(p, n))
    assert got == oracles.brute_smallest(coeffs, p, p**n)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SMALL_MODULI), st.data())
def test_every_box_obeys_the_kernel_contract(pn, data):
    # every box, from M = 1 up to (q-1)/2, whether or not the search would start there
    p, n = pn
    pp = PrimePowerModulus(p, n)
    unit = st.integers(-3 * p, 3 * p).filter(lambda a: a % p != 0)
    a1, a2, a3 = coeffs = (data.draw(unit), data.draw(unit), data.draw(unit))
    inv3 = pow(a3, -1, pp.q)
    k1, k2 = -a1 * inv3 % pp.q, -a2 * inv3 % pp.q
    # no unit solution mod p when s_p >= p (count_mod_p = (p-1)(p - s_p))
    want = oracles.brute_smallest(coeffs, p, pp.q) if s_p(coeffs, p) < p else None
    for M in census._box_sizes(pp.q, pp.q):
        got = census._box_minimum(k1, k2, pp, M)
        assert got == (want if want is not None and M >= want[0] else None), (coeffs, M)


def test_smallest_solution_start_box_far_above_m():
    # With max|x_i| <= 5, x1^2 + x2^2 - x3^2 lies in [-23, 49]. For q > 49 a value
    # that is 0 mod q is then 0, and (3, 4, 5) is the least Pythagorean triple of
    # units mod 7 and 101; at q = 49 the value 49 adds only (5, 5, 1), with x1 = 5 > 3.
    for pp in [PrimePowerModulus(7, n) for n in range(2, 9)] + [PrimePowerModulus(101, 3)]:
        assert smallest_solution((1, 1, -1), pp) == (5, (3, -4, -5)), pp
    assert census._expected_norm((1, 1, -1), PrimePowerModulus(7, 8)) > 200


def test_smallest_search_starts_at_the_charged_box(monkeypatch):
    boxes = []
    box_minimum = census._box_minimum

    def recording(k1, k2, pp, M):
        boxes.append(M)
        return box_minimum(k1, k2, pp, M)

    monkeypatch.setattr(census, "_box_minimum", recording)
    pp = PrimePowerModulus(7, 4)
    # the charged boxes of (1,2,3) are M = 1, ..., 32 (2793 pairs, test_cli)
    smallest_solution((1, 2, 3), pp)
    assert boxes[0] == 32 == max(census._box_sizes(pp.q, census._expected_norm((1, 2, 3), pp)))
    # The benchmark panel: every multiset of units 1..6 at 7^4, scaled by a unit and
    # permuted, which keeps both m and the charge. The charge bounds the first box
    # (cells (M - M//7)^2), and the whole search when m lies in that box.
    for coeffs in itertools.combinations_with_replacement(range(1, 7), 3):
        boxes.clear()
        m, _ = smallest_solution(coeffs, pp)
        assert boxes[0] == max(census._box_sizes(pp.q, census._expected_norm(coeffs, pp)))
        assert (boxes[0] - boxes[0] // 7) ** 2 <= estimate_smallest_work(coeffs, pp), coeffs
        if m <= boxes[0]:
            assert len(boxes) == 1, coeffs


def test_asymptotic_scan_shapes():
    reports = asymptotic_scan((1, 2, 3), 7, [2, 3], 0.62)
    assert [r.modulus.n for r in reports] == [2, 3]
    for r in reports:
        assert r.box_half_width == math.ceil(r.modulus.q**0.62)
        assert r.ratio == r.observed / r.predicted
    with pytest.raises(ValueError):
        asymptotic_scan((1, 2, 3), 7, [2, 3], 0.45)
    vac = asymptotic_scan((1, 1, -1), 5, [2], 0.62)
    assert vac[0].ratio is None


def test_asymptotic_scan_refuses_a_q_past_the_cap_before_any_count(monkeypatch):
    def never(*args):
        raise AssertionError("counted before the cap was checked")

    monkeypatch.setattr(census, "count_smoothed", never)
    with pytest.raises(ValueError, match="table budget"):
        asymptotic_scan((1, 1, -1), 3, [14, 15], 0.51)


def test_asymptotic_scan_reads_no_n_past_the_first_refused_modulus():
    def ns():
        for n in itertools.count(1):
            if n > 30:
                raise AssertionError(f"read n = {n} past the refused 7^23")
            yield n

    for scan in (lambda g: asymptotic_scan((1, 1, -1), 7, g, 0.62), lambda g: estimate_scan_work(7, g, 0.62)):
        with pytest.raises(ValueError, match=r"7\^23 exceeds the 2\^62 cap"):
            scan(ns())
    # a generator of valid n still scans
    assert asymptotic_scan((1, 2, 3), 7, (n for n in [2, 3]), 0.62) == asymptotic_scan((1, 2, 3), 7, [2, 3], 0.62)


def test_estimate_scan_work():
    N = math.ceil(49**0.62)
    assert estimate_scan_work(7, [2], 0.62) == (6 * N) ** 2
    assert estimate_scan_work(7, [2], 0.62, sharp=True) == N**2


def test_estimate_count_work_refuses_what_the_count_refuses():
    assert estimate_count_work(2.5) == 15**2
    assert estimate_count_work(2.5, sharp=True) == 2**2
    assert estimate_count_work(0, sharp=True) == 0
    pp = PrimePowerModulus(7, 2)
    kernels = {False: count_smoothed, True: count_sharp}
    for sharp, kernel in kernels.items():
        for N in (-1, 0, 0.5, 1, 2.5, math.nan, math.inf):
            try:
                kernel((1, 2, 3), pp, N)
            except ValueError:
                with pytest.raises(ValueError):
                    estimate_count_work(N, sharp)
            else:
                assert estimate_count_work(N, sharp) == int((1 if sharp else 6) * N) ** 2
    with pytest.raises(ValueError, match="finite"):
        estimate_count_work(math.nan)
    # a finite N whose Gaussian box overflows; the sharp box is past TABLE_Q_MAX, as count_sharp finds
    with pytest.raises(ValueError, match="overflows"):
        estimate_count_work(1e308)
    with pytest.raises(ValueError, match="table budget"):
        estimate_count_work(1e308, sharp=True)
    assert estimate_count_work(modcore.TABLE_Q_MAX, sharp=True) == modcore.TABLE_Q_MAX**2


def test_poisson_selfcheck():
    for scale in (1.0, 10.5, 0.1, 3.25):
        assert poisson_selfcheck(scale) < 1e-9
    # 0 once divided by zero, and -2.5 summed nothing on either side and passed
    for scale in (0.0, -2.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            poisson_selfcheck(scale)


def test_table_cap_checked_before_allocation():
    pp = PrimePowerModulus(7, 9)  # q = 40353607 > TABLE_Q_MAX
    pp72 = PrimePowerModulus(7, 2)
    q = pp.q
    t2 = expsum.IntRationalFunction((0, 0, 1))
    capped = {
        "count_smoothed": lambda: count_smoothed((1, 2, 3), pp, 10),
        "count_sharp": lambda: count_sharp((1, 2, 3), pp, 10),
        # a box over the budget, at a q within it: refused before int() and the arange
        "count_smoothed box": lambda: count_smoothed((1, 2, 3), pp72, 1e307),
        "count_sharp box": lambda: count_sharp((1, 2, 3), pp72, float("inf")),
        "sqrt_count_table": lambda: sqrt_count_table(pp),
        "count_unit_circle": lambda: count_unit_circle(1, 1, pp),
        "smallest_solution": lambda: smallest_solution((1, 2, 3), pp),
        "build_family Case I": lambda: conic.build_family((1, 1, -1), pp),
        "build_family Case II": lambda: conic.build_family((1, 1, 1), pp),
        "enumerate_pair_solutions": lambda: conic.enumerate_pair_solutions((1, 2, 3), pp),
        "direct_S_alpha": lambda: expsum.direct_S_alpha(t2, 1, pp),
        # numer content 7^3: one period mod 7^6 is under the budget, but the sum is mod q
        "direct_S_alpha 7^3 t^2": lambda: expsum.direct_S_alpha(expsum.IntRationalFunction((0, 0, 343)), 1, pp),
        "gauss_sum": lambda: modcore.gauss_sum(q),
        "gauss_sum_character": lambda: modcore.gauss_sum_character(q),
        "jacobi_table": lambda: modcore.jacobi_table(q),
        # the wider side's ceil(6 * max(scale, 1/scale)) + 1 terms each way: 6e9 + 2, and 10^7 + 1
        "poisson_selfcheck 1e9": lambda: poisson_selfcheck(1e9),
        "poisson_selfcheck 1e-9": lambda: poisson_selfcheck(1e-9),
        "poisson_selfcheck 1666666.6": lambda: poisson_selfcheck(1666666.6),
        "poisson_selfcheck 5e-324": lambda: poisson_selfcheck(5e-324),  # 6/scale is inf
    }
    for name, call in capped.items():
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="table budget"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6, name  # a size-q table would be hundreds of MB
