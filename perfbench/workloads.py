"""Seeded job lists for the benchmark's three workloads.

A job is one in-process ``conic-lab`` invocation: its argv plus the
parameters its output check needs. Coefficient triples come from the
benchmark's own generator, ``random.Random(seed)``; the program sees them
only as ``--coeffs`` values. Every job runs with ``--workers 1``.

Work per pass is kept independent of the seed where the inputs allow it, so
that a spread between seeds measures the machine, not the inputs:

* scan: the Gaussian count visits half^2 (x1, x2) pairs whatever the
  coefficients are.
* smallest: the panel is every multiset {a1, a2, a3} of units 1..p-1. The
  seed multiplies each by a unit lambda mod q and permutes it. Both maps
  keep the solution set's norms, so the shell radius m, which sets the
  search cost, is fixed per panel entry while the coefficients vary.
* verify: the table and count sizes are fixed. ``expsum-check`` samples its
  rows internally, and the cost of a row depends on its source, so its CLI
  seed is fixed (``EXPSUM_SEED``) rather than drawn.
"""

import itertools
import random
from typing import NamedTuple

WORKERS = ("--workers", "1")
EXPSUM_SEED = 1

SCAN_P, SCAN_N, SCAN_THETA, SCAN_TRIPLES = 7, (3, 4, 5, 6), 0.62, 2
# 7^4, not 7^5: on a shared 2-vCPU Xeon a 7^5 pass took ~7 s, so each job got 3-4
# repeats in a 30 s run and query_p80_s spread 0.24 over ten seeds. A 7^4 pass
# takes ~0.5 s and keeps the m^3 tail (max/median job time ~4).
SMALLEST_P, SMALLEST_N = 7, 4
COUNT_P, COUNT_N, COUNT_BOX = 7, 7, 4677
COUNTF_Q, COUNTF_X = 7**6, 10**5


class Job(NamedTuple):
    kind: str  # the subcommand; selects the output check
    argv: tuple
    params: dict


def is_residue(a: int, p: int) -> bool:
    """Euler's criterion for a unit a mod an odd prime p."""
    return pow(a % p, (p - 1) // 2, p) == 1


def case_tag(coeffs, p: int) -> str:
    """'CaseI' if -a2*a3 is a residue, 'CaseII' if no -ai*aj is, else 'mixed'."""
    a1, a2, a3 = coeffs
    if is_residue(-a2 * a3, p):
        return "CaseI"
    if not is_residue(-a1 * a2, p) and not is_residue(-a1 * a3, p):
        return "CaseII"
    return "mixed"


def _unit(rng, p: int, bound: int) -> int:
    while True:
        a = rng.randrange(1, bound)
        if a % p:
            return a


def _triple(rng, p: int, bound: int, tag=None):
    """A unit triple with entries in [1, bound), optionally of the given case."""
    while True:
        coeffs = tuple(_unit(rng, p, bound) for _ in range(3))
        if tag is None or case_tag(coeffs, p) == tag:
            return coeffs


def _coeff_arg(coeffs) -> str:
    return ",".join(str(a) for a in coeffs)


def scan_jobs(rng):
    """The headline observed/predicted scan, once per seed-drawn triple."""
    jobs = []
    for _ in range(SCAN_TRIPLES):
        coeffs = _triple(rng, SCAN_P, SCAN_P)
        argv = ("scan", "--p", str(SCAN_P), "--n", f"{SCAN_N[0]}..{SCAN_N[-1]}",
                "--theta", str(SCAN_THETA), "--coeffs", _coeff_arg(coeffs), *WORKERS)
        jobs.append(Job("scan", argv, dict(p=SCAN_P, n=SCAN_N, theta=SCAN_THETA, coeffs=coeffs)))
    return jobs


def smallest_jobs(rng):
    """The shell search over the scaled and permuted multiset panel."""
    p, q = SMALLEST_P, SMALLEST_P**SMALLEST_N
    jobs = []
    for base in itertools.combinations_with_replacement(range(1, p), 3):
        lam = _unit(rng, p, q)
        coeffs = tuple(lam * a % q for a in rng.sample(base, 3))
        argv = ("smallest", "--p", str(p), "--n", str(SMALLEST_N),
                "--coeffs", _coeff_arg(coeffs), *WORKERS)
        jobs.append(Job("smallest", argv, dict(p=p, n=SMALLEST_N, coeffs=coeffs)))
    rng.shuffle(jobs)
    return jobs


def verify_jobs(rng):
    """The oracle-check batch: param-check, expsum-check, countf, sharp count, selftest."""
    jobs = []
    for p, n, tags in ((7, 5, ("CaseI", "CaseI", "mixed", "mixed")), (3, 8, ("CaseII",))):
        for tag in tags:
            coeffs = _triple(rng, p, p**n, tag)
            argv = ("param-check", "--p", str(p), "--n", str(n),
                    "--coeffs", _coeff_arg(coeffs), *WORKERS)
            jobs.append(Job("param-check", argv, dict(p=p, n=n, coeffs=coeffs, tag=tag)))
    for p, n in ((7, 6), (5, 8)):
        argv = ("expsum-check", "--p", str(p), "--n", str(n), "--count", "50",
                "--seed", str(EXPSUM_SEED), *WORKERS)
        jobs.append(Job("expsum-check", argv, dict(p=p, n=n, count=50)))
    b1, b2 = _unit(rng, 7, COUNTF_Q), _unit(rng, 7, COUNTF_Q)
    argv = ("dioph", "--mode", "countf", "--b1", str(b1), "--b2", str(b2),
            "--X", str(COUNTF_X), "--q", str(COUNTF_Q), *WORKERS)
    jobs.append(Job("dioph", argv, dict(b1=b1, b2=b2, X=COUNTF_X, q=COUNTF_Q)))
    q = COUNT_P**COUNT_N
    coeffs = _triple(rng, COUNT_P, q)
    argv = ("count", "--p", str(COUNT_P), "--n", str(COUNT_N), "--coeffs", _coeff_arg(coeffs),
            "--N", str(COUNT_BOX), "--sharp", *WORKERS)
    jobs.append(Job("count", argv, dict(p=COUNT_P, n=COUNT_N, coeffs=coeffs, N=COUNT_BOX)))
    jobs.append(Job("selftest", ("selftest", *WORKERS), {}))
    return jobs


BUILDERS = {"scan": scan_jobs, "smallest": smallest_jobs, "verify": verify_jobs}


def jobs_for(workload: str, seed: int):
    return BUILDERS[workload](random.Random(seed))
