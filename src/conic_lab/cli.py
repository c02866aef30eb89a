"""Batch experiment driver.

Subcommands: count | predict | scan | smallest | param-check | expsum-check
| dioph | selftest. Each is declared once, in the SUBCOMMANDS table: its
handler, help line, required flags, own flags and output columns. One
argparse parser, built from that table at import, knows every flag, type
and default; run refuses a missing required flag before the handler runs.
A JSON config object (--config) is turned into argv: each key names a flag
("dry_run" is --dry-run); for a switch, true is the bare flag and false is
dropped; any other string or number is passed as --key=value; and null, an
array, an object or a boolean for a flag that takes a value is refused.
These tokens go before the explicit flags and the whole line is parsed again,
so explicit flags win and config values are type-checked like flags.
--workers must be an integer and has no effect.

Results are emitted as CSV or JSONL with a fixed column set per subcommand
and a schema_version column; floats are printed with 12 significant digits.
Each handler charges its estimated work, in work units as the README's charge
table gives them, once at _budget_gate, which refuses a run over the budget and
ends a dry run. count, scan and smallest charge census.estimate_count_work,
estimate_scan_work and estimate_smallest_work, in (x1, x2) pair visits, and the
other handlers charge their own units.

Exit codes: 0 success, 2 invalid input, 1 internal assertion failure. The
handlers do not translate errors: every ValueError, from the library's own
checks or from this module's, reaches run, which prints one "error: <message>"
line to stderr, nothing to stdout, and returns 2.
"""

import argparse
import json
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import census, conic, dioph, expsum, modcore
from .modcore import PrimePowerModulus

SCHEMA_VERSION = 1
DEFAULT_BUDGET = 10**9
SAMPLE_MAX = 10**6


class Splitmix64:
    """Tiny deterministic 64-bit generator for coefficient sampling."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next() % bound

    def unit(self, p: int) -> int:
        return 1 + self.below(p - 1)

    def unit_triple(self, p: int):
        return (self.unit(p), self.unit(p), self.unit(p))


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def emit(records, fields, fmt: str, out, seed=None):
    """Write records as CSV (fixed header + schema_version) or JSONL."""
    if fmt == "csv":
        if seed is not None:
            out.write(f"# seed={seed}\n")
        out.write(",".join(fields + ["schema_version"]) + "\n")
        for rec in records:
            row = [_fmt(rec.get(f)) for f in fields] + [str(SCHEMA_VERSION)]
            out.write(",".join(row) + "\n")
    elif fmt == "jsonl":
        for rec in records:
            doc = {f: rec.get(f) for f in fields}
            doc["schema_version"] = SCHEMA_VERSION
            if seed is not None:
                doc["seed"] = seed
            out.write(json.dumps(doc) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _parse_coeffs(text: str):
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"coeffs must be three comma-separated integers, got {text!r}")
    if len(parts) != 3:
        raise ValueError(f"coeffs must have exactly three entries, got {text!r}")
    return tuple(parts)


def _parse_n_range(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"bad n range {text!r}")
        if lo > hi:
            raise ValueError(f"empty n range {text!r}")
        # lazy: the q cap refuses n > 62 before a long range is walked
        return range(lo, hi + 1)
    try:
        return [int(text)]
    except ValueError:
        raise ValueError(f"bad n value {text!r}")


def _budget_gate(args, units: int):
    """Refuse work over --budget; on --dry-run, print the estimate and end the run, as --help does."""
    budget = args.budget
    if units > budget:
        raise ValueError(
            f"estimated work {units} pair visits exceeds the budget {budget}; "
            "raise --budget or shrink the request"
        )
    if args.dry_run:
        print(f"dry-run: estimated work units = {units} (budget {budget})")
        raise SystemExit(0)


def _coeff_list(args, rng):
    """Coefficient triples from --coeffs or --sample (not both); --sample must lie in 1..SAMPLE_MAX.

    A --coeffs triple is checked against args.p here, before any budget gate, so --dry-run
    refuses a coefficient the run refuses; sampled triples are units by construction.
    """
    if args.sample is not None and not 1 <= args.sample <= SAMPLE_MAX:
        raise ValueError(f"--sample must lie in 1..{SAMPLE_MAX}, got {args.sample}")
    if args.coeffs is not None and args.sample is not None:
        raise ValueError("give --coeffs or --sample, not both")
    if args.coeffs is not None:
        coeffs = _parse_coeffs(args.coeffs)
        modcore.validate_coeffs(coeffs, args.p)
        return [coeffs]
    if args.sample is not None:
        return [rng.unit_triple(args.p) for _ in range(args.sample)]
    raise ValueError("provide --coeffs or --sample")


# ----------------------------------------------------------------- handlers

# Every dioph flag, in --help order; a mode reads its own and refuses the others.
DIOPH_FLAGS = ("A", "B", "C", "x", "beta", "q", "Q", "b1", "b2", "b3", "X", "M")
# dioph mode -> (its flags, in the order the inputs column prints them; the name of its
# dioph check; its result). Each result looks its dioph function up when called, so a
# wrapped or patched one runs.
DIOPH_MODES = {
    "equation": (("A", "B", "C", "x"), "check_equation", lambda *v: dioph.count_equation_solutions(*v)),
    "approx": (("beta", "q", "Q"), "check_approx",
               lambda *v: "a={0.a};r={0.r}".format(dioph.dirichlet_approx(*v))),
    "countf": (("b1", "b2", "X", "q"), "check_count_F", lambda *v: dioph.count_F(*v)),
    "reduce": (("b1", "b2", "b3", "q", "Q"), "check_reduce",
               lambda *v: "g1={0.g1};g2={0.g2};r1={0.r1};r2={0.r2};a1={0.a1};a2={0.a2}".format(
                   dioph.reduce_coefficients(*v))),
    "params": (("q", "M"), "check_parameters",
               lambda *v: "R={};Q={}".format(*dioph.choose_parameters(*v))),
}


def _row(pp, coeffs, **rest):
    """An output record led by the modulus and the coefficient triple."""
    return dict(p=pp.p, n=pp.n, q=pp.q, a1=coeffs[0], a2=coeffs[1], a3=coeffs[2], **rest)


def _require(args, *names):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"missing required parameter(s): {flags}")


def _run_count(args, rng):
    pp = PrimePowerModulus(args.p, args.n)
    units = census.estimate_count_work(args.N, args.sharp)
    triples = _coeff_list(args, rng)
    modcore.check_table_q(pp.q)
    _budget_gate(args, units * len(triples))
    rows = []
    weight = "sharp" if args.sharp else "gaussian"
    for coeffs in triples:
        obs = census.count(coeffs, pp, args.N, args.sharp)
        rows.append(_row(pp, coeffs, N=args.N, weight=weight, observed=obs))
    return rows


def _run_predict(args, rng):
    pp = PrimePowerModulus(args.p, args.n)
    census.check_main_term_N(args.N)
    triples = _coeff_list(args, rng)
    _budget_gate(args, 0)
    rows = []
    weight = "sharp" if args.sharp else "gaussian"
    for coeffs in triples:
        pred = census.predict_main_term(coeffs, pp, args.N, args.sharp)
        rows.append(_row(pp, coeffs, N=args.N, weight=weight, predicted=pred,
                         vacuous=modcore.main_constant(coeffs, pp.p) <= 0))
    return rows


def _run_scan(args, rng):
    n_values = _parse_n_range(args.n)
    units = census.estimate_scan_work(args.p, n_values, args.theta, args.sharp)
    triples = _coeff_list(args, rng)
    _budget_gate(args, units * len(triples))
    return [row for coeffs in triples
            for row in census.asymptotic_scan(coeffs, args.p, n_values, args.theta, args.sharp)]


def _run_smallest(args, rng):
    pp = PrimePowerModulus(args.p, args.n)
    triples = _coeff_list(args, rng)
    units = sum(census.estimate_smallest_work(coeffs, pp) for coeffs in triples)
    _budget_gate(args, units)
    rows, spent = [], 0
    for k, coeffs in enumerate(triples, start=1):
        found = census.smallest_solution(coeffs, pp, args.budget, spent)
        if k < len(triples):  # a search may run past its charge: the next gets what is left
            spent += census.estimate_smallest_work(coeffs, pp, found[0] if found else 0)
        if found is None:
            # m = 0 encodes absence at this boundary only
            rows.append(_row(pp, coeffs, m=0, x1=None, x2=None, x3=None))
        else:
            m, (x1, x2, x3) = found
            rows.append(_row(pp, coeffs, m=m, x1=x1, x2=x2, x3=x3))
    return rows


def _run_param_check(args, rng):
    pp = PrimePowerModulus(args.p, args.n)
    triples = _coeff_list(args, rng)
    modcore.check_table_q(pp.q)
    _budget_gate(args, pp.q * pp.p * len(triples))
    rows = []
    for coeffs in triples:
        tag = conic.case_tag(coeffs, pp.p)
        # a mixed triple is permuted into Case I; its row keeps the given order
        fam_coeffs = conic.normalize_to_case1(coeffs, pp.p) if tag == "mixed" else coeffs
        fam = conic.build_family(fam_coeffs, pp)
        # Case I covers the unit solutions, Case II all of them, which are units
        reference = conic.enumerate_pair_solutions(fam_coeffs, pp)
        expected = pp.q // pp.p * (pp.p - modcore.s_p(fam_coeffs, pp.p))  # s_p = -1 in Case II
        rows.append(_row(pp, coeffs, case=tag, family_size=len(fam.pairs),
                         expected_size=expected,
                         matches_enumeration=np.array_equal(fam.pairs, reference)))
    return rows


def _run_expsum_check(args, rng):
    pp = PrimePowerModulus(args.p, args.n)
    count = args.count
    if count < 1:
        raise ValueError("expsum-check requires --count >= 1")
    modcore.check_table_q(pp.q)  # every row is a size-q sum: refuse before the gate, so --dry-run does too
    _budget_gate(args, count * pp.q)
    rows, queued, requests = [], [], []
    while len(rows) < count:
        source = ("case1", "case2", "poly")[rng.below(3)]
        coeffs = rng.unit_triple(pp.p)
        # k1, k2 share the exact power of p so the closed form applies
        shift = pp.p ** rng.below(max(1, pp.n - 1))
        k1 = shift * (rng.unit(pp.q) * pp.p + rng.unit(pp.p)) % pp.q
        k2 = shift * (rng.unit(pp.q) * pp.p + rng.unit(pp.p)) % pp.q
        x3 = rng.unit(pp.p)
        alpha = None
        # The closed form runs first, so a row it refuses as unsupported queues no direct
        # sum. A row's classes are checked as they are queued, so one the direct sums would
        # refuse is invalid here, and the one direct_sums call below raises nothing.
        try:
            if source != "poly":
                if conic.case_tag(coeffs, pp.p) != (conic.CASE_I if source == "case1" else conic.CASE_II):
                    continue
                got = expsum.closed_form_E(k1, k2, x3, coeffs, pp)
                row_requests, weight = expsum.layer_requests(0, k1, k2, x3, coeffs, pp)  # direct_E's
            else:
                coeffs_poly = tuple(1 + rng.below(pp.q - 1) for _ in range(4))
                f = expsum.IntRationalFunction(coeffs_poly)
                alpha = rng.below(pp.p)
                got = expsum.cochrane_evaluate(f, alpha, pp)  # checks the class as direct_sums does
                row_requests, weight = [(f, alpha)], 1
            status = "ok"
        except expsum.UnsupportedCaseError:
            status = "unsupported"
        except ValueError:
            status = "invalid"
        rows.append(
            dict(p=pp.p, n=pp.n, q=pp.q, source=source, k1=k1, k2=k2, x3=x3,
                 alpha=alpha, status=status, rel_err=None)
        )
        if status == "ok":
            queued.append((rows[-1], got, slice(len(requests), len(requests) + len(row_requests)), weight))
            requests += row_requests
    sums = expsum.direct_sums(requests, pp)
    for row, got, classes, weight in queued:
        want = sum(sums[classes], start=0j) / weight
        row["rel_err"] = abs(got - want) / max(1.0, abs(want))
    return rows


def _run_dioph(args, rng):
    flags, check, solve = DIOPH_MODES[args.mode]
    unread = ", ".join(f"--{f}" for f in DIOPH_FLAGS if f not in flags and getattr(args, f) is not None)
    if unread:
        raise ValueError(f"dioph --mode {args.mode} does not read {unread}")
    _require(args, *flags)
    values = [getattr(args, flag) for flag in flags]
    getattr(dioph, check)(*values)  # before the gate: --dry-run refuses what the run refuses, and x >= 1
    _budget_gate(args, 2 * args.x + 1 if args.mode == "equation" else 10**6)
    inputs = ";".join(f"{flag}={value}" for flag, value in zip(flags, values))
    return [dict(mode=args.mode, inputs=inputs, result=solve(*values))]


def _run_selftest(args, rng):
    _budget_gate(args, 0)  # a few fixed checks at q <= 7^3
    rows = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        rows.append(dict(check=name, status="pass" if ok else "FAIL"))

    pp72 = PrimePowerModulus(7, 2)
    check("prime-level-law", lambda: all(
        census.count_mod_p(c, 7) == 6 * (7 - modcore.s_p(c, 7))
        for c in [(1, 1, 1), (1, 1, 6), (2, 3, 5), (1, 2, 3)]))
    check("unit-circle", lambda: conic.count_unit_circle(1, 1, PrimePowerModulus(3, 2)) == 12)
    check("gauss-sum", lambda: abs(abs(modcore.gauss_sum(49)) - 7.0) < 1e-9)
    check("case1-coverage", lambda: np.array_equal(conic.build_family((1, 1, -1), pp72).pairs,
          conic.enumerate_pair_solutions((1, 1, -1), pp72)))
    check("case2-coverage", lambda: len(conic.build_family((1, 1, 1),
          PrimePowerModulus(3, 2)).pairs) == 12)
    check("hensel-lifts", lambda: len(conic.lift_triple((3, 4, 5), (1, 1, -1),
          PrimePowerModulus(7, 1))) == 49)
    check("smallest-solution", lambda: census.smallest_solution((1, 1, -1), pp72)[0] == 5)
    check("cochrane", lambda: abs(
        expsum.cochrane_evaluate(expsum.IntRationalFunction((0, 0, 1)), 0, PrimePowerModulus(7, 3))
        - expsum.direct_S_alpha(expsum.IntRationalFunction((0, 0, 1)), 0, PrimePowerModulus(7, 3))
    ) < 1e-6)
    check("poisson", lambda: census.poisson_selfcheck(10.5) < 1e-9)
    check("dirichlet", lambda: dioph.dirichlet_approx(7, 10, 3).r == 3)
    failed = [r["check"] for r in rows if r["status"] != "pass"]
    if failed:
        raise AssertionError(f"selftest failed: {', '.join(failed)}")
    return rows


class Subcommand(NamedTuple):
    handler: Callable  # (args, rng) -> the output records
    help: str
    required: tuple  # dests that run refuses to leave unset, before the handler; one error names them all
    flags: tuple  # its own (flag, add_argument keywords) pairs in --help order; COMMON_FLAGS follow
    fields: list  # its output columns, in order


# (flag, add_argument keywords) pairs that more than one subcommand takes
P_FLAG = ("--p", dict(type=int))
N_FLAG = ("--n", dict(type=int))
TRIPLE_FLAGS = (("--coeffs", dict(help="a1,a2,a3")),
                ("--sample", dict(type=int, help="number of sampled coefficient triples, 1..10^6")))
COEFF_FLAGS = (P_FLAG, N_FLAG, *TRIPLE_FLAGS)
SHARP_FLAG = ("--sharp", dict(action="store_true"))
BOX_FLAGS = (("--N", dict(type=float)), SHARP_FLAG)
COMMON_FLAGS = (
    ("--config", dict(help="JSON file with defaults for these flags")),
    ("--seed", dict(type=int, default=1)),
    ("--workers", dict(type=int)),
    ("--budget", dict(type=int, default=DEFAULT_BUDGET)),
    ("--dry-run", dict(action="store_true")),
    ("--output", dict(help="file path; default stdout")),
    ("--format", dict(choices=["csv", "jsonl"], default="csv")),
)

# The one table keyed by subcommand name: _build_parser, run and _write read it.
SUBCOMMANDS = {
    "count": Subcommand(_run_count, "sharp or smoothed box count", ("p", "n", "N"),
                        (*COEFF_FLAGS, *BOX_FLAGS), "p n q a1 a2 a3 N weight observed".split()),
    "predict": Subcommand(_run_predict, "main-term prediction", ("p", "n", "N"),
                          (*COEFF_FLAGS, *BOX_FLAGS), "p n q a1 a2 a3 N weight predicted vacuous".split()),
    "scan": Subcommand(_run_scan, "observed/predicted ratios over an n range", ("p", "n"),
                       (P_FLAG, *TRIPLE_FLAGS, ("--n", dict(help="e.g. 3..6")),
                        ("--theta", dict(type=float, default=0.62)), SHARP_FLAG),
                       "p n q N theta observed predicted ratio".split()),
    "smallest": Subcommand(_run_smallest, "minimal max-norm solution", ("p", "n"),
                           COEFF_FLAGS, "p n q a1 a2 a3 m x1 x2 x3".split()),
    "param-check": Subcommand(_run_param_check, "parametrization coverage check", ("p", "n"), COEFF_FLAGS,
                              "p n q a1 a2 a3 case family_size expected_size matches_enumeration".split()),
    "expsum-check": Subcommand(_run_expsum_check, "closed forms vs direct sums", ("p", "n"),
                               (P_FLAG, N_FLAG, ("--count", dict(type=int, default=20))),
                               "p n q source k1 k2 x3 alpha status rel_err".split()),
    "dioph": Subcommand(_run_dioph, "Diophantine toolkit", ("mode",),
                        (("--mode", dict(choices=list(DIOPH_MODES))),
                         *((f"--{f}", dict(type=int)) for f in DIOPH_FLAGS)),
                        "mode inputs result".split()),
    "selftest": Subcommand(_run_selftest, "run the bundled invariant checks", (), (), "check status".split()),
}


def _build_parser():
    top = argparse.ArgumentParser(prog="conic-lab")
    sub = top.add_subparsers(dest="command", required=True)
    for name, cmd in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        for flag, keywords in (*cmd.flags, *COMMON_FLAGS):
            sp.add_argument(flag, **keywords)
    return top


PARSER = _build_parser()


def _parse(argv):
    """Parse argv, then again with the --config file's keys as leading flags."""
    args = PARSER.parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # a deep nest is a RecursionError
        raise ValueError(f"config {args.config}: {exc}")
    if not isinstance(doc, dict):
        raise ValueError(f"config {args.config}: expected a JSON object")
    tokens = []
    for key, value in doc.items():
        # every subcommand flag --a-b stores to dest a_b
        dest = key.replace("-", "_")
        if key in ("command", "config") or dest not in vars(args):
            raise ValueError(f"config {args.config}: unknown field {key!r}")
        if not isinstance(value, (str, int, float)):  # bool is an int
            raise ValueError(f"config {args.config}: field {key!r} must be a string, number or boolean")
        switch = isinstance(vars(args)[dest], bool)  # a switch's dest holds a bool
        if isinstance(value, bool) and not switch:
            raise ValueError(f"config {args.config}: field {key!r} takes a value, not a boolean")
        if switch and not isinstance(value, bool):
            raise ValueError(f"config {args.config}: field {key!r} is a switch: true or false")
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not False:
            tokens.append(f"{flag}={value}")
    return PARSER.parse_args([args.command, *tokens, *argv[1:]])


def _write(args, records, fields):
    """Emit the records to --output, or to stdout; a file that cannot be written is a ValueError."""
    seed = args.seed if getattr(args, "sample", None) else None
    if not args.output:
        emit(records, fields, args.format, sys.stdout, seed=seed)
        return
    try:
        with open(args.output, "w") as fh:
            emit(records, fields, args.format, fh, seed=seed)
    except OSError as exc:
        raise ValueError(f"cannot write {args.output}: {exc}")


def run(argv) -> int:
    try:
        args = _parse(argv)
        cmd = SUBCOMMANDS[args.command]
        _require(args, *cmd.required)
        _write(args, cmd.handler(args, Splitmix64(args.seed)), cmd.fields)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
