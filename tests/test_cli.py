import argparse
import contextlib
import hashlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from conic_lab import census, cli, conic, expsum
from conic_lab.cli import DIOPH_MODES, SUBCOMMANDS, Splitmix64, emit, run
from conic_lab.modcore import PrimePowerModulus


def run_capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_roundtrip(capsys):
    code, out, _ = run_capture(
        ["count", "--p", "7", "--n", "2", "--coeffs", "1,1,-1", "--N", "5", "--sharp"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,n,q,a1,a2,a3,N,weight,observed,schema_version"
    assert lines[1].split(",") == ["7", "2", "49", "1", "1", "-1", "5", "sharp", "24", "1"]


@pytest.mark.parametrize("flags, fields", [
    ("--N 5", '"N": 5.0, "weight": "gaussian", "observed": 3.8907577267536245e-07'),
    ("--N 5.5", '"N": 5.5, "weight": "gaussian", "observed": 7.231939490833036e-06'),
    ("--N 5 --sharp", '"N": 5.0, "weight": "sharp", "observed": 0'),
    ("--N 5.5 --sharp", '"N": 5.5, "weight": "sharp", "observed": 0'),  # the box |x_i| <= floor(N)
])
def test_count_jsonl_rows_pinned(flags, fields, capsys):
    argv = ["count", "--p", "7", "--n", "3", "--coeffs", "1,2,3", *flags.split(), "--format", "jsonl"]
    want = '{"p": 7, "n": 3, "q": 343, "a1": 1, "a2": 2, "a3": 3, ' + fields + ', "schema_version": 1}\n'
    assert run_capture(argv, capsys) == (0, want, "")


def test_scan_header_and_rows(capsys):
    code, out, _ = run_capture(
        ["scan", "--p", "7", "--n", "2..3", "--theta", "0.62", "--coeffs", "1,1,-1"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,n,q,N,theta,observed,predicted,ratio,schema_version"
    assert len(lines) == 3


def test_smallest_absent_maps_to_zero(capsys):
    code, out, _ = run_capture(
        ["smallest", "--p", "5", "--n", "1", "--coeffs", "1,1,-1"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,n,q,a1,a2,a3,m,x1,x2,x3,schema_version"
    assert lines[1] == "5,1,5,1,1,-1,0,,,,1"


def test_param_check_rows_pinned(capsys):
    # Case I and mixed at 7^5, Case II at 3^8, and a Case I triple with p = s_p (no pairs)
    header = "p,n,q,a1,a2,a3,case,family_size,expected_size,matches_enumeration,schema_version"
    for args, row in [
        ("--p 7 --n 5 --coeffs 14729,15475,12440", "7,5,16807,14729,15475,12440,CaseI,9604,9604,1,1"),
        ("--p 7 --n 5 --coeffs 705,13638,3277", "7,5,16807,705,13638,3277,mixed,9604,9604,1,1"),
        ("--p 3 --n 8 --coeffs 1382,4115,101", "3,8,6561,1382,4115,101,CaseII,8748,8748,1,1"),
        ("--p 5 --n 3 --coeffs 1,1,-1", "5,3,125,1,1,-1,CaseI,0,0,1,1"),
    ]:
        assert run_capture(["param-check", *args.split()], capsys) == (0, f"{header}\n{row}\n", "")


def test_scan_jsonl_rows_pinned(capsys):
    # JSONL writes floats by repr, so these rows pin count_smoothed to the bit:
    # (1,1,-1) repeats a coefficient, (2,5,5) repeats one mod every q.
    rows = {
        "1,1,-1": [
            (3, 343, 38, 83.81655970016303, 1.069690156850367),
            (4, 2401, 125, 606.6162434336485, 1.52251294770614),
            (5, 16807, 417, 2141.370801463229, 1.0133483158492338),
            (6, 117649, 1393, 19015.3261985734, 1.6897541006475898),
        ],
        "2,5,5": [
            (3, 343, 38, 99.88364264926105, 1.2747427209430815),
            (4, 2401, 125, 375.30058913501864, 0.9419464322377773),
            (5, 16807, 417, 2201.598575272121, 1.0418495511863763),
            (6, 117649, 1393, 11122.251534573594, 0.9883538122206742),
        ],
    }
    predicted = {3: 78.3559231272684, 4: 398.4309258897228, 5: 2113.1636259430293, 6: 11253.309692390076}
    for coeffs, expected in rows.items():
        want = "".join(
            f'{{"p": 7, "n": {n}, "q": {q}, "N": {N}, "theta": 0.62, "observed": {obs!r}, '
            f'"predicted": {predicted[n]!r}, "ratio": {ratio!r}, "schema_version": 1}}\n'
            for n, q, N, obs, ratio in expected
        )
        argv = ["scan", "--p", "7", "--n", "3..6", "--theta", "0.62", "--format", "jsonl", "--coeffs", coeffs]
        assert run_capture(argv, capsys) == (0, want, "")


def test_scan_sharp_jsonl_rows_pinned(capsys):
    # --sharp scans count with count_sharp and print its exact count as a float
    rows = [
        (2, 49, 12, 176.0, 138.18242399000417, 1.2736786265432098),
        (3, 343, 38, 648.0, 626.8473850181472, 1.033744441609564),
        (4, 2401, 125, 3320.0, 3187.4474071177824, 1.0415858133333333),
        (5, 16807, 417, 17232.0, 16905.309007544234, 1.0193247572292217),
        (6, 117649, 1393, 89656.0, 90026.4775391206, 0.9958847935713178),
    ]
    want = "".join(
        f'{{"p": 7, "n": {n}, "q": {q}, "N": {N}, "theta": 0.62, "observed": {obs!r}, '
        f'"predicted": {pred!r}, "ratio": {ratio!r}, "schema_version": 1}}\n'
        for n, q, N, obs, pred, ratio in rows
    )
    argv = ["scan", "--p", "7", "--n", "2..6", "--theta", "0.62", "--coeffs", "1,2,3", "--sharp", "--format", "jsonl"]
    assert run_capture(argv, capsys) == (0, want, "")
    for n, q, N, obs, _, _ in rows:
        assert N == math.ceil(q**0.62)
        assert obs == float(census.count_sharp((1, 2, 3), PrimePowerModulus(7, n), N))


def test_expsum_check_past_the_table_cap_exits_2(capsys):
    # 3 rows at 7^9 pass the work budget (3 q = 1.2e8), but every row is a size-q sum
    # over TABLE_Q_MAX: refused before any row, with --dry-run too, not printed as invalid
    argv = ["expsum-check", "--p", "7", "--n", "9", "--count", "3"]
    for dry in ([], ["--dry-run"]):
        code, out, err = run_capture(argv + dry, capsys)
        assert (code, out) == (2, ""), dry
        assert err.startswith("error: ") and err.count("\n") == 1 and "table budget" in err, err


def test_expsum_check_rows_pinned(capsys):
    # case1, case2 and poly rows, ok and unsupported; JSONL writes rel_err by repr
    rows = {
        "--p 3 --n 4": (81, [
            ("poly", 68, 1, 1, 1, "ok", 2.1810241646309623e-15),
            ("poly", 22, 58, 2, 2, "ok", 2.346177427711248e-15),
            ("poly", 12, 33, 1, 2, "ok", 2.0978538233556412e-15),
            ("case2", 45, 18, 1, None, "unsupported", None),
            ("poly", 58, 41, 1, 2, "ok", 2.0978538233556412e-15),
            ("case1", 60, 66, 2, None, "unsupported", None),
            ("poly", 60, 12, 2, 2, "ok", 2.0344741326765495e-16),
            ("poly", 36, 9, 2, 0, "ok", 4.9343245538895856e-17),
            ("case2", 18, 9, 1, None, "ok", 3.715902885216904e-16),
            ("poly", 72, 72, 2, 0, "ok", 2.3275162370418975e-16),
            ("case1", 45, 63, 2, None, "ok", 0.0),
            ("poly", 61, 41, 2, 2, "ok", 2.0978538233556412e-15),
        ]),
        "--p 7 --n 3": (343, [
            ("poly", 273, 105, 5, 3, "ok", 6.537510719609172e-15),
            ("poly", 22, 255, 4, 0, "ok", 6.128422296602568e-15),
            ("poly", 56, 189, 3, 3, "ok", 6.537510719609172e-15),
            ("poly", 106, 179, 5, 3, "ok", 6.3631255597111804e-15),
            ("poly", 140, 231, 4, 3, "ok", 6.128422296602568e-15),
            ("poly", 17, 171, 4, 1, "ok", 6.3631255597111804e-15),
            ("case2", 42, 329, 1, None, "ok", 1.6145206551530857e-15),
            ("poly", 284, 244, 6, 2, "ok", 6.128422296602568e-15),
            ("case1", 107, 120, 6, None, "ok", 2.418868662917648e-14),
            ("case1", 143, 103, 5, None, "unsupported", None),
            ("poly", 133, 140, 6, 6, "ok", 6.202735634387225e-15),
            ("case1", 336, 161, 6, None, "ok", 2.5008628462156143e-14),
        ]),
        # the case1 row's k1, k2 share 5^4: its direct sum runs over one period mod 5^2
        "--p 5 --n 6": (15625, [
            ("poly", 3060, 480, 3, 1, "ok", 7.67386154620908e-16),
            ("poly", 4525, 11775, 4, 4, "unsupported", None),
            ("poly", 615, 9270, 3, 1, "ok", 9.035783704478896e-14),
            ("poly", 648, 4079, 3, 3, "ok", 9.035783704478896e-14),
            ("poly", 2500, 11250, 4, 3, "ok", 8.927332275437445e-14),
            ("poly", 6165, 1705, 2, 4, "ok", 8.749145300857107e-14),
            ("poly", 560, 5335, 2, 2, "ok", 8.927332275437445e-14),
            ("poly", 12900, 13550, 4, 2, "ok", 8.603205202215516e-14),
            ("poly", 6875, 1875, 1, 1, "ok", 8.927332275437445e-14),
            ("poly", 13125, 4375, 4, 4, "ok", 8.906749319982756e-14),
            ("case1", 15000, 2500, 2, None, "ok", 0.0),
            ("poly", 6488, 7384, 3, 4, "ok", 1.1368683772161615e-15),
        ]),
    }
    for args, (q, expected) in rows.items():
        p, n = args.split()[1::2]
        want = "".join(
            json.dumps(dict(p=int(p), n=int(n), q=q, source=source, k1=k1, k2=k2, x3=x3, alpha=alpha,
                            status=status, rel_err=rel, schema_version=1)) + "\n"
            for source, k1, k2, x3, alpha, status, rel in expected
        )
        argv = ["expsum-check", *args.split(), "--count", "12", "--seed", "1", "--format", "jsonl"]
        assert run_capture(argv, capsys) == (0, want, "")


@pytest.mark.parametrize("args, digest", [
    ("--p 5 --n 8", "8907a5ff42bb58b163d9df8fe93c0d5a21a146025a0a6b9856f4f3c974cc7960"),
    ("--p 7 --n 6", "4309a141aab5e8d9312ec3fa05ba67257198feddd3a0e1a4413051655527cb3d"),
])
def test_expsum_check_benchmark_rows_pinned(args, digest, capsys):
    # the benchmark's two expsum-check jobs, byte for byte: SHA-256 of the JSONL output
    argv = ["expsum-check", *args.split(), "--count", "50", "--seed", "1", "--format", "jsonl"]
    code, out, err = run_capture(argv, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("param-check --p 11 --n 3 --sample 8 --seed 3", "f679a88fa8211b6e6ffc95270ed81c46db4fcf221f89aabebb0035a473912758"),
    ("param-check --p 19 --n 2 --sample 8 --seed 3", "16051e7129fcacc2b6e46239a492d9735b48e436d0dce0c11e1ed7719928cd88"),
    ("expsum-check --p 11 --n 3 --count 24 --seed 2", "f06c93fdbf33bc8484e453ad13dce9262ffc430a1875fa67f32db538920198a0"),
    ("expsum-check --p 19 --n 3 --count 24 --seed 2", "fdfcce0a1e0995c1a7843cd2984df634250417da3eba63cc4ebbc39fd62d4e2a"),
])
def test_case2_rows_pinned(argv, digest, capsys):
    # panels with Case II rows at p = 11 and 19 (2 or 3 each), byte for byte: SHA-256 of the JSONL output
    code, out, err = run_capture([*argv.split(), "--format", "jsonl"], capsys)
    assert (code, err) == (0, "")
    assert any('"CaseII"' in line or '"case2"' in line for line in out.splitlines())
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt, digest", [
    ("csv", "c7cf2a262dc7a74b0bd933b6a2d84f14c6bd9fe5d2e78de89627ada3963e6c2d"),
    ("jsonl", "870d60be99a86e38fc06691c7a2326ad07bdb35b5705faf5cd418dd2125702d5"),
])
def test_scan_sample_rows_pinned(fmt, digest, capsys):
    # a two-triple scan with its seed (the CSV's "# seed=5" line, a JSONL "seed" key), byte for byte
    argv = ["scan", "--p", "7", "--n", "3..4", "--sample", "2", "--seed", "5", "--format", fmt]
    code, out, err = run_capture(argv, capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()  # 2 triples x 2 moduli
    if fmt == "csv":
        assert lines[:2] == ["# seed=5", ",".join(SUBCOMMANDS["scan"].fields + ["schema_version"])]
        assert len(lines) == 6
    else:
        assert [json.loads(line)["seed"] for line in lines] == [5] * 4
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_expsum_check_skips_the_direct_sum_of_an_unsupported_row(capsys, monkeypatch):
    # the closed form runs first: the --p 7 --n 3 panel's unsupported case1 row queues no
    # direct sum; each ok row queues its classes, and one direct_sums call sums them all
    layers, batches = [], []
    real_layer_requests, real_direct_sums = expsum.layer_requests, expsum.direct_sums

    def layer_requests(s, k1, k2, x3, coeffs, pp):
        requests, weight = real_layer_requests(s, k1, k2, x3, coeffs, pp)
        layers.append(((k1, k2, x3), requests))
        return requests, weight

    def direct_sums(requests, pp):
        batches.append(list(requests))
        return real_direct_sums(requests, pp)

    monkeypatch.setattr(expsum, "layer_requests", layer_requests)
    monkeypatch.setattr(expsum, "direct_sums", direct_sums)
    argv = ["expsum-check", "--p", "7", "--n", "3", "--count", "12", "--seed", "1", "--format", "jsonl"]
    code, out, _ = run_capture(argv, capsys)
    rows = [json.loads(line) for line in out.splitlines()]
    unsupported = [(r["k1"], r["k2"], r["x3"]) for r in rows if r["status"] == "unsupported"]
    assert code == 0 and unsupported == [(143, 103, 5)]
    assert all(key != unsupported[0] for key, _ in layers)
    ok = [r for r in rows if r["status"] == "ok"]
    assert len(ok) == 11 and len(batches) == 1
    batch, layers = batches[0], iter(layers)
    for r in ok:  # in row order: a case row's layer-0 classes of one amplitude, a poly row's one class
        if r["source"] == "poly":
            f, alpha = batch.pop(0)
            assert alpha == r["alpha"] and f.denom == (1,)
            continue
        key, requests = next(layers)
        assert key == (r["k1"], r["k2"], r["x3"])
        assert batch[: len(requests)] == requests and len({id(f) for f, _ in requests}) == 1
        assert [a for _, a in requests] == sorted({a for _, a in requests})
        del batch[: len(requests)]
    assert batch == [] and next(layers, None) is None


def test_exit_codes(capsys):
    code, _, err = run_capture(
        ["count", "--p", "4", "--n", "1", "--coeffs", "1,1,-1", "--N", "2"], capsys
    )
    assert code == 2 and "odd prime" in err
    code, _, err = run_capture(
        ["count", "--p", "7", "--n", "2", "--coeffs", "1,1,-1", "--N", "1e7"], capsys
    )
    assert code == 2 and "budget" in err
    code, _, err = run_capture(["count", "--p", "7", "--n", "2", "--N", "2"], capsys)
    assert code == 2 and "coeffs" in err
    code, _, err = run_capture(
        ["count", "--p", "7", "--n", "9", "--coeffs", "1,2,3", "--N", "10"], capsys
    )
    assert code == 2 and "table budget" in err
    code, _, err = run_capture(["smallest", "--p", "7", "--n", "9", "--coeffs", "1,2,3"], capsys)
    assert code == 2 and "table budget" in err
    code, _, err = run_capture(["smallest", "--p", "7", "--n", "2", "--coeffs", "7,2,3"], capsys)
    assert code == 2 and "shares a factor" in err
    code, out, _ = run_capture(["expsum-check", "--p", "7", "--n", "3", "--fallback-direct"], capsys)
    assert code == 2 and out == ""
    for command in ("count", "predict"):
        for box in ("nan", "inf"):
            argv = [command, "--p", "7", "--n", "2", "--coeffs", "1,1,-1", "--N", box]
            code, out, err = run_capture(argv, capsys)
            assert code == 2 and out == "" and "finite" in err and "Traceback" not in err
    code, out, err = run_capture(
        ["predict", "--p", "7", "--n", "2", "--coeffs", "1,1,-1", "--N", "-5"], capsys
    )
    assert code == 2 and out == "" and "--N >= 0" in err and "Traceback" not in err
    for count in ("0", "-3"):
        code, out, err = run_capture(["expsum-check", "--p", "7", "--n", "3", "--count", count], capsys)
        assert code == 2 and out == "" and "--count" in err and "Traceback" not in err


# (argv, a substring of its error). Each once ended in a traceback, a hang, a silent wrong
# row, or a dry run that printed an estimate for an input the run refuses.
BAD_INPUTS = [
    ("dioph --mode approx --beta 3 --q 10 --Q 0", "q and Q must be >= 1"),
    ("dioph --mode countf --b1 7 --b2 1 --X 10 --q 49", "not invertible"),
    ("dioph --mode countf --b1 1 --b2 1 --X 2000000 --q 49", "X <= 10^6"),  # over count_F's cap
    ("dioph --mode reduce --b1 1 --b2 1 --b3 7 --q 49 --Q 3", "not invertible"),
    ("param-check --p 7 --n 9 --coeffs 1,2,3", "table budget"),
    ("param-check --p 7 --n 2 --coeffs 7,2,3", "shares a factor"),
    ("predict --p 7 --n 2 --coeffs 7,2,3 --N 5", "shares a factor"),
    ("count --p 7 --n 2 --coeffs 7,2,3 --N 5", "shares a factor"),
    ("scan --p 7 --n 2..3 --coeffs 1,14,3", "shares a factor"),
    ("dioph --mode approx --beta 3 --q 0 --Q 3", "q and Q must be >= 1"),  # an invalid modulus
    ("count --p 7 --n 2 --coeffs 1,1,-1 --N 1e308", "overflows"),
    ("scan --p 7 --n 2..3 --coeffs 1,2,3 --theta 1e6", "theta"),
    ("scan --p 7 --n 2..3 --coeffs 1,2,3 --theta nan", "theta"),
    ("scan --p -1 --n 3 --coeffs 1,2,3", "odd prime"),
    ("scan --p 0 --n 3 --coeffs 1,2,3", "odd prime"),
    ("count --p 7 --n 10000000000 --coeffs 1,2,3 --N 5", "2^62 cap"),
    ("predict --p 7 --n 10000000000 --coeffs 1,2,3 --N 5", "2^62 cap"),
    ("scan --p 7 --n 10000000000 --coeffs 1,2,3", "2^62 cap"),
    ("scan --p 7 --n 1..10000000000 --coeffs 1,2,3", "2^62 cap"),
    ("smallest --p 7 --n 10000000000 --coeffs 1,2,3", "2^62 cap"),
    ("param-check --p 7 --n 10000000000 --coeffs 1,2,3", "2^62 cap"),
    ("expsum-check --p 7 --n 10000000000", "2^62 cap"),
    ("dioph --mode equation --A 1 --B 1 --C 1 --x 100000000000", "exceeds the budget"),
    ("dioph --mode approx --beta 3 --q -5 --Q 3", "q and Q must be >= 1"),
    ("dioph --mode countf --b1 1 --b2 1 --X 10 --q -1", "q must be >= 1"),
    ("predict --p 7 --n 2 --coeffs 1,2,3 --N 1e200", "overflows"),
    # a removed flag, with values its float type once let through
    ("scan --p 7 --n 2..3 --coeffs 1,2,3 --truncation-radius 1e308", "unrecognized arguments"),
    ("scan --p 7 --n 2..3 --coeffs 1,2,3 --truncation-radius nan", "unrecognized arguments"),
    ("predict --p 7 --n 2 --N 5 --sample -1", "--sample"),
    ("count --p 7 --n 2 --N 5 --sample 10000000000", "--sample"),
    # q = 3^15 over TABLE_Q_MAX, each within the work budget
    ("param-check --p 3 --n 15 --coeffs 1,1,1", "table budget"),
    ("count --p 3 --n 15 --coeffs 1,1,1 --N 10", "table budget"),
    ("smallest --p 3 --n 15 --coeffs 1,1,1", "table budget"),
    ("scan --p 3 --n 15 --theta 0.51 --coeffs 1,1,-1", "table budget"),
    ("scan --p 3 --n 14..15 --theta 0.51 --coeffs 1,1,-1", "table budget"),  # counts no n before it refuses
    # a box half-width over TABLE_Q_MAX at a small q, sharp and Gaussian
    ("count --p 7 --n 2 --coeffs 1,2,3 --N 20000000 --sharp --budget 1000000000000000", "table budget"),
    ("count --p 7 --n 2 --coeffs 1,2,3 --N 2000000 --budget 1000000000000000", "table budget"),
    # a Gaussian box the count refuses, though the sharp box of N = 0 is empty and allowed
    ("count --p 7 --n 3 --coeffs 1,2,3 --N 0", "N >= 1"),
    ("count --p 7 --n 3 --coeffs 1,2,3 --N 0.5", "N >= 1"),
    ("dioph --mode equation --A 1 --B 1 --C 1 --x -5", "x must be >= 1"),  # once charged -9 work units
    ("dioph --mode equation --A 0 --B 1 --C 1 --x 5", "nonzero"),
    ("dioph --mode params --q 10 --M 11", "M <= q"),
    # a flag its mode does not read, once ignored with exit 0
    ("dioph --mode params --q 49 --M 7 --A 3", "does not read --A"),
    ("dioph --mode equation --A 1 --B 1 --C 1 --x 5 --q 49", "does not read --q"),
]


@pytest.mark.parametrize("argv, needle", BAD_INPUTS, ids=[argv for argv, _ in BAD_INPUTS])
def test_bad_inputs_exit_2_dry_run_or_not(argv, needle, capsys):
    # --dry-run refuses every input the run refuses, with the same bytes, before its budget
    # gate prints an estimate: one "error:" line from run, or argparse's usage and error
    run_out = run_capture(argv.split(), capsys)
    assert run_capture(argv.split() + ["--dry-run"], capsys) == run_out
    code, out, err = run_out
    assert code == 2 and out == "" and needle in err and "Traceback" not in err, err
    assert err.count("error:") == 1, err
    assert err.startswith("usage: ") or (err.startswith("error: ") and err.count("\n") == 1), err


def test_dioph_flags_are_the_modes_flags(capsys, tmp_path):
    # DIOPH_FLAGS declares the parser's dioph flags, and every one is read by some mode
    assert set(cli.DIOPH_FLAGS) == {f for flags, _, _ in DIOPH_MODES.values() for f in flags}
    # a config key is a flag: a mode refuses it as it refuses the flag, naming each extra one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 5}))
    argv = ["dioph", "--mode", "params", "--q", "49", "--M", "7", "--config", str(cfg), "--A", "3"]
    for dry in ([], ["--dry-run"]):
        assert run_capture(argv + dry, capsys) == (2, "", "error: dioph --mode params does not read --A, --beta\n")


def test_config_value_must_be_a_string_number_or_boolean(capsys, tmp_path, monkeypatch):
    # null once became --output=None and an array --output=['x']: each wrote a file of that name
    monkeypatch.chdir(tmp_path)
    for value in (None, ["x"], {"a": 1}):
        (tmp_path / "c.json").write_text(json.dumps({"output": value}))
        for dry in ([], ["--dry-run"]):
            argv = ["smallest", "--p", "7", "--n", "2", "--coeffs", "1,1,-1", "--config", "c.json", *dry]
            code, out, err = run_capture(argv, capsys)
            assert (code, out) == (2, ""), value
            assert err == "error: config c.json: field 'output' must be a string, number or boolean\n", err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"], value
    # a boolean is a value only for a switch: for --budget, false is refused as true is, not dropped
    argv = ["count", "--p", "7", "--n", "2", "--coeffs", "1,1,-1", "--N", "5", "--sharp", "--config", "c.json"]
    for value in (False, True):
        (tmp_path / "c.json").write_text(json.dumps({"budget": value}))
        for dry in ([], ["--dry-run"]):
            code, out, err = run_capture([*argv, *dry], capsys)
            assert (code, out) == (2, ""), value
            assert err == "error: config c.json: field 'budget' takes a value, not a boolean\n", err
    for value in (False, True):
        (tmp_path / "c.json").write_text(json.dumps({"sharp": value, "dry_run": value}))
        assert run_capture(argv, capsys)[0] == 0, value
    # and a switch takes only a boolean: 1 once reached argparse as --sharp=1, its usage block on stderr
    argv.remove("--sharp")
    for value in (1, 0, "yes"):
        (tmp_path / "c.json").write_text(json.dumps({"sharp": value}))
        for dry in ([], ["--dry-run"]):
            code, out, err = run_capture([*argv, *dry], capsys)
            assert (code, out) == (2, ""), value
            assert err == "error: config c.json: field 'sharp' is a switch: true or false\n", err


def test_deeply_nested_config_exits_2(capsys, tmp_path, monkeypatch):
    # a nest past the decoder's recursion limit once ended in a RecursionError traceback and exit 1
    monkeypatch.chdir(tmp_path)
    deep = "[" * 100_000 + "]" * 100_000
    for doc in (deep, '{"seed": ' + deep + "}"):
        (tmp_path / "c.json").write_text(doc)
        for dry in ([], ["--dry-run"]):
            code, out, err = run_capture(["selftest", "--config", "c.json", *dry], capsys)
            assert (code, out) == (2, ""), doc[:12]
            assert err.startswith("error: config c.json: ") and err.count("\n") == 1, err
            assert "recursion" in err, err


def test_coeffs_with_sample_exits_2(capsys):
    # --sample would be ignored while the output still carried its seed
    for argv in (["count", "--p", "7", "--n", "2", "--N", "5", "--sharp"],
                 ["smallest", "--p", "7", "--n", "2"]):
        for fmt in ("csv", "jsonl"):
            code, out, err = run_capture(
                argv + ["--coeffs", "1,1,-1", "--sample", "3", "--format", fmt], capsys)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, err


def test_budget_charges(capsys):
    # count charges its per-triple units once per triple: 1000 * int(2)^2
    argv = ["count", "--p", "7", "--n", "2", "--sample", "1000", "--N", "2", "--sharp"]
    code, out, err = run_capture(argv + ["--budget", "4"], capsys)
    assert code == 2 and out == "" and "4000" in err
    # scan charges its per-triple units once per triple, and only at the gate: 2 * (72^2 + 228^2)
    argv = ["scan", "--p", "7", "--n", "2..3", "--sample", "2"]
    assert census.estimate_scan_work(7, [2, 3], 0.62) == 57168
    code, out, err = run_capture(argv + ["--budget", "100000"], capsys)
    assert code == 2 and out == "" and err == (
        "error: estimated work 114336 pair visits exceeds the budget 100000; raise --budget or shrink the request\n")
    code, out, _ = run_capture(argv + ["--dry-run"], capsys)
    assert code == 0 and out == "dry-run: estimated work units = 114336 (budget 1000000000)\n"
    # param-check charges q * p per triple: 3 * 7^6
    argv = ["param-check", "--p", "7", "--n", "5", "--sample", "3"]
    code, out, _ = run_capture(argv + ["--dry-run"], capsys)
    assert code == 0 and out == "dry-run: estimated work units = 352947 (budget 1000000000)\n"
    code, out, _ = run_capture(argv + ["--budget", "200000"], capsys)
    assert code == 2 and out == ""
    # dioph --mode equation walks X over [-x, x]: 2x + 1 steps
    argv = ["dioph", "--mode", "equation", "--A", "1", "--B", "1", "--C", "2", "--x", "50"]
    code, out, _ = run_capture(argv + ["--dry-run"], capsys)
    assert code == 0 and out == "dry-run: estimated work units = 101 (budget 1000000000)\n"
    code, out, _ = run_capture(argv + ["--budget", "100"], capsys)
    assert code == 2 and out == ""


def test_selftest_dry_run_runs_no_check(capsys, monkeypatch):
    def no_check(*args):
        raise AssertionError("ran a check on a dry run")

    monkeypatch.setattr(census, "count_mod_p", no_check)
    code, out, _ = run_capture(["selftest", "--dry-run"], capsys)
    assert code == 0 and out == "dry-run: estimated work units = 0 (budget 1000000000)\n"
    code, out, _ = run_capture(["selftest", "--budget", "-1"], capsys)
    assert code == 2 and out == ""


DIOPH_FLAGS = ["--A", "--B", "--C", "--x", "--beta", "--q", "--Q", "--b1", "--b2", "--b3", "--X", "--M"]
HOSTILE = [
    "0", "-1", "nan", "inf", "-inf", "1e308", "1e10", "10000000000", "",
    "1,2", "1,,3", "a,b,c", "1,2,3,4", "7,2,3", "3..2", "1..x", "..", "2..10000000000", "-1..2",
    *DIOPH_MODES,
]
FLAG_VALUES = {
    "--p": ["3", "5", "7"],
    "--n": ["1", "2", "3", "1..3", "2..3"],
    "--coeffs": ["1,2,3", "1,1,-1", "3,5,6", "1,1,1"],
    "--N": ["1", "5", "2.5"],
    "--sharp": None,
    "--theta": ["0.62", "1"],
    "--count": ["1", "3"],
    "--sample": ["1", "2", "3"],
    "--mode": list(DIOPH_MODES),
    "--seed": ["1", "2"],
    "--workers": ["1", "8"],
    "--dry-run": None,
    "--format": ["csv", "jsonl"],
    **{flag: ["1", "2", "3", "7", "10", "49"] for flag in DIOPH_FLAGS},
}
COMMON = ["--seed", "--workers", "--dry-run", "--format"]
# subcommand -> (the flags it needs to get past its required-flag check, its other flags)
SUBCOMMAND_FLAGS = {
    "count": (["--p", "--n", "--coeffs", "--N"], ["--sample", "--sharp", *COMMON]),
    "predict": (["--p", "--n", "--coeffs", "--N"], ["--sample", "--sharp", *COMMON]),
    "scan": (["--p", "--n", "--coeffs"], ["--sample", "--theta", "--sharp", *COMMON]),
    "smallest": (["--p", "--n", "--coeffs"], ["--sample", *COMMON]),
    "param-check": (["--p", "--n", "--coeffs"], ["--sample", *COMMON]),
    "expsum-check": (["--p", "--n"], ["--count", *COMMON]),
    "dioph": (["--mode", *DIOPH_FLAGS], COMMON),
    "selftest": ([], COMMON),
}


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    required, optional = SUBCOMMAND_FLAGS[command]
    flags = draw(st.lists(st.sampled_from(required + optional), max_size=7))
    if draw(st.booleans()):  # half the runs carry every required flag and get past that check
        flags = required + flags
    argv = [command]
    for flag in dict.fromkeys(flags):
        argv.append(flag)
        if FLAG_VALUES[flag] is not None:
            # hostile one time in four, so that most runs get past the first bad value
            pool = FLAG_VALUES[flag] if draw(st.integers(0, 3)) else HOSTILE
            argv.append(draw(st.sampled_from(pool)))
    # 10^6 admits the flat charge of the non-equation dioph modes, so they run
    return argv + ["--budget", "1000000"]


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(hostile_argv())
def test_hostile_flags_exit_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv


def test_output_file(capsys, tmp_path):
    argv = ["count", "--p", "7", "--n", "2", "--coeffs", "1,1,-1", "--N", "5", "--sharp"]
    code, want, _ = run_capture(argv, capsys)
    assert code == 0
    path = tmp_path / "out.csv"
    assert run_capture(argv + ["--output", str(path)], capsys) == (0, "", "")
    assert path.read_text() == want
    # a path that cannot be written is invalid input like any other: one error line, exit 2
    code, out, err = run_capture(argv + ["--output", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_dry_run(capsys):
    code, out, _ = run_capture(
        ["scan", "--p", "7", "--n", "2..3", "--coeffs", "1,1,-1", "--dry-run"], capsys
    )
    assert code == 0
    assert out.startswith("dry-run: estimated work units")
    # the sharp box of N = 0 is empty: the run counts 0 and the dry run charges 0
    sharp = ["count", "--p", "7", "--n", "3", "--coeffs", "1,2,3", "--N", "0", "--sharp"]
    assert run_capture(sharp, capsys)[0] == 0
    assert run_capture(sharp + ["--dry-run"], capsys) == (
        0, "dry-run: estimated work units = 0 (budget 1000000000)\n", "")


def test_smallest_budget_summed_before_search(capsys, monkeypatch):
    # (1,2,3) mod 7^4: C_p = 24/49 gives m_est = ceil((2401 * 49/24)^(1/3)) = 17,
    # so boxes M = 1, 2, ..., 32 visit sum M(2M+1) = 2793 (x1, x2) pairs
    code, out, _ = run_capture(
        ["smallest", "--p", "7", "--n", "4", "--coeffs", "1,2,3", "--dry-run"], capsys
    )
    assert code == 0 and out == "dry-run: estimated work units = 2793 (budget 1000000000)\n"
    # three sampled triples mod 7^6 need 11049 pairs each (boxes up to 64)
    argv = ["smallest", "--p", "7", "--n", "6", "--sample", "3"]
    code, out, _ = run_capture(argv + ["--dry-run"], capsys)
    assert code == 0 and out == "dry-run: estimated work units = 33147 (budget 1000000000)\n"

    def no_search(*args):
        raise AssertionError("searched before the budget check")

    monkeypatch.setattr(census, "smallest_solution", no_search)
    code, out, err = run_capture(argv + ["--budget", "20000"], capsys)
    assert code == 2 and out == "" and "33147" in err


def test_smallest_budget_bounds_boxes_past_the_charge(capsys):
    # (1,1,1) mod 7^4 is charged 713 (boxes up to M = 16), but its m = 36 needs
    # the boxes 32 and 64 too: 713 + 32*65 = 2793 and 2793 + 64*129 = 11049
    argv = ["smallest", "--p", "7", "--n", "4", "--coeffs", "1,1,1", "--budget"]
    for budget, box, work in (("800", 32, 2793), ("11048", 64, 11049)):
        code, out, err = run_capture(argv + [budget], capsys)
        assert code == 2 and out == "" and err.count("\n") == 1, err
        assert err == f"error: smallest needs ~{work} pair visits by box {box}, over the budget {budget}\n"
    code, out, _ = run_capture(argv + ["11049"], capsys)
    assert code == 0 and out.splitlines()[1] == "7,4,2401,1,1,1,36,4,-36,-33,1"
    # Two sampled triples are charged 2793 + 713 = 3506, but the second, (1,2,4),
    # needs box 32 too: the run's boxes then total 2793 + 2793 = 5586.
    argv = ["smallest", "--p", "7", "--n", "4", "--sample", "2", "--seed", "2", "--budget"]
    code, out, err = run_capture(argv + ["3506"], capsys)
    assert code == 2 and out == "" and err.count("\n") == 1, err
    assert err == "error: smallest needs ~5586 pair visits by box 32, over the budget 3506\n"
    code, out, _ = run_capture(argv + ["5586"], capsys)
    assert code == 0 and out.splitlines()[2:] == ["7,4,2401,5,3,4,18,9,-18,-16,1", "7,4,2401,1,2,4,20,1,-20,-20,1"]


def test_selftest(capsys):
    code, out, _ = run_capture(["selftest"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_selftest_names_the_failed_checks(capsys, monkeypatch):
    monkeypatch.setattr(conic, "count_unit_circle", lambda *args: 0)
    code, out, err = run_capture(["selftest"], capsys)
    assert (code, out, err) == (1, "", "internal assertion failure: selftest failed: unit-circle\n")


def test_jsonl_round_trip(capsys, tmp_path):
    code, out, _ = run_capture(
        ["predict", "--p", "7", "--n", "4", "--coeffs", "1,1,-1", "--N", "100",
         "--format", "jsonl"], capsys
    )
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["p"] == 7 and doc["schema_version"] == 1
    # a jsonl record doubles as a config file for the same subcommand
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": doc["p"], "n": doc["n"], "N": doc["N"],
                               "coeffs": "1,1,-1"}))
    code2, out2, _ = run_capture(["predict", "--config", str(cfg)], capsys)
    assert code2 == 0
    doc_line = out2.strip().splitlines()[1]
    assert doc_line.split(",")[8] == f"{doc['predicted']:.12g}"


def test_config_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 7, "n": 1, "coeffs": "1,1,-1", "N": 3, "sharp": True}))
    code, out, _ = run_capture(["count", "--config", str(cfg)], capsys)
    assert code == 0 and out.strip().splitlines()[1].endswith("sharp,24,1")
    # explicit flag overrides the file value
    code, out, _ = run_capture(["count", "--config", str(cfg), "--N", "0"], capsys)
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[8] == "0"
    cfg.write_text(json.dumps({"no_such_field": 1}))
    code, _, err = run_capture(["count", "--config", str(cfg), "--p", "7", "--n", "1",
                                "--coeffs", "1,1,-1", "--N", "1"], capsys)
    assert code == 2 and "unknown field" in err
    # config values are converted and type-checked like the flags they name
    explicit = run_capture(["count", "--p", "7", "--n", "1", "--coeffs", "1,1,-1",
                            "--N", "3", "--sharp"], capsys)
    cfg.write_text(json.dumps({"p": "7", "n": 1, "coeffs": "1,1,-1", "N": 3, "sharp": True}))
    assert run_capture(["count", "--config", str(cfg)], capsys) == explicit
    nested = {"config": "missing.json", "p": 7, "n": 1, "coeffs": "1,1,-1", "N": 3}
    for doc in ({"p": 7.5}, {"seed": None}, [{"p": 7}], {"command": "nope"}, nested):
        cfg.write_text(json.dumps(doc))
        code, out, err = run_capture(["count", "--config", str(cfg), "--p", "7", "--n", "1",
                                      "--coeffs", "1,1,-1", "--N", "1"], capsys)
        assert code == 2 and out == "" and "Traceback" not in err, doc
    # scan's config key is its flag name, n
    cfg.write_text(json.dumps({"n": "3..4"}))
    code, out, _ = run_capture(["scan", "--config", str(cfg), "--p", "7", "--coeffs", "1,1,-1",
                                "--dry-run"], capsys)
    assert code == 0 and out.startswith("dry-run: estimated work units")
    # an explicit flag, even abbreviated, beats the config: N = ceil(343^0.62) = 38 and
    # (6 * 38)^2 = 51984, where theta 0.9 would give N = 192
    cfg.write_text(json.dumps({"theta": 0.9}))
    code, out, _ = run_capture(["scan", "--config", str(cfg), "--p", "7", "--n", "3",
                                "--coeffs", "1,1,-1", "--thet", "0.62", "--dry-run"], capsys)
    assert code == 0 and out == "dry-run: estimated work units = 51984 (budget 1000000000)\n"


def test_identical_seed_identical_bytes(capsys):
    argv = ["scan", "--p", "7", "--n", "2..3", "--sample", "2", "--seed", "42"]
    code1, out1, _ = run_capture(argv + ["--workers", "1"], capsys)
    code2, out2, _ = run_capture(argv + ["--workers", "8"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical across worker counts
    assert out1.startswith("# seed=42\n")


def test_emit_float_formatting():
    buf = io.StringIO()
    emit([dict(mode="x", inputs="i", result=1 / 3)], SUBCOMMANDS["dioph"].fields, "csv", buf)
    assert "0.333333333333" in buf.getvalue()
    with pytest.raises(Exception):
        emit([], SUBCOMMANDS["dioph"].fields, "yaml", io.StringIO())


def test_splitmix_determinism():
    a = Splitmix64(7)
    b = Splitmix64(7)
    assert [a.next() for _ in range(5)] == [b.next() for _ in range(5)]
    assert all(1 <= Splitmix64(1).unit(7) <= 6 for _ in range(10))


def test_expsum_check_subcommand(capsys):
    code, out, _ = run_capture(
        ["expsum-check", "--p", "7", "--n", "3", "--count", "5", "--seed", "3"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,n,q,source,k1,k2,x3,alpha,status,rel_err")
    for line in lines[1:]:
        cells = line.split(",")
        status, rel = cells[8], cells[9]
        if status == "ok":
            assert float(rel) < 1e-6


def test_dioph_subcommand(capsys):
    code, out, _ = run_capture(
        ["dioph", "--mode", "params", "--q", str(7**6), "--M", "343"], capsys
    )
    assert code == 0
    assert "R=4" in out
    code, out, _ = run_capture(
        ["dioph", "--mode", "approx", "--beta", "7", "--q", "10", "--Q", "3"], capsys
    )
    assert code == 0 and "a=2;r=3" in out


def _actions(parser):
    # (option strings, dest, type, default, choices, help, action class) of each action, in order
    return [(" ".join(a.option_strings), a.dest, getattr(a.type, "__name__", a.type), a.default,
             a.choices, a.help, type(a).__name__) for a in parser._actions]


HELP_ACTION = ("-h --help", "help", None, "==SUPPRESS==", None, "show this help message and exit", "_HelpAction")
COMMON_ACTIONS = [
    ("--config", "config", None, None, None, "JSON file with defaults for these flags", "_StoreAction"),
    ("--seed", "seed", "int", 1, None, None, "_StoreAction"),
    ("--workers", "workers", "int", None, None, None, "_StoreAction"),
    ("--budget", "budget", "int", 1000000000, None, None, "_StoreAction"),
    ("--dry-run", "dry_run", None, False, None, None, "_StoreTrueAction"),
    ("--output", "output", None, None, None, "file path; default stdout", "_StoreAction"),
    ("--format", "format", None, "csv", ["csv", "jsonl"], None, "_StoreAction"),
]
P_ACTION = ("--p", "p", "int", None, None, None, "_StoreAction")
N_ACTION = ("--n", "n", "int", None, None, None, "_StoreAction")
TRIPLE_ACTIONS = [
    ("--coeffs", "coeffs", None, None, None, "a1,a2,a3", "_StoreAction"),
    ("--sample", "sample", "int", None, None, "number of sampled coefficient triples, 1..10^6", "_StoreAction"),
]
BOX_ACTIONS = [
    ("--N", "N", "float", None, None, None, "_StoreAction"),
    ("--sharp", "sharp", None, False, None, None, "_StoreTrueAction"),
]
# Each subcommand's help line and its parser's actions, recorded from the parser that spelled
# out every add_argument call; --help prints them in this order.
PARSER_ACTIONS = {
    "count": ("sharp or smoothed box count", [P_ACTION, N_ACTION, *TRIPLE_ACTIONS, *BOX_ACTIONS]),
    "predict": ("main-term prediction", [P_ACTION, N_ACTION, *TRIPLE_ACTIONS, *BOX_ACTIONS]),
    "scan": ("observed/predicted ratios over an n range", [
        P_ACTION, *TRIPLE_ACTIONS,
        ("--n", "n", None, None, None, "e.g. 3..6", "_StoreAction"),
        ("--theta", "theta", "float", 0.62, None, None, "_StoreAction"),
        BOX_ACTIONS[1],
    ]),
    "smallest": ("minimal max-norm solution", [P_ACTION, N_ACTION, *TRIPLE_ACTIONS]),
    "param-check": ("parametrization coverage check", [P_ACTION, N_ACTION, *TRIPLE_ACTIONS]),
    "expsum-check": ("closed forms vs direct sums", [
        P_ACTION, N_ACTION, ("--count", "count", "int", 20, None, None, "_StoreAction"),
    ]),
    "dioph": ("Diophantine toolkit", [
        ("--mode", "mode", None, None, ["equation", "approx", "countf", "reduce", "params"], None, "_StoreAction"),
        *((f"--{d}", d, "int", None, None, None, "_StoreAction")
          for d in ("A", "B", "C", "x", "beta", "q", "Q", "b1", "b2", "b3", "X", "M")),
    ]),
    "selftest": ("run the bundled invariant checks", []),
}


def test_parser_actions_pinned():
    # the parser built from SUBCOMMANDS makes the same add_argument calls, in the same order
    sub = next(a for a in cli.PARSER._actions if isinstance(a, argparse._SubParsersAction))
    helps = [(name, help_line) for name, (help_line, _) in PARSER_ACTIONS.items()]
    assert [(c.dest, c.help) for c in sub._choices_actions] == helps
    assert list(sub.choices) == list(SUBCOMMANDS) == list(PARSER_ACTIONS)
    for name, (_, own) in PARSER_ACTIONS.items():
        assert _actions(sub.choices[name]) == [HELP_ACTION, *own, *COMMON_ACTIONS], name


# Small runs of every handler; dioph once per mode, smallest with and without a solution
HANDLER_RUNS = [
    "count --p 7 --n 2 --coeffs 1,1,-1 --N 5 --sharp",
    "count --p 7 --n 2 --sample 2 --N 3",
    "predict --p 7 --n 2 --coeffs 1,1,-1 --N 5",
    "scan --p 7 --n 2..3 --coeffs 1,1,-1",
    "smallest --p 7 --n 2 --coeffs 1,1,-1",
    "smallest --p 5 --n 1 --coeffs 1,1,-1",
    "param-check --p 7 --n 2 --coeffs 1,1,-1",
    "expsum-check --p 7 --n 3 --count 12",
    "dioph --mode equation --A 1 --B 1 --C 2 --x 5",
    "dioph --mode approx --beta 7 --q 10 --Q 3",
    "dioph --mode countf --b1 1 --b2 2 --X 10 --q 49",
    "dioph --mode reduce --b1 22 --b2 1 --b3 1 --q 49 --Q 7",
    "dioph --mode params --q 49 --M 7",
    "selftest",
]


def test_handler_rows_carry_exactly_the_fields():
    # emit prints a misspelled or missing key as an empty column: each row's keys are the columns
    assert {argv.split()[0] for argv in HANDLER_RUNS} == set(SUBCOMMANDS)
    for argv in HANDLER_RUNS:
        args = cli.PARSER.parse_args(argv.split())
        cmd = SUBCOMMANDS[args.command]
        rows = cmd.handler(args, Splitmix64(args.seed))
        assert rows and all(list(row) == list(cmd.fields) for row in rows), argv
