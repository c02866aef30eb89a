import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from conic_lab import census
from conic_lab.cli import DIOPH_MODES, FIELDS, Splitmix64, emit, run
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
    for argv in BAD_INPUTS:
        code, out, err = run_capture(argv, capsys)
        assert code == 2 and out == "" and "Traceback" not in err, argv
        assert err.count("error:") == 1, argv


# Each of these once ended in a traceback, a hang or a silent wrong row.
BAD_INPUTS = [
    ["dioph", "--mode", "approx", "--beta", "3", "--q", "10", "--Q", "0"],
    ["dioph", "--mode", "countf", "--b1", "7", "--b2", "1", "--X", "10", "--q", "49"],
    ["dioph", "--mode", "countf", "--b1", "1", "--b2", "1", "--X", "2000000", "--q", "49"],
    ["dioph", "--mode", "reduce", "--b1", "1", "--b2", "1", "--b3", "7", "--q", "49", "--Q", "3"],
    ["param-check", "--p", "7", "--n", "9", "--coeffs", "1,2,3"],
    ["param-check", "--p", "7", "--n", "2", "--coeffs", "7,2,3"],
    ["predict", "--p", "7", "--n", "2", "--coeffs", "7,2,3", "--N", "5"],
    ["dioph", "--mode", "approx", "--beta", "3", "--q", "0", "--Q", "3"],
    ["count", "--p", "7", "--n", "2", "--coeffs", "1,1,-1", "--N", "1e308"],
    ["scan", "--p", "7", "--n", "2..3", "--coeffs", "1,2,3", "--theta", "1e6"],
    ["scan", "--p", "7", "--n", "2..3", "--coeffs", "1,2,3", "--theta", "nan"],
    ["scan", "--p", "-1", "--n", "3", "--coeffs", "1,2,3"],
    ["scan", "--p", "0", "--n", "3", "--coeffs", "1,2,3"],
    ["count", "--p", "7", "--n", "10000000000", "--coeffs", "1,2,3", "--N", "5"],
    ["predict", "--p", "7", "--n", "10000000000", "--coeffs", "1,2,3", "--N", "5"],
    ["scan", "--p", "7", "--n", "10000000000", "--coeffs", "1,2,3"],
    ["scan", "--p", "7", "--n", "1..10000000000", "--coeffs", "1,2,3"],
    ["smallest", "--p", "7", "--n", "10000000000", "--coeffs", "1,2,3"],
    ["param-check", "--p", "7", "--n", "10000000000", "--coeffs", "1,2,3"],
    ["expsum-check", "--p", "7", "--n", "10000000000"],
    ["dioph", "--mode", "equation", "--A", "1", "--B", "1", "--C", "1", "--x", "100000000000"],
    ["dioph", "--mode", "approx", "--beta", "3", "--q", "-5", "--Q", "3"],
    ["dioph", "--mode", "countf", "--b1", "1", "--b2", "1", "--X", "10", "--q", "-1"],
    ["predict", "--p", "7", "--n", "2", "--coeffs", "1,2,3", "--N", "1e200"],
    # a removed flag, with values its float type once let through
    ["scan", "--p", "7", "--n", "2..3", "--coeffs", "1,2,3", "--truncation-radius", "1e308"],
    ["scan", "--p", "7", "--n", "2..3", "--coeffs", "1,2,3", "--truncation-radius", "nan"],
    ["predict", "--p", "7", "--n", "2", "--N", "5", "--sample", "-1"],
    ["count", "--p", "7", "--n", "2", "--N", "5", "--sample", "10000000000"],
]


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


def test_bad_thread_env_exits_2(capsys, monkeypatch):
    # the shared parser from a good call must not bypass the env check
    assert run_capture(["selftest"], capsys)[0] == 0
    monkeypatch.setenv("CONIC_LAB_THREADS", "abc")
    code, out, err = run_capture(["selftest"], capsys)
    assert code == 2 and out == ""
    assert "CONIC_LAB_THREADS" in err and "Traceback" not in err


def test_dry_run(capsys):
    code, out, _ = run_capture(
        ["scan", "--p", "7", "--n", "2..3", "--coeffs", "1,1,-1", "--dry-run"], capsys
    )
    assert code == 0
    assert out.startswith("dry-run: estimated work units")


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


def test_selftest(capsys):
    code, out, _ = run_capture(["selftest"], capsys)
    assert code == 0
    assert "FAIL" not in out


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
    for doc in ({"p": 7.5}, {"seed": None}, [{"p": 7}], {"command": "nope"}):
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
    emit([dict(mode="x", inputs="i", result=1 / 3)], FIELDS["dioph"], "csv", buf)
    assert "0.333333333333" in buf.getvalue()
    with pytest.raises(Exception):
        emit([], FIELDS["dioph"], "yaml", io.StringIO())


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
