"""CLI contract: subcommands, formats, exit codes, round-trips."""
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hkcount
from hkcount.cli import EXIT_INFINITE, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, \
    _direct_counts, main
from hkcount.constants import _ZP_BUDGET
from hkcount.enumeration import enum_hk_points
from hkcount.geometry import HKVariety, LineBundleClass, anticanonical
from hkcount.heights import Region, height_L_sq, parse_point


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPredict:
    def test_threefold_text(self, capsys):
        code, out, _ = run(capsys, "predict", "--variety", "2,2:0,1",
                           "--bundle", "3,4")
        assert code == EXIT_OK
        assert "C = 0.83190737" in out
        assert "a = 1" in out and "logExponent = 1" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "predict", "--variety", "1,2:1",
                           "--bundle", "2,3", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        again = json.loads(json.dumps(doc))
        assert again == doc
        assert doc["prediction"]["C"] == pytest.approx(6 / math.pi ** 2)
        assert doc["prediction"]["case"] == "EqualCase"
        assert doc["prediction"]["a"] == "1"

    def test_default_bundle_is_anticanonical(self, capsys):
        code, out, _ = run(capsys, "predict", "--variety", "1,2:1",
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["bundle"] == "2,3"

    def test_parse_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--variety", "nonsense", "--bundle", "1,1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, value, rel", [
        (["1,2:1", "146,1"], 0.0763796722871784, 1e-12),
        (["1,2:1", "400,1"], 0.04609470278953, 1e-12),
        (["1,400:1", "1,1"], 2.13453310176345e-277, 1e-12),
        (["1,2:1", "1000000,1"], 0.000921317962253074, 1e-8),
    ], ids=["146", "400", "X_2(400)", "10^6"])
    def test_constant_past_the_xi_range_prints(self, capsys, argv, value,
                                               rel):
        # the xi factors of these constants (xi(1199) and xi(1200) for
        # bundle 400,1) or their products are beyond double range, the
        # constants are not [DERIVED: mpmath, 30 digits]; at 10^6 the logs
        # of the xi factors are about 1.8e7, and their double rounding
        # alone leaves a relative error near 1e-9
        code, out, err = run(capsys, "predict", "--variety", argv[0],
                             "--bundle", argv[1], "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        got = json.loads(out)["prediction"]["C"]
        assert got == pytest.approx(value, rel=rel)

    def test_text_keeps_significant_digits(self, capsys):
        # C = 1/(802 xi(401)); a fixed-point format would print 0.00000000
        code, out, _ = run(capsys, "predict", "--variety", "1,400:1",
                           "--bundle", "1,1")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "C = 2.1345331e-277" in lines[1]
        assert "(open): C = 2.1345331e-277" in lines[2]

    @pytest.mark.parametrize("command", [
        ["predict", "--variety", "1,2:1"],
        ["count", "--variety", "1,2:1", "--B", "3"],
        ["tables"],
        ["zeta", "--what", "zeta", "--s", "2"],
        ["verify", "--suite", "residue"],
    ], ids=lambda argv: argv[0])
    def test_csv_is_for_sweep_only(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--variety", "1,3:0", "--bundle", "669,1003"],
         "Z_(P^1) argument 2007/1003 too close to its pole 2"),
        (["--variety", "1,2:1", "--bundle", "669,1003"],
         "xi/Z argument 1004/1003 too close to a pole"),
    ], ids=["product", "twisted"])
    def test_next_to_a_pole_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, "predict", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_infinite_message_is_counts(self, capsys):
        code, out, err = run(capsys, "predict", "--variety", "1,2:1",
                             "--bundle=0,5")
        assert (code, out) == (EXIT_INFINITE, "")
        assert err == ("infinite: bundle 0,5 is not big on 1,2:1; "
                       "the count is infinite\n")
        assert run(capsys, "count", "--variety", "1,2:1", "--bundle=0,5",
                   "--B", "3", "--region", "u") == (EXIT_INFINITE, "", err)


class TestCount:
    def test_good_open_at_height_one(self, capsys):
        # [DERIVED: brute force at B = 1 -- base [1:0],[0:1] x fiber [1:0]]
        code, out, _ = run(capsys, "count", "--variety", "1,2:1",
                           "--bundle", "1,1", "--B", "1", "--region", "u")
        assert code == EXIT_OK
        assert "= 2 " in out

    def test_rational_bound(self, capsys):
        code, out, _ = run(capsys, "count", "--variety", "1,2:1",
                           "--bundle", "1,1", "--B", "5/2", "--region", "u",
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["count"] > 0

    def test_squared_bound_past_int64(self, capsys):
        # B^2 >= 2^63 with e = lam a_r - mu = 0 leaves p outside int64; the
        # count equals the one at B = 3037000499, the largest B with
        # B^2 < 2^63, and the per-norm path over the same histogram
        code, out, _ = run(capsys, "count", "--variety", "1,2:1", "--bundle",
                           "3,3", "--region", "u", "--B", "3037000500",
                           "--threads", "1")
        assert code == EXIT_OK
        assert "= 5291493624 " in out

    @pytest.mark.parametrize("variety, B, count", [
        ("1,4:1", "300", 18465811576),
        ("1,5:1", "40", 260150161),
    ], ids=["P^3", "P^4"])
    def test_high_dimensional_subbundle(self, capsys, variety, B, count):
        # F is P^3 (P^4) at norm^2 <= B^2, a Mobius sieve over Z^4 (Z^5)
        # balls [DERIVED: the same sieve with every ball taken by the
        # coordinate recursion down to Z^3]
        code, out, _ = run(capsys, "count", "--variety", variety, "--bundle",
                           "1,2", "--region", "f", "--B", B, "--threads", "1")
        assert code == EXIT_OK
        assert f"= {count} " in out

    def test_infinite_region_exit_code(self, capsys):
        code, _, err = run(capsys, "count", "--variety", "1,2:1",
                           "--bundle", "4,1", "--B", "10", "--region", "f")
        assert code == EXIT_INFINITE
        assert "infinite" in err

    def test_stream_lists_points(self, capsys):
        code, out, _ = run(capsys, "count", "--variety", "1,2:1",
                           "--bundle", "1,1", "--B", "1", "--region", "u",
                           "--stream")
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 2
        assert all(";" in ln for ln in lines)

    def test_stream_f_without_a_relative_class(self, capsys):
        # lam = 0: F of 1,2:1 is P^1 with the twist 5, each base point
        # carries the one F point (0 : 1), of height Nq^(5/2) <= 30
        code, out, _ = run(capsys, "count", "--variety", "1,2:1",
                           "--bundle=0,5", "--B", "30", "--region", "f",
                           "--format", "json")
        assert (code, json.loads(out)["count"]) == (EXIT_OK, 4)
        code, out, err = run(capsys, "count", "--variety", "1,2:1",
                             "--bundle=0,5", "--B", "30", "--region", "f",
                             "--stream")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines() == ["[0:1];[0:1]", "[1:-1];[0:1]",
                                    "[1:0];[0:1]", "[1:1];[0:1]"]

    @pytest.mark.parametrize("argv", [
        ["--variety", "2,2:0,1", "--bundle=0,5", "--B", "3", "--region", "f"],
        ["--variety", "1,2:1", "--bundle", "2,0", "--B", "3", "--region", "f"],
        ["--variety", "1,2:1", "--bundle", "0,5", "--B", "3", "--region", "u"],
        ["--variety", "2,2:0,3", "--bundle", "2,5", "--B", "3", "--region", "x"],
    ], ids=["F-lam-0", "F-twist", "U", "whole-middle"])
    def test_stream_infinite_message_is_counts(self, capsys, argv):
        code, out, err = run(capsys, "count", *argv)
        assert (code, out) == (EXIT_INFINITE, "")
        assert err.startswith("infinite: ") and err.endswith(
            "the count is infinite\n")
        assert run(capsys, "count", *argv, "--stream") == (code, out, err)


# the invariants of Q as a field file; a later line overrides an earlier one
_Q_FIELD = "r1=1\nr2=0\nw=2\nabsDisc=1\nregulator=1.0\nclassNumber=1\n"

# values no number field has, each of which used to give a traceback or
# pass: by id, the lines that override _Q_FIELD
_DEGENERATE_FIELDS = {
    "regulator-negative": "regulator=-1\n",
    "regulator-nan": "regulator=nan\n",
    "w-zero": "w=0\n",
    "absDisc-zero": "absDisc=0\n",
    "classNumber-zero": "classNumber=0\n",
    "zetaK-negative": "zetaK.2=-1\n",
    "r1-negative": "r1=-1\nr2=1\n",
}


class TestInputErrors:
    """Each bad input exits 2 with a one-line message, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["count", "--variety", "1,2:1", "--B", "0"],
        ["count", "--variety", "1,2:1", "--B", "0/3"],
        ["count", "--variety", "1,2:1", "--B=-3"],
        ["sweep", "--variety", "1,2:1", "--grid", "0,2"],
        ["sweep", "--variety", "1,2:1", "--grid=-2,2"],
        ["count", "--variety", "1,2:1", "--B", "5", "--threads", "0"],
        ["count", "--variety", "1,2:1", "--B", "5", "--threads=-2"],
        ["verify", "--suite", "residue", "--threads", "0"],
        ["zeta", "--what", "zetaP", "--m", "1", "--s", "6", "--numeric",
         "--tol", "0"],
        ["zeta", "--what", "zetaP", "--m", "1", "--s", "6", "--numeric",
         "--tol=-1"],
        ["zeta", "--what", "zeta", "--s", "3", "--tol", "inf"],
        ["zeta", "--what", "zeta", "--s", "nan"],
        ["zeta", "--what", "zeta", "--s", "inf"],
        ["zeta", "--what", "xi", "--s=-inf"],
    ], ids=["B-zero", "B-zero-fraction", "B-negative", "grid-zero",
            "grid-negative", "threads-zero", "threads-negative",
            "verify-threads-zero", "tol-zero", "tol-negative", "tol-inf",
            "s-nan", "s-inf", "s-minus-inf"])
    def test_bad_argument(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    # Each table here fails before any memory is touched: past sys.maxsize
    # bytes, or more than a 64-bit address space holds.
    @pytest.mark.parametrize("argv", [
        # F of X_2(1) -K: a P^1 sieve of 10^20 + 1 entries
        ["count", "--variety", "1,2:1", "--B", "100000000000000000000",
         "--region", "f"],
        # U: a base histogram of 2.15 * 10^13 int64 entries, 157 TiB
        ["count", "--variety", "1,2:1", "--B", "100000000000000000000",
         "--region", "u"],
        # U of X_3(1,1) -K: a base histogram of 10^20 + 1 entries
        ["count", "--variety", "2,2:1,1", "--B", "1e30", "--region", "u"],
        ["sweep", "--variety", "1,2:1", "--grid", "10,1e30", "--region", "f"],
    ], ids=["count-sieve", "count-histogram-tib", "count-histogram-r2",
            "sweep-sieve"])
    def test_bound_beyond_reach(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--threads", "1")
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("error: bound beyond reach: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["abc", "0"])
    @pytest.mark.parametrize("argv", [
        ["count", "--variety", "1,2:1", "--B", "5"],
        ["sweep", "--variety", "1,2:1", "--grid", "2,3"],
    ], ids=["count", "sweep"])
    def test_bad_threads_environment(self, capsys, monkeypatch, argv, value):
        monkeypatch.setenv("HKCOUNT_THREADS", value)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("hkcount: error: HKCOUNT_THREADS")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["predict", "--variety", "1,2:1"],
        ["tables"],
        ["sweep", "--variety", "1,2:1", "--grid", "2,3", "--threads", "1"],
        ["zeta", "--what", "xi", "--s", "2"],
    ], ids=["predict", "tables", "sweep", "zeta"])
    @pytest.mark.parametrize(
        "content",
        [None, "r1=1\nno equals sign\n", "r1=one\n"]
        + [_Q_FIELD + bad for bad in _DEGENERATE_FIELDS.values()],
        ids=["missing", "malformed", "bad-value", *_DEGENERATE_FIELDS])
    def test_bad_field_file(self, capsys, tmp_path, argv, content):
        path = tmp_path / "field.txt"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--field", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("hkcount: error: --field")
        assert len(err.splitlines()) == 1

    # the example file of README.md: Q(sqrt 5) with the one sample zeta_K(2)
    README_FIELD = ("# real quadratic field Q(sqrt 5)\nr1=2\nr2=0\nw=2\n"
                    "absDisc=5\nregulator=0.4812118\nclassNumber=1\n"
                    "zetaK.2=1.8266976\n")

    @pytest.mark.parametrize("argv, message", [
        (["tables"], "no zetaK sample provided for s = 3.0"),
        (["predict", "--variety", "1,2:1", "--bundle", "1,3"], "zeta_proj"),
        (["sweep", "--variety", "1,2:1", "--bundle", "1,3", "--grid", "2,4",
          "--threads", "1"], "zeta_proj"),
    ], ids=["tables", "predict", "sweep"])
    def test_field_lacks_a_needed_value(self, capsys, tmp_path, argv, message):
        path = tmp_path / "field.txt"
        path.write_text(self.README_FIELD)
        code, out, err = run(capsys, *argv, "--field", str(path))
        assert (code, out) == (2, "")
        err = err.strip()
        assert err.startswith("hkcount: error: --field:") and message in err
        assert len(err.splitlines()) == 1

    def test_tables_constant_past_double_range(self, capsys, tmp_path):
        # regulator 1e300 is a valid field value, but it takes the leading
        # constants past the double range: one line and exit 2, as predict
        path = tmp_path / "field.txt"
        path.write_text(_Q_FIELD + "regulator=1e300\n")
        for argv in (["tables"], ["predict", "--variety", "1,2:1"]):
            code, out, err = run(capsys, *argv, "--field", str(path))
            assert (code, out) == (2, "")
            assert err == "error: the leading constant is beyond double range\n"

    def test_field_sample_is_used(self, capsys, tmp_path):
        # the anticanonical surface needs only xi_K(2), which the file has
        path = tmp_path / "field.txt"
        path.write_text(self.README_FIELD)
        code, out, err = run(capsys, "predict", "--variety", "1,2:1",
                             "--field", str(path))
        assert (code, err) == (EXIT_OK, "") and "C = " in out


class TestSweep:
    def test_csv_header_and_ratio(self, capsys):
        code, out, _ = run(capsys, "sweep", "--variety", "1,2:1",
                           "--bundle", "1,1", "--grid", "10,20,40",
                           "--region", "u")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "B,count,predicted,ratio"
        assert len(lines) == 4
        last_ratio = float(lines[-1].split(",")[3])
        assert abs(last_ratio - 1.0) < 0.05

    def test_json_mirrors_csv(self, capsys):
        _, csv_out, _ = run(capsys, "sweep", "--variety", "1,2:1",
                            "--bundle", "1,1", "--grid", "5,10",
                            "--region", "u")
        _, json_out, _ = run(capsys, "sweep", "--variety", "1,2:1",
                             "--bundle", "1,1", "--grid", "5,10",
                             "--region", "u", "--format", "json")
        rows = json.loads(json_out)
        csv_rows = [ln.split(",") for ln in csv_out.strip().splitlines()[1:]]
        assert [r["count"] for r in rows] == [int(r[1]) for r in csv_rows]

    def test_subbundle_region_prediction(self, capsys):
        # F of X_2(1) at -K is P^1 with O(1): N(F, B) ~ (3/pi) B^2, not the
        # open-subset constant; the count at B = 100 is 9544
        code, out, _ = run(capsys, "sweep", "--variety", "1,2:1",
                           "--grid", "50,100", "--region", "f",
                           "--threads", "1")
        assert code == EXIT_OK
        last = out.strip().splitlines()[-1].split(",")
        assert last[1] == "9544"
        assert float(last[2]) == pytest.approx(3 / math.pi * 100 ** 2)
        assert abs(float(last[3]) - 1.0) < 0.01

    def test_subbundle_text_format(self, capsys):
        code, out, _ = run(capsys, "sweep", "--variety", "1,2:1",
                           "--grid", "50,100", "--region", "f",
                           "--threads", "1", "--format", "text")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("B=50  count=2388  predicted=")
        assert lines[1].startswith("B=100  count=9544  predicted=")

    def test_xi_beyond_double_range_fills_predictions(self, capsys):
        # xi(1199) is beyond double range, the constant C = 0.0460947...
        # of N(U, B) ~ C B^3 is not
        code, out, err = run(capsys, "sweep", "--variety", "1,2:1",
                             "--bundle", "400,1", "--grid", "2,3",
                             "--region", "u", "--threads", "1")
        assert (code, err) == (EXIT_OK, "")
        lines = out.splitlines()
        assert lines[0] == "B,count,predicted,ratio"
        rows = [line.split(",") for line in lines[1:]]
        assert [(b, n) for b, n, _, _ in rows] == [("2", "4"), ("3", "8")]
        for (b, n, pred, ratio) in rows:
            want = 0.04609470278953 * int(b) ** 3
            assert float(pred) == pytest.approx(want, abs=1e-8)
            assert float(ratio) == pytest.approx(int(n) / want, rel=1e-7)

    def test_rejects_bad_grid(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--variety", "1,2:1", "--bundle", "1,1",
                  "--grid", "10,10"])
        assert exc.value.code == 2


class TestTables:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == EXIT_OK
        assert "0.60792710" in out          # the double-pole surface constant
        assert "C  = 0.83190737" in out     # threefold chain head
        assert "C''= 0.95492966" in out
        assert out.count("MuDominates") == 6

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "tables", "--format", "json")
        doc = json.loads(out)
        assert len(doc["hirzebruch"]) == 9
        assert len(doc["threefoldCases"]) == 5
        verdicts = [(c["LBig"], c["MBig"]) for c in doc["threefoldCases"]]
        assert verdicts == [(True, True), (True, True), (True, False),
                            (True, False), (False, False)]


class TestZeta:
    def test_zetap_closed(self, capsys):
        code, out, _ = run(capsys, "zeta", "--what", "zetaP", "--m", "1",
                           "--s", "6")
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(
            945 * 1.2020569031595943 / (16 * math.pi ** 3), rel=1e-10)

    def test_numeric_with_tolerance(self, capsys):
        code, out, err = run(capsys, "zeta", "--what", "zetaP", "--m", "1",
                             "--s", "6", "--numeric", "--tol", "1e-6")
        assert (code, err) == (EXIT_OK, "")
        assert abs(float(out) - 945 * 1.2020569031595943
                   / (16 * math.pi ** 3)) <= 1e-6

    def test_xi(self, capsys):
        code, out, _ = run(capsys, "zeta", "--what", "xi", "--s", "2")
        assert float(out.strip()) == pytest.approx(math.pi / 12)

    @pytest.mark.parametrize("argv, value", [
        (["--what", "zeta", "--s", "1e308"], 1.0),
        (["--what", "L4", "--s", "1e308"], 1.0),
        (["--what", "L4", "--s", "1000"], 1.0),
        (["--what", "zetaP", "--m", "1", "--s", "1e6"], 2.0),
        (["--what", "zetaP", "--m", "1", "--s", "1e308", "--numeric"], 2.0),
        (["--what", "zetaP", "--m", "2", "--s", "1e308"], 3.0),
        (["--what", "zetaP", "--m", "4", "--s", "1e308"], 5.0),
        (["--what", "zetaP", "--m", "400", "--s", "600"], 401.0),
        (["--what", "zetaP", "--m", "400", "--s", "1e308"], 401.0),
        (["--what", "zetaP", "--m", "2000", "--s", "3000"], 2001.0),
    ], ids=["zeta", "L4", "L4-1000", "zetaP-closed", "zetaP-numeric",
            "zetaP2-theta", "zetaP4-theta", "zetaP400-theta",
            "zetaP400-limit", "zetaP2000-theta"])
    def test_large_s_gives_the_limit(self, capsys, argv, value):
        # zeta and L_{-4} round to 1.0 once 2^-s and 3^-s are below half
        # an ulp of 1; Z_(P^m) keeps its m + 1 height-1 points
        code, out, err = run(capsys, "zeta", *argv)
        assert (code, float(out), err) == (EXIT_OK, value, "")

    def test_xi_past_the_gamma_range(self, capsys):
        # Gamma(200) is beyond double range, xi(400) is not: pi^-200
        # Gamma(200) zeta(400) / 2 = 7.3257840083847596e272 [DERIVED: mpmath,
        # 30 digits]; xi(440) is beyond it
        code, out, err = run(capsys, "zeta", "--what", "xi", "--s", "400")
        assert (code, err) == (EXIT_OK, "")
        assert float(out) == pytest.approx(7.3257840083847596e272, rel=1e-12)
        code, out, err = run(capsys, "zeta", "--what", "xi", "--s", "440")
        assert (code, out) == (2, "") and "beyond double range" in err

    @pytest.mark.parametrize("argv, message", [
        (["--what", "xi", "--s", "1e6"], "beyond double range"),
        (["--what", "zetaP", "--m", "1", "--s", "2.0000001", "--numeric"],
         "over budget"),
        (["--what", "zetaP", "--m", "5", "--s", "6.00001", "--numeric"],
         "over budget"),
        (["--what", "zetaP", "--m", "400", "--s", "600", "--numeric"],
         "over budget"),
    ], ids=["xi-1e6", "zetaP-near-pole", "zetaP5-near-pole",
            "zetaP400-numeric"])
    def test_unreachable_value_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, "zeta", *argv)
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1 and message in err

    @pytest.mark.parametrize("m, s", [("1", "2.0000001"), ("5", "6.00001"),
                                      ("400", "600")],
                             ids=["zetaP-near-pole", "zetaP5-near-pole",
                                  "zetaP400-numeric"])
    def test_over_budget_by_orders_of_magnitude(self, capsys, m, s):
        # the tighter tail bound leaves these inputs far beyond the budget
        code, _, err = run(capsys, "zeta", "--what", "zetaP", "--m", m,
                           "--s", s, "--numeric")
        need = re.search(r"needs ~10\^(\S+) points", err)
        assert code == 2 and need is not None
        assert float(need.group(1)) >= math.log10(_ZP_BUDGET) + 3

    # the reasons README.md gives for an exit 2 of zeta
    REASONS = ("diverges", "over budget", "beyond double range")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.floats(0, 1))
    def test_zetap_exit_contract(self, m, u):
        # s log-uniform from just above the pole to 1e308: the value counts
        # the m + 1 points of height 1, or a documented reason exits 2
        lo = m + 1 + 1e-6
        s = max(lo * (1e308 / lo) ** u, lo)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["zeta", "--what", "zetaP", "--m", str(m),
                         "--s", repr(s)])
        if code == EXIT_OK:
            value = float(out.getvalue())
            assert math.isfinite(value) and value >= m + 1
        else:
            lines = err.getvalue().splitlines()
            assert (code, out.getvalue(), len(lines)) == (2, "", 1)
            assert any(reason in lines[0] for reason in self.REASONS)

    def test_pole_is_reported(self, capsys):
        code, _, err = run(capsys, "zeta", "--what", "zetaP", "--m", "1",
                           "--s", "1.5")
        assert code == 2
        assert "diverges" in err


class TestVerify:
    def test_residue_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "residue")
        assert code == EXIT_OK
        assert out.startswith("PASS")

    def test_arakelov_suite_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "arakelov",
                           "--format", "json")
        doc = json.loads(out)
        assert code == EXIT_OK and doc["ok"]
        assert all(c["ok"] for c in doc["suites"]["arakelov"])

    def test_direct_sum_reports_the_gap(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "verify", "--suite", "arakelov",
                           "--format", "json")
        direct = json.loads(out)["suites"]["arakelov"][1]
        assert code == EXIT_OK and direct["name"].startswith("direct-sum")
        assert 0 <= direct["observed"] <= 1e-12 and direct["ok"]
        # a mismatch of the two forms is a FAIL line and exit 4
        monkeypatch.setattr(hkcount.arakelov, "phi_oplus_check",
                            lambda scales, x: (0.5, 1e-9))
        code, out, _ = run(capsys, "verify", "--suite", "arakelov")
        assert code == EXIT_VERIFY
        assert "FAIL  [arakelov] direct-sum identity" in out
        assert "observed 1.000e-09" in out

    def test_rank2_identity_tolerance(self, capsys):
        # 2 xi(4) ~ 0.1097 times the zeta sum's tail bound 1e-6, plus the
        # quadrature threshold 1e-9: about 1.1e-7, against 4.44e-8 observed
        code, out, _ = run(capsys, "verify", "--suite", "integral",
                           "--format", "json")
        check = json.loads(out)["suites"]["integral"][3]
        assert code == EXIT_OK and check["name"].startswith("rank-2")
        assert 1.1e-7 < check["tolerance"] < 1.11e-7
        assert check["observed"] < check["tolerance"] and check["ok"]

    @pytest.mark.parametrize("suite", ["oracle", "integral"])
    def test_suite_prints_only_pass(self, capsys, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines and all(ln.startswith("PASS") for ln in lines)

    def test_partition_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "partition")
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_partition_catches_a_wrong_open_count(self, capsys, monkeypatch):
        # one point too many on U of X_3(0,1): the Whole count is then off
        # by one against the U stream plus the directly enumerated F
        good_open = hkcount.enumeration._count_good_open

        def off_by_one(X, L, B, threads):
            count, visited = good_open(X, L, B, threads)
            return count + (str(X) == "2,2:0,1"), visited
        monkeypatch.setattr(hkcount.enumeration, "_count_good_open",
                            off_by_one)
        code, out, _ = run(capsys, "verify", "--suite", "partition",
                           "--threads", "1")
        assert code == EXIT_VERIFY
        lines = out.splitlines()
        # off by one at every bound: observed counts the 30 bounds
        assert lines[0].startswith("FAIL  [partition] partition")
        assert "(observed 3.000e+01, tol 0.000e+00)" in lines[0]
        assert lines[1].startswith("PASS  [partition] subbundle")

    def test_partition_catches_a_wrong_subbundle_count(self, capsys,
                                                       monkeypatch):
        # one point too many from the P^n sieve that ends every F count
        # (and the Whole count) against the directly enumerated F points
        sieve = hkcount.enumeration._count_projective_n2
        monkeypatch.setattr(hkcount.enumeration, "_count_projective_n2",
                            lambda n, n2max: sieve(n, n2max) + 1)
        code, out, _ = run(capsys, "verify", "--suite", "partition",
                           "--threads", "1")
        assert code == EXIT_VERIFY
        lines = out.splitlines()
        assert lines[1].startswith("FAIL  [partition] subbundle")
        assert "(observed 3.000e+01, tol 0.000e+00)" in lines[1]

    def test_partition_catches_a_point_above_the_bound(self, capsys,
                                                       monkeypatch):
        # an F stream that emits a point of height 962^(3/2) > 30 fails
        # both checks at the top bound only
        stream = hkcount.cli.enum_hk_points
        stray = parse_point("[1:0];[0:31:1]")

        def with_stray(X, L, B, region=Region.WHOLE):
            yield from stream(X, L, B, region)
            if region is Region.SUBBUNDLE_F:
                yield stray
        monkeypatch.setattr(hkcount.cli, "enum_hk_points", with_stray)
        code, out, _ = run(capsys, "verify", "--suite", "partition",
                           "--threads", "1")
        assert code == EXIT_VERIFY
        lines = out.splitlines()
        assert len(lines) == 2
        assert all(ln.startswith("FAIL") and "(observed 1.000e+00," in ln
                   for ln in lines)


class TestDirectCounts:
    """The partition suite's one-pass counts: one stream at the top bound,
    bucketed by the least integer bound of each point's exact height."""

    @pytest.mark.parametrize("variety, bundle", [
        ("1,2:1", None), ("1,2:1", "1,3"), ("2,2:0,1", None),
        ("2,2:1,1", "2,3")])
    @pytest.mark.parametrize("region", [Region.GOOD_OPEN,
                                        Region.SUBBUNDLE_F])
    def test_equal_a_stream_per_bound(self, variety, bundle, region):
        X = HKVariety.parse(variety)
        L = LineBundleClass.parse(bundle) if bundle else anticanonical(X)
        counts, above = _direct_counts(X, L, 12, region)
        assert above == 0
        assert counts == [sum(1 for _ in enum_hk_points(X, L, b, region))
                          for b in range(1, 13)]

    @pytest.mark.parametrize("bundle", ["0,1", "-1,1"])
    def test_fiber_exponent_at_most_zero(self, bundle):
        # F of X_2(1) is finite for lam <= 0; S^lam then goes to the
        # denominator of the bucketed height
        X = HKVariety.parse("1,2:1")
        L = LineBundleClass.parse(bundle)
        counts, above = _direct_counts(X, L, 12, Region.SUBBUNDLE_F)
        assert above == 0 and counts[-1] > 0
        assert counts == [
            sum(1 for _ in enum_hk_points(X, L, b, Region.SUBBUNDLE_F))
            for b in range(1, 13)]

    @pytest.mark.parametrize("region", [Region.GOOD_OPEN,
                                        Region.SUBBUNDLE_F])
    def test_first_case_has_integer_heights(self, region):
        # -K = (2, 3) on X_2(1): over the base point [1:0] the height of
        # (y_0 : y_1) is y_0^2 + y_1^2, and over [3:4] the F point has
        # height 5, so the boundary H = b is covered above
        X = HKVariety.parse("1,2:1")
        L = anticanonical(X)
        heights = [height_L_sq(X, L, P)
                   for P in enum_hk_points(X, L, 12, region)]
        assert any(h.denominator == 1 and h.numerator >= 4
                   and math.isqrt(h.numerator) ** 2 == h.numerator
                   for h in heights)


class TestImportCost:
    """Importing the package, and commands that need no array code, load no
    numerical library; each case runs in a fresh interpreter."""

    HEAVY = ("scipy", "numpy", "mpmath")
    # a numpy-loading command
    ORACLE = ("from hkcount.cli import main\n"
              "main(['verify', '--suite', 'oracle'])")

    def child(self, code, result, **env_set):
        """Run code in a fresh interpreter and return the JSON value of the
        expression `result` after it.  The child's environment is built
        here: the caller's thread settings are dropped, so each case tests
        the defaults unless it sets them in env_set.  (This process has
        imported hkcount.cli, so its own OPENBLAS_NUM_THREADS is set.)"""
        src = str(Path(hkcount.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "HKCOUNT_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        env.update(env_set)
        script = f"import json, os, sys\n{code}\nprint(json.dumps({result}))"
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    def loaded(self, code):
        return self.child(
            code, f"[m for m in {self.HEAVY!r} if m in sys.modules]")

    def test_import_loads_no_numerical_library(self):
        assert self.loaded("import hkcount, hkcount.cli") == []

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="needs /proc/self/task")
    def test_numpy_process_runs_one_thread(self):
        # no count makes a BLAS call, so the CLI starts no OpenBLAS pool
        assert self.child(self.ORACLE, "['numpy' in sys.modules, "
                          "len(os.listdir('/proc/self/task'))]") == [True, 1]

    def test_caller_blas_threads_kept(self):
        assert self.child(self.ORACLE, "os.environ['OPENBLAS_NUM_THREADS']",
                          OPENBLAS_NUM_THREADS="2") == "2"

    def test_library_import_leaves_blas_threads_unset(self):
        assert self.child("import hkcount",
                          "os.environ.get('OPENBLAS_NUM_THREADS')") is None

    @pytest.mark.parametrize("argv", [
        ["tables"],
        ["zeta", "--what", "zeta", "--s", "3"],
        # an F count reduces to the Mobius ball count on P^2
        ["count", "--variety", "1,3:1", "--bundle", "1,2", "--region", "f",
         "--B", "200", "--threads", "1"],
        # bigness is decided before any array code
        ["count", "--variety", "1,3:1", "--bundle=-1,3", "--B", "3",
         "--region", "u"],
        # small bases and r = 1 bands stay below both size thresholds
        ["count", "--variety", "1,2:1", "--B", "10", "--region", "x",
         "--threads", "1"],
        ["count", "--variety", "1,2:1", "--B", "10", "--region", "x",
         "--threads", "2"],
        # r = 2 fibers go to the pool, which gets lists of ints
        ["count", "--variety", "2,2:1,1", "--region", "u", "--B", "1000",
         "--threads", "2"],
        ["sweep", "--variety", "1,2:1", "--grid", "5,10,20", "--threads", "1"],
        # two streams and 60 small counts, none with enough norms to pool
        ["verify", "--suite", "partition", "--threads", "2"],
    ], ids=["tables", "zeta", "count-f", "count-infinite", "count-x-t1",
            "count-x-t2", "count-pooled", "sweep", "verify-partition-t2"])
    def test_command_loads_no_numpy(self, argv):
        code = f"from hkcount.cli import main\nmain({argv!r})"
        assert "numpy" not in self.loaded(code)

    @pytest.mark.parametrize("argv", [
        # Z_(P^2) from the theta route
        ["predict", "--variety", "2,3:1,1", "--bundle", "1,4"],
        ["zeta", "--what", "zetaP", "--m", "3", "--s", "8"],
        ["sweep", "--variety", "1,3:1", "--bundle", "1,4", "--grid", "5,10",
         "--threads", "1"],
    ], ids=["predict-theta", "zeta-theta", "sweep-predicted"])
    def test_command_loads_no_numerical_library(self, argv):
        assert self.loaded(f"from hkcount.cli import main\nmain({argv!r})") == []

    def test_verify_all_loads_numpy_only(self):
        # the quadratures, their tails and the theta route run in doubles
        argv = ["verify", "--suite", "all", "--threads", "1"]
        assert self.loaded(f"from hkcount.cli import main\nmain({argv!r})") == [
            "numpy"]

    def test_partition_suite_starts_no_pool(self):
        argv = ["verify", "--suite", "partition", "--threads", "2"]
        self.loaded(f"from hkcount.cli import main\nmain({argv!r})\n"
                    "assert 'concurrent.futures.process' not in sys.modules")


def _close(got, want, rel):
    """The benchmark's output check: exact, except floats, which agree
    to `rel` relative."""
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and abs(got - want) <= rel * max(abs(want), 1e-300))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_close(got[k], want[k], rel) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, rel) for g, w in zip(got, want)))
    return got == want


def _pinned_payloads():
    pins = json.loads((Path(__file__).resolve().parents[1] / "bench"
                       / "pins.json").read_text())
    cases = [(pin["argv"], pin["payload"])
             for pin in pins["predict"] + pins["zeta"]]
    cases.append((["tables", "--format", "json"], pins["tables"]))
    return [pytest.param(argv, payload, id=" ".join(argv))
            for argv, payload in cases]


@pytest.mark.parametrize("argv, payload", _pinned_payloads())
def test_benchmark_pins_hold(capsys, argv, payload):
    # every predict, zeta and tables payload the benchmark checks, with
    # its rule: floats to 1e-12 relative, everything else exact
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert _close(json.loads(out), payload, 1e-12)


class TestBenchHooks:
    """The benchmark's tracer wraps module attributes by name; each run
    here is a fresh interpreter, so a renamed or re-signed hook fails."""

    RUNS = {
        "oracle": ["verify", "--suite", "oracle"],
        "count": ["count", "--variety", "1,2:1", "--B", "50", "--region", "x",
                  "--threads", "1"],
        "stream": ["count", "--variety", "1,2:1", "--B", "30", "--region", "f",
                   "--stream"],
        # X_2(1) -K at B = 2^25: a base above _NUMPY_WALK_MIN, whose
        # histogram reaches the fiber step as arrays
        "arrays": ["count", "--variety", "1,2:1", "--B", "33554432",
                   "--region", "u", "--threads", "1"],
    }

    def trace(self, tmp_path, argv):
        root = Path(hkcount.__file__).resolve().parents[2]
        out = tmp_path / "spans.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env.pop("HKCOUNT_THREADS", None)
        done = subprocess.run(
            [sys.executable, str(root / "bench" / "tracer.py"), str(out), "--"]
            + argv, env=env, cwd=root, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        doc = json.loads(out.read_text())
        assert doc["rc"] == 0
        return doc["spans"]

    def test_tracer_records_every_layer(self, tmp_path):
        spans = {name: self.trace(tmp_path, argv)
                 for name, argv in self.RUNS.items()}
        names = {s[0] for run in spans.values() for s in run}
        assert {"verify.oracle", "enumeration.histogram", "enumeration.moebius",
                "enumeration.good_open", "heights.stream"} <= names
        walks = [w for run in spans.values() for s in run
                 for w in s[4].get("walks", [])]
        assert walks and all(
            len(w) == 2 and all(type(v) is int for v in w) for w in walks)
        # the F stream walks its base once (kf = 1, so norm^2 <= 900);
        # fibers do not go through the traced base walk
        assert [w for s in spans["stream"] for w in s[4].get("walks", [])] \
            == [[2, 900]]
        good = [s[4] for s in spans["arrays"]
                if s[0] == "enumeration.good_open"]
        assert [(g["count"], g["rows"]) for g in good] == [(411668916, 66844)]
