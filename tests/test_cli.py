import json
import subprocess
import sys

import pytest

from torsionforms import cli
from torsionforms.exact import int_to_decimal
from torsionforms.records import CurveRecord

CLI = [sys.executable, "-m", "torsionforms"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


class TestDetectCommand:
    def test_witness_found_agreement(self):
        r = run("detect", "--", "-43", "166", "7")
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["present"] and report["oracle_present"] and report["agree"]
        assert report["witness"]["k"] == "1/3"

    def test_no_point(self):
        r = run("detect", "--", "-43", "166", "5")
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert not report["present"]
        assert report["message"] == "no point of order 5"

    def test_singular_curve_is_usage_error(self):
        r = run("detect", "0", "0", "5")
        assert r.returncode == 1

    def test_proven_prime_cofactor_lets_the_oracle_answer(self):
        # |disc| has the factor 626176232699 < (10**6)**2, which trial
        # division to 10**6 proves prime
        r = run("detect", "--", "-1234567", "7654321", "7")
        assert r.returncode == 0, r.stderr
        report = json.loads(r.stdout)
        assert report["agree"] and not report["present"]

    def test_residual_scale_exits_with_discrepancy_code(self):
        # 2-twist of the order-7 curve: present, but no plain integral solution
        r = run("detect", "--", "-688", "10624", "7")
        assert r.returncode == 2
        report = json.loads(r.stdout)
        assert report["present"] and report["agree"]
        assert report["discrepancy"]


class TestGenerateCommand:
    def test_order5(self):
        r = run("generate", "5", "1", "1")
        assert r.returncode == 0
        rec = CurveRecord.from_json_line(r.stdout.strip())
        assert (rec.curve.A, rec.curve.B) == (-432, 8208)
        assert any(P.x == -12 and P.y == 108 for P in rec.points)

    def test_side_condition_error(self):
        r = run("generate", "8", "1", "1")
        assert r.returncode == 1

    def test_order9_record(self):
        r = run("generate", "9", "2", "1")
        assert r.returncode == 0
        rec = CurveRecord.from_json_line(r.stdout.strip())
        assert rec.group_label == "Z/9Z"

    def test_branch_flag(self):
        r = run("generate", "7", "2", "1", "--k", "1/3")
        rec = CurveRecord.from_json_line(r.stdout.strip())
        assert (rec.curve.A, rec.curve.B) == (-43, 166)


class TestScanCommand:
    GRID = ["--pmin", "-2", "--pmax", "2", "--qmin", "-2", "--qmax", "2"]

    def test_records_revalidate(self):
        r = run("scan", "5", *self.GRID)
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines
        for line in lines:
            CurveRecord.from_json_line(line)  # validates on load

    def test_worker_count_does_not_change_output(self):
        r1 = run("scan", "7", *self.GRID)
        r8 = run("scan", "7", *self.GRID, "--workers", "8")
        assert r1.stdout == r8.stdout

    def test_skip_statistics(self):
        r = run("scan", "8", "--pmin", "1", "--pmax", "2", "--qmin", "1", "--qmax", "2")
        assert "skipped_side=" in r.stderr
        stats = dict(
            part.split("=") for part in r.stderr.split() if "=" in part
        )
        # p=q cells (1,1), (2,2) and 2p=q cell (1,2), twice for the two branches
        assert int(stats["skipped_side"]) == 6
        assert int(stats["scanned"]) == 8

    def test_csv_output(self):
        r = run("scan", "5", "--pmin", "1", "--pmax", "1", "--qmin", "1", "--qmax", "2", "--csv")
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "n,p,q,k,A,B,group"
        assert "5,1,1,1,-432,8208,Z/5Z" in lines

    def test_output_file(self, tmp_path):
        out = tmp_path / "scan.jsonl"
        r = run("scan", "5", "--pmin", "1", "--pmax", "2", "--qmin", "1", "--qmax", "2",
                "--out", str(out))
        assert r.returncode == 0
        assert out.read_text().strip()


class TestVerifyIdentitiesCommand:
    @pytest.mark.parametrize("n", [5, 7, 8, 9])
    def test_pass(self, n):
        r = run("verify-identities", str(n))
        assert r.returncode == 0
        assert "FAIL" not in r.stdout
        assert f"sigma_{n} = " in r.stdout

    def test_usage_error(self):
        r = run("verify-identities", "6")
        assert r.returncode == 1


class TestBoundCommand:
    def test_order2_delta64(self):
        r = run("bound", "2", "64")
        assert r.returncode == 0
        assert "t = 1" in r.stdout
        assert str(7**60 + 6 * 7**4) in r.stdout

    def test_order9_table_delta(self):
        r = run("bound", "9", "23944605696")
        assert "t = 3" in r.stdout
        assert str(7**375 + 6 * 7 ** (8 * 4)) in r.stdout

    def test_order7_bound_leaves_int_str_limit_alone(self, capsys):
        # M_7(3) has ~16k digits, past the default int-to-str limit
        limit = sys.get_int_max_str_digits()
        assert cli.main(["bound", "7", "23944605696"]) == 0
        assert sys.get_int_max_str_digits() == limit
        out = capsys.readouterr().out
        assert out == f"t = 3\nM_7(3) = {int_to_decimal(7**19440 + 6 * 7 ** (70 * 4))}\n"

    def test_zero_delta_error(self):
        r = run("bound", "5", "0")
        assert r.returncode == 1

    def test_unfactorable_error(self):
        r = run("bound", "2", str(1000003 * 1000033), "--trial-limit", "1000")
        assert r.returncode == 1


def test_help_runs():
    r = run("--help")
    assert r.returncode == 0
