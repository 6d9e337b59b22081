import contextlib
import io
import json
import multiprocessing
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionforms import FamilyDataError, cli
from torsionforms.exact import HomForm, decimal_to_int, int_to_decimal
from torsionforms.families import FAMILIES
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

    def test_integers_past_the_int_str_limit(self, capsys):
        # 5001 digits, past the interpreter's 4300-digit int<->str limit
        A = "7" * 5001
        assert cli.main(["detect", "--", A, "3", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["agree"] and report["A"] == A

    def test_singular_curve_past_the_int_str_limit(self, capsys):
        A, B = -3 * 10**3000, 2 * 10**4500
        assert cli.main(["detect", "--", int_to_decimal(A), int_to_decimal(B), "7"]) == 1
        assert capsys.readouterr().err == (
            f"error: discriminant vanishes for (A, B) = "
            f"({int_to_decimal(A)}, {int_to_decimal(B)})\n"
        )

    def test_oracle_answers_on_random_curves(self, capsys):
        # most of these discriminants do not factor by trial division
        rng = random.Random(30)
        for i in range(30):
            A, B = (rng.choice((-1, 1)) * rng.randrange(10**9, 10 ** rng.randint(10, 40))
                    for _ in "AB")
            assert cli.main(["detect", "--", str(A), str(B), str((5, 7, 8, 9)[i % 4])]) == 0
            assert json.loads(capsys.readouterr().out)["agree"]

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

    def test_integers_past_the_int_str_limit(self, capsys):
        p = "7" * 4400
        assert cli.main(["generate", "5", p, "1"]) == 0
        rec = CurveRecord.from_json_line(capsys.readouterr().out)
        assert (rec.n, rec.p, rec.q) == (5, decimal_to_int(p), 1)
        assert rec.group_label == "Z/5Z"

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_big_witness_revalidates(self, n, capsys):
        p = "7" * 400
        assert cli.main(["generate", str(n), p, "1"]) == 0
        rec = CurveRecord.from_json_line(capsys.readouterr().out)  # validates on load
        assert (rec.n, rec.p, rec.q) == (n, decimal_to_int(p), 1)
        assert rec.group_label == f"Z/{n}Z"

    def test_branch_flag(self):
        r = run("generate", "7", "2", "1", "--k", "1/3")
        rec = CurveRecord.from_json_line(r.stdout.strip())
        assert (rec.curve.A, rec.curve.B) == (-43, 166)


def _failing_cell(cell):
    """Stands in for ``cli._scan_cell``; module-level so that pool workers
    can unpickle it."""
    raise RuntimeError("first cell")


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

    def test_bounds_past_the_int_str_limit(self, capsys):
        big = "9" * 4400
        grid = ["--pmin", big, "--pmax", "1", "--qmin", "-" + big, "--qmax", "1"]
        assert cli.main(["scan", "5", *grid]) == 0
        assert capsys.readouterr().err.startswith("scanned=0 emitted=0 ")

    # cpus=None: os.cpu_count() could not tell
    @pytest.mark.parametrize("affinity, requested, cpus, pools", [
        (True, "2", 3, [2]), (True, "1000000", 3, [3]), (True, "8", 1, []),
        (False, "1000000", 3, [3]), (False, "8", None, []),
    ])
    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch, capsys,
                                               affinity, requested, cpus, pools):
        # the recording pool runs the cells in this process: no process starts
        sizes = []

        class Context:
            class Pool:
                def __init__(self, size):
                    sizes.append(size)

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    return False

                def imap(self, func, cells, chunksize):
                    return map(func, cells)

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert cli.main(["scan", "7", *self.GRID]) == 0
        serial = capsys.readouterr()
        assert cli.main(["scan", "7", *self.GRID, "--workers", requested]) == 0
        assert capsys.readouterr() == serial
        assert sizes == pools

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_grid_is_walked_lazily(self, monkeypatch, workers):
        # 361201 cells: held as a list before the first cell, they took
        # tens of megabytes
        monkeypatch.setattr(cli, "_scan_cell", _failing_cell)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="first cell"):
                cli.main(["scan", "5", "--search-bound", "300", "--workers", workers])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**6

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

    @pytest.mark.parametrize("name", ["U", "V"])
    def test_wrong_form_fails(self, name, monkeypatch, capsys, rebuild_family):
        # the Tate numerators and the model are derived from U and V, so both
        # lines compare the forms with the pipeline: every coefficient of
        # every family's form off by +1 or -1 must fail both
        for n, fam in list(FAMILIES.items()):
            form = getattr(fam, name)
            for i in range(form.degree + 1):
                for delta in (1, -1):
                    coeffs = list(form.coeffs)
                    coeffs[i] += delta
                    wrong = rebuild_family(fam, **{name: HomForm(form.degree, coeffs)})
                    monkeypatch.setitem(FAMILIES, n, wrong)
                    assert cli.main(["verify-identities", str(n)]) == cli.EXIT_ERROR
                    out = capsys.readouterr().out
                    assert f"FAIL  tate-pipeline coefficients n={n}" in out, (n, i, delta)
                    assert f"FAIL  binary-form homogenization n={n}" in out, (n, i, delta)

    @pytest.mark.parametrize("line", ["tate-pipeline coefficients", "binary-form homogenization"])
    def test_each_line_checks_deg_v_plus_one_points(self, line, monkeypatch, capsys,
                                                     rebuild_family):
        # the line's points are (p, q) = (sigma x, 1), or (sigma x, x + 1), for
        # x = 1, ..., deg V + 1; V + D, with D the product of the deg V linear
        # forms that vanish at all but the last point, is wrong only there
        for n, fam in list(FAMILIES.items()):
            sigma, d = fam.sigma, fam.V.degree
            D = HomForm(0, (1,))
            for i in range(1, d + 1):
                D = D * HomForm(1, (-sigma * i, 1 if line.startswith("tate") else i + 1))
            V = HomForm(d, (v + w for v, w in zip(fam.V.coeffs, D.coeffs)))
            monkeypatch.setitem(FAMILIES, n, rebuild_family(fam, V=V))
            assert cli.main(["verify-identities", str(n)]) == cli.EXIT_ERROR
            assert f"FAIL  {line} n={n}" in capsys.readouterr().out

    def test_failed_identity_fails(self, monkeypatch, capsys):
        def failing(n, u, alpha):
            raise FamilyDataError(f"n={n} identity A reconstruction fails")

        monkeypatch.setattr(cli, "param_cross_check", failing)
        assert cli.main(["verify-identities", "7"]) == cli.EXIT_ERROR
        out, err = capsys.readouterr()
        assert "FAIL  elimination cross-check n=7\n" in out
        assert out.count("FAIL") == 1
        assert "n=7 identity A reconstruction fails" in err

    def test_bug_in_the_cross_check_propagates(self, monkeypatch):
        # only a failed identity is a FAIL line; any other error is a bug
        def broken(n, u, alpha):
            raise TypeError("broken")

        monkeypatch.setattr(cli, "param_cross_check", broken)
        with pytest.raises(TypeError, match="broken"):
            cli.main(["verify-identities", "7"])

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

    def test_delta_past_the_int_str_limit(self, capsys):
        delta = int_to_decimal(2**16610)
        assert len(delta) == 5001
        assert cli.main(["bound", "2", delta]) == 0
        assert capsys.readouterr().out.startswith("t = 1\n")

    def test_zero_delta_error(self):
        r = run("bound", "5", "0")
        assert r.returncode == 1

    def test_unfactorable_error(self):
        r = run("bound", "2", str(1000003 * 1000033), "--trial-limit", "1000")
        assert r.returncode == 1


@pytest.mark.parametrize("argv", [
    ["generate", "8", "--", "--", "7"],
    ["generate", "--", "8", "--", "7"],
    ["bound", "5", "--", "--"],
])
def test_second_double_dash_is_a_usage_error(argv, capsys):
    # argparse hands the positional in place of the second "--" an empty
    # list, which no type= conversion sees
    assert cli.main(argv) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument ")
    assert captured.err.count("\n") == 1


def test_closed_stdout_exits_quietly():
    # the reader takes one line and closes the pipe, as `scan ... | head -1` does
    proc = subprocess.Popen(
        CLI + ["scan", "5", "--pmin", "-3", "--pmax", "3", "--qmin", "-3", "--qmax", "3",
               "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    proc.wait(timeout=120)
    assert CurveRecord.from_json_line(first).n == 5
    assert (proc.returncode, err) == (cli.EXIT_ERROR, "")


def test_help_runs():
    r = run("--help")
    assert r.returncode == 0


WITHOUT_SYMPY = r"""
import sys

class RefuseSympy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "sympy":
            raise ImportError("sympy is refused")
        return None

sys.meta_path.insert(0, RefuseSympy())

from torsionforms import Curve, cli, detect

curves = [
    (1234567891, -9876543211),
    (1234567890123456789012345678901234567891, -9876543210987654321098765432109876543211),
    (-43, 166),
]
for A, B in curves:
    for n in (5, 7, 8, 9):
        detect(Curve(A, B), n)
assert detect(Curve(-43, 166), 7).witness is not None
assert cli.main(["generate", "7", "2", "1", "--k", "1/3"]) == 0
assert cli.main(["scan", "7", "--search-bound", "2", "--k", "1"]) == 0
"""


def test_runs_without_sympy():
    r = subprocess.run([sys.executable, "-c", WITHOUT_SYMPY], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


# Tokens of the subcommands' grammar: numbers of any length, fractions with
# zero denominators, and tokens that no argument accepts.  A number that
# could reach the search bound, the trial limit or the worker count is small:
# those values set how long a case runs.
_NUMBER = st.integers(-10**40, 10**40).map(str)
_ORDER = st.sampled_from(["5", "7", "8", "9"])
_FRACTION = st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-3, 3))
_BAD = st.sampled_from(["", "-", "+", "--", "-x", "--nope", "abc", "1.5", "1e3", "0x10",
                        "٣", " 7", "1_0", "nan", "-h"])
_ANY = _NUMBER | _FRACTION | _BAD
_SMALL_OR_BAD = st.sampled_from(["0", "-1"]) | _FRACTION | _BAD
_STRAY = st.sampled_from(["-1", "0", "1", "2"]) | _BAD


def _token(draw, good=_NUMBER, other=_ANY):
    """Three times in four a token from ``good``, else one from ``other``;
    a case of several tokens then still succeeds now and then."""
    return draw(other if draw(st.integers(0, 3)) == 3 else good)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["detect", "generate", "scan", "verify-identities", "bound"]))
    options = []
    if command == "detect":
        positionals = [_token(draw), _token(draw), _token(draw, _ORDER)]
    elif command == "generate":
        positionals = [_token(draw, _ORDER), _token(draw), _token(draw)]
        if draw(st.booleans()):
            options = ["--k", _token(draw, st.sampled_from(["1", "1/2", "1/3"]))]
    elif command == "scan":
        # a grid of a few cells: a small search bound, and each axis either
        # left to it or given as a range of at most two values
        positionals = [_token(draw, _ORDER)]
        options = ["--search-bound", _token(draw, st.sampled_from(["1", "2"]), _SMALL_OR_BAD),
                   "--workers", draw(st.sampled_from(["1", "2"]))]
        for axis in "pq":
            if draw(st.booleans()):
                lo = draw(st.integers(-10**6, 10**6))
                options += [f"--{axis}min", str(lo),
                            f"--{axis}max", str(lo + draw(st.integers(-1, 1)))]
        if draw(st.booleans()):
            options += ["--k", _token(draw, st.sampled_from(["all", "1", "1/2", "1/3"]))]
        if draw(st.booleans()):
            options.append("--csv")
    elif command == "verify-identities":
        positionals = [_token(draw, _ORDER)]
    else:
        positionals = [_token(draw, _ORDER), _token(draw)]
        if draw(st.booleans()):
            options = ["--trial-limit",
                       _token(draw, st.sampled_from(["2", "1000"]), _SMALL_OR_BAD)]
    # "--" ends the options and lets the positionals be negative numbers;
    # it may come once, or twice with one standing in for a positional
    dashes = draw(st.integers(0, 2))
    if dashes == 2:
        positionals[draw(st.integers(0, len(positionals) - 1))] = "--"
    args = options + ["--"] * (dashes > 0) + positionals
    # now and then a token goes missing, or a "--" or a stray token comes in
    if draw(st.integers(0, 3)) == 3:
        del args[draw(st.integers(0, len(args) - 1))]
    for extra in (st.just("--"), _STRAY):
        if draw(st.integers(0, 3)) == 3:
            args.insert(draw(st.integers(0, len(args))), draw(extra))
    return [command] + args


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=_argv())
def test_any_argv_exits_with_a_documented_status(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # --help
            status = exc.code
    assert status in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_DISCREPANCY), argv
    lines = err.getvalue().splitlines()
    assert sum(line.startswith(("error:", "usage error:")) for line in lines) <= 1, argv
    assert "Traceback" not in err.getvalue()
