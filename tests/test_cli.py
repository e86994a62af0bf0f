"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdalgebra import algebra, cli, fibonacci, residue, suites, twist
from cdalgebra.algebra import Convention, make_algebra
from cdalgebra.cli import MAX_FIELD_DEPTH, run
from cdalgebra.fibonacci import fib
from cdalgebra.residue import make_w, residue_field
from cdalgebra.suites import run_core_suite, run_fib_suite
from cdalgebra.twist import build_table


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTwistCommand:
    def test_pinned_sign(self, capsys):
        code, out, _ = invoke(capsys, "twist", "--t", "2", "--p", "1", "--q", "2")
        assert code == 0
        assert out == "sign=+1 index=3\n"

    def test_left_convention_flips(self, capsys):
        code, out, _ = invoke(capsys, "twist", "--t", "2", "--p", "1", "--q", "2",
                              "--convention", "eq31")
        assert code == 0
        assert out == "sign=-1 index=3\n"

    def test_out_of_range_is_contract_error(self, capsys):
        code, _, err = invoke(capsys, "twist", "--t", "2", "--p", "9", "--q", "0")
        assert code == 1
        assert "error" in err

    def test_huge_depth_answers_promptly(self):
        # A process, timed from outside: the sign costs O(log max(p, q)).
        proc = subprocess.run([sys.executable, "-m", "cdalgebra.cli", "twist",
                               "--t", "10000000", "--p", "1", "--q", "2"],
                              env=_src_env(), capture_output=True, text=True,
                              timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "sign=+1 index=3\n"


class TestMulTable:
    def test_csv_header_and_shape(self, capsys):
        code, out, _ = invoke(capsys, "mul-table", "--t", "2",
                              "--gammas", "-1,-1", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,q,index,sign,gamma_mask"
        assert len(lines) == 1 + 16
        assert lines[1] == "0,0,0,1,00"

    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "mul-table", "--t", "3",
                              "--gammas", "-1,2,1/2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["gammas"] == ["-1", "2", "1/2"]
        assert (data["t"], data["convention"]) == (3, "eq11")
        table = build_table(3, Convention.CONJUGATE_RIGHT)
        assert [(row["p"], row["q"]) for row in data["entries"]] == [
            (p, q) for p in range(8) for q in range(8)]
        for row in data["entries"]:
            coeff = table.entry(row["p"], row["q"])
            assert row["index"] == row["p"] ^ row["q"]
            assert row["sign"] == coeff.sign
            assert len(row["gamma_mask"]) == 3
            assert int(row["gamma_mask"], 2) == coeff.gamma_mask

    def test_gamma_count_validated(self, capsys):
        code, _, err = invoke(capsys, "mul-table", "--t", "2", "--gammas", "-1")
        assert code == 1
        assert "error" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = invoke(capsys, "mul-table", "--t", "4",
                             "--gammas", "-1,-1,-1,-1", "--format", "json")
        _, second, _ = invoke(capsys, "mul-table", "--t", "4",
                              "--gammas", "-1,-1,-1,-1", "--format", "json")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = invoke(capsys, "mul-table", "--t", "1", "--gammas", "-1",
                              "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("p,q,index,sign,gamma_mask")


# ---- oracle: the dict-per-entry serializers the CLI streams past -----------

def mask_string(mask, t):
    return format(mask, f"0{t}b") if t else ""


def table_rows(table):
    rows = []
    for p in range(table.dimension):
        for q in range(table.dimension):
            coeff = table.entry(p, q)
            rows.append({"p": p, "q": q, "index": p ^ q, "sign": coeff.sign,
                         "gamma_mask": mask_string(coeff.gamma_mask, table.t)})
    return rows


def table_to_dict(table, gammas):
    return {"t": table.t, "convention": table.convention.value,
            "gammas": [str(Fraction(g)) for g in gammas],
            "entries": table_rows(table)}


def field_to_dict(field, basis, coeffs):
    return {"p": field.p, "s": field.s, "pi": [field.pi.a, field.pi.b],
            "w_trace": field.gen.q, "w_norm": field.gen.m,
            "t": field.gen.w.signature.t, "w_basis": list(basis), "w": list(coeffs),
            "labels": [{"k": k, "a": u.a, "b": u.b, "norm": u.norm()}
                       for k, u in enumerate(field.reps)]}


def field_rows(field):
    return [{"k": k, "a": u.a, "b": u.b, "norm": u.norm(), "element": str(u)}
            for k, u in enumerate(field.reps)]


def csv_text(rows, columns):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row[c] for c in columns})
    return buf.getvalue()


def assert_same_text(out, want):
    """``out == want``, reported at the first line that differs.

    pytest's own report diffs the whole text, which takes minutes at the
    megabytes of a depth-8 table.
    """
    if out != want:
        got, expected = out.splitlines(), want.splitlines()
        line = next((i for i, pair in enumerate(zip(got, expected)) if pair[0] != pair[1]),
                    min(len(got), len(expected)))
        pytest.fail(f"line {line + 1}: got {got[line:line + 1]}, want {expected[line:line + 1]}")


class TestOutputBytes:
    GAMMAS = ("-1", "2", "1/2", "-3/4", "5", "7/3", "-2/5", "3")
    FIELD = ("--w", "1,1,1,1", "--t", "2")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("convention", list(Convention))
    @pytest.mark.parametrize("t", range(1, 9))
    def test_mul_table_matches_dict_oracle(self, capsys, t, convention, fmt):
        gammas = ",".join(self.GAMMAS[:t])
        code, out, err = invoke(capsys, "mul-table", "--t", str(t), "--gammas", gammas,
                                "--convention", convention.value, "--format", fmt)
        assert (code, err) == (0, "")
        table = build_table(t, convention)
        if fmt == "csv":
            want = csv_text(table_rows(table), ["p", "q", "index", "sign", "gamma_mask"])
        else:
            sig = make_algebra(t, [Fraction(g) for g in self.GAMMAS[:t]], convention)
            want = json.dumps(table_to_dict(table, sig.gammas), indent=2) + "\n"
        assert_same_text(out, want)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("p, pi", [(13, (-1, 2)), (61, (5, 2))])
    def test_residue_field_matches_dict_oracle(self, capsys, p, pi, fmt):
        code, out, err = invoke(capsys, "residue-field", "--p", str(p),
                                "--pi", f"{pi[0]},{pi[1]}", *self.FIELD, "--format", fmt)
        assert (code, err) == (0, "")
        field = residue_field(make_w(2, (1, 2, 3), (1, 1, 1, 1)).element(*pi))
        if fmt == "csv":
            want = csv_text(field_rows(field), ["k", "a", "b", "norm", "element"])
        else:
            want = json.dumps(field_to_dict(field, (1, 2, 3), (1, 1, 1, 1)), indent=2) + "\n"
        assert_same_text(out, want)

    @pytest.mark.parametrize("argv", [
        ["mul-table", "--t", "3", "--gammas", "-1,2,1/2", "--format", "json"],
        ["mul-table", "--t", "4", "--gammas", "-1,-1,-1,-1", "--convention", "eq31"],
        ["residue-field", "--pi", "5,2", "--w", "1,1,1,1", "--t", "2", "--format", "json"],
        ["blocks", "--t", "4"],
        ["encode", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2", "--symbols", "4,7,12"],
    ])
    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        target = tmp_path / "out.txt"
        assert invoke(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()

    def test_contract_error_creates_no_file(self, capsys, tmp_path):
        target = tmp_path / "field.csv"
        code, out, err = invoke(capsys, "residue-field", "--pi", "2,0", *self.FIELD,
                                "--output", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "prime" in err
        assert not target.exists()


class TestStreaming:
    """The CLI as a process: a closed reader ends in an error line, memory stays bounded."""

    @staticmethod
    def buffered_env():
        """Block-buffered stdout, the interpreter's default for a pipe."""
        return dict(_src_env(), PYTHONUNBUFFERED="")

    def test_closed_reader_is_one_error_line(self):
        # 6 MB of CSV, far past the pipe buffer: the reader leaves after one line.
        proc = subprocess.Popen([sys.executable, "-m", "cdalgebra.cli", "mul-table",
                                 "--t", "9", "--gammas", ",".join(["-1"] * 9)],
                                env=self.buffered_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "p,q,index,sign,gamma_mask\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == "error: cannot write stdout: Broken pipe\n"

    def test_reader_gone_before_the_first_write(self):
        # The error leaves stdout on devnull, so the flush at exit stays quiet.
        script = ("import os, sys\n"
                  "from cdalgebra.cli import run\n"
                  "code = run(['twist', '--t', '2', '--p', '1', '--q', '2'])\n"
                  "assert os.path.samestat(os.fstat(1), os.stat(os.devnull))\n"
                  "sys.exit(code)\n")
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-c", script], env=self.buffered_env(),
                                  stdout=write, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "error: cannot write stdout: Broken pipe\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_depth_ten_peak_memory(self, fmt):
        # A fresh parent process, so RUSAGE_CHILDREN sees this one child only.
        script = ("import resource, subprocess, sys\n"
                  "subprocess.run([sys.executable, '-m', 'cdalgebra.cli', *sys.argv[1:]],\n"
                  "               stdout=subprocess.DEVNULL, check=True)\n"
                  "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        proc = subprocess.run([sys.executable, "-c", script, "mul-table", "--t", "10",
                               "--gammas", ",".join(["-1"] * 10), "--format", fmt],
                              env=self.buffered_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 120 * 1024, f"peak RSS {int(proc.stdout)} KB"


class TestBlocks:
    def test_depth_four_summary(self, capsys):
        code, out, _ = invoke(capsys, "blocks", "--t", "4")
        assert code == 0
        assert out.strip().endswith("all 64 blocks classified: PASS")

    def test_depth_one_matrix(self, capsys):
        code, out, _ = invoke(capsys, "blocks", "--t", "1")
        assert code == 0
        assert out.splitlines()[0].strip() == "A0"

    @pytest.mark.parametrize("convention", list(Convention))
    def test_depth_five_matrix(self, capsys, convention):
        # One right-aligned label per tile: every label of the convention's
        # alphabet occurs at t = 5, and no other.
        code, out, _ = invoke(capsys, "blocks", "--t", "5", "--convention", convention.value)
        assert code == 0
        family = ("B", "-B") if convention is Convention.CONJUGATE_LEFT else ("Bt", "-Bt")
        assert set(" ".join(out.splitlines()[:-1]).split()) == {"A0", "A", "C", "-C", *family}

    @pytest.mark.parametrize("t", range(1, 11))
    def test_matrix_is_the_rendered_partition(self, capsys, t):
        # Up to KERNEL_MAX_DEPTH blocks classifies the kernel's sign rows and
        # builds no table; the text is partition_blocks's on the built table.
        for convention in Convention:
            code, out, err = invoke(capsys, "blocks", "--t", str(t),
                                    "--convention", convention.value)
            assert (code, err) == (0, "")
            kinds = twist.partition_blocks(build_table(t, convention))
            rows = [" ".join(f"{twist.BlockKind(k).label():>3}" for k in row) + "\n"
                    for row in kinds]
            assert out == "".join(rows) + f"all {kinds.size} blocks classified: PASS\n"

    @pytest.mark.parametrize("t", [3, 9])
    def test_a_failed_classification_is_one_error_line(self, capsys, monkeypatch, t):
        # eq31 classified by the eq11 alphabet, by the int route (t = 3) and by
        # numpy's (t = 9): a failed verification, not a traceback.
        left, right = Convention.CONJUGATE_LEFT, Convention.CONJUGATE_RIGHT
        monkeypatch.setitem(twist._CODE_KINDS, left, twist._CODE_KINDS[right])
        code, out, err = invoke(capsys, "blocks", "--t", str(t))
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert line.startswith("error: tile (") and "outside the eq31 alphabet" in line
        assert "Traceback" not in err


class TestVerify:
    def test_residue_suite(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "residue")
        assert code == 0
        assert "residue:" in out
        assert "0 failures" in out

    def test_core_suite_small(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "core",
                              "--samples", "5", "--t", "2")
        assert code == 0
        assert "core:" in out

    def test_seed_reaches_the_suite_run(self, capsys, monkeypatch):
        # The same seed prints the same report, the one the suite gives.
        want = run_core_suite(samples=5, seed=7).summary() + "\n"
        for _ in range(2):
            assert invoke(capsys, "verify", "--suite", "core", "--samples", "5",
                          "--seed", "7") == (0, want, "")
        want = run_fib_suite(seed=0).summary() + "\n"
        assert invoke(capsys, "verify", "--suite", "fib", "--seed", "0") == (0, want, "")
        # A passing report does not show its seed, so record the calls: every
        # suite of --suite all gets the seed, and none gets one without it.
        calls = []
        passed = run_core_suite(samples=1, depths=(1,))

        def record(**kwargs):
            calls.append(kwargs)
            return passed
        for name in suites.SUITES:
            monkeypatch.setitem(suites.SUITES, name, record)
        for argv, seeds in ((["--seed", "5"], [5] * 4), ([], [None] * 4)):
            calls.clear()
            assert invoke(capsys, "verify", "--suite", "all", *argv)[0] == 0
            assert [kwargs.get("seed") for kwargs in calls] == seeds, argv

    def test_a_failing_suite_prints_its_summary_then_an_error_line(self, capsys, monkeypatch):
        failed = suites.SuiteResult("fib")
        failed.expect(False, "norm", "n={}", 3)
        monkeypatch.setitem(suites.SUITES, "fib", lambda **kwargs: failed)
        code, out, err = invoke(capsys, "verify", "--suite", "fib")
        assert (code, out) == (1, "fib: 1 checks, 1 failures [FAILED]\n  norm: n=3\n")
        assert err == "error: one or more suites failed\n"

    @pytest.mark.parametrize("seed, message", [
        ("-1", "must be >= 0, got -1"), ("x", "not an integer: 'x'"),
        ("1.5", "not an integer: '1.5'"), ("", "not an integer: ''")])
    def test_a_bad_seed_is_a_usage_error(self, capsys, seed, message):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--suite", "fib", "--seed", seed])
        assert exc.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: argument --seed: {message}"


class TestLogLevel:
    """``--log-level`` routes the library's log records to stderr; stdout and
    the exit code stay those of the same command without it."""

    @staticmethod
    def _run(argv):
        return subprocess.run([sys.executable, "-m", "cdalgebra.cli", *argv], env=_src_env(),
                              capture_output=True, text=True, timeout=60)

    def test_debug_writes_the_u_mod_fallback_records(self):
        plain = self._run(["verify", "--suite", "residue"])
        logged = self._run(["--log-level", "debug", "verify", "--suite", "residue"])
        assert (logged.returncode, logged.stdout) == (plain.returncode, plain.stdout) == (
            0, "residue: 1044 checks, 0 failures [ok]\n")
        assert plain.stderr == ""
        lines = logged.stderr.splitlines()
        assert lines and all(line.startswith("DEBUG:cdalgebra.residue:") and "neighbor" in line
                             for line in lines)

    @pytest.mark.parametrize("level", ["info", "WARNING", "error", "Critical"])
    def test_levels_above_debug_add_nothing(self, level):
        argv = ["verify", "--suite", "residue"]
        plain, logged = self._run(argv), self._run(["--log-level", level, *argv])
        assert (logged.returncode, logged.stdout, logged.stderr) == (
            plain.returncode, plain.stdout, "")

    def test_a_failing_command_keeps_its_exit_code_and_error_line(self):
        argv = ["twist", "--t", "2", "--p", "9", "--q", "0"]
        plain, logged = self._run(argv), self._run(["--log-level", "debug", *argv])
        assert (logged.returncode, logged.stdout, logged.stderr) == (
            plain.returncode, plain.stdout, plain.stderr)
        assert plain.returncode == 1 and plain.stderr.startswith("error: ")

    @pytest.mark.parametrize("argv", [["--log-level", "loud"], ["--log-level", ""],
                                      ["--log-level", "10"], ["--log-level"]])
    def test_a_bad_level_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "twist", "--t", "2", "--p", "1", "--q", "2"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert out == "" and line.startswith("error: argument --log-level: ")

    def test_logging_is_imported_only_with_the_flag(self):
        argv = ["twist", "--t", "30", "--p", "5", "--q", "9"]
        assert "logging" not in _process_imports(argv)
        assert "logging" in _process_imports(["--log-level", "debug", *argv])


class TestFibNorm:
    def test_equal_verdict(self, capsys):
        code, out, _ = invoke(capsys, "fib-norm", "--n", "3",
                              "--alpha1", "1", "--alpha2", "1")
        assert code == 0
        assert out == "direct=102\nformula=102\nequal=true\n"

    def test_a_disagreement_prints_both_norms_then_an_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(fibonacci, "fib_norm_formula", lambda n, params: 101)
        code, out, err = invoke(capsys, "fib-norm", "--n", "3",
                                "--alpha1", "1", "--alpha2", "1")
        assert (code, out) == (1, "direct=102\nformula=101\nequal=false\n")
        assert err == "error: closed form disagrees with the direct norm\n"

    @pytest.mark.parametrize("n", [0, 250, 200_000])
    def test_an_agreed_norm_is_rendered_once(self, capsys, monkeypatch, n):
        # At unit parameters the norm is 3 * f_(2n+3).  At n = 200,000 it has
        # 83,597 digits, and decimal conversion is quadratic in the digits.
        rendered = []
        to_text = Fraction.__str__
        monkeypatch.setattr(Fraction, "__str__", lambda x: rendered.append(x) or to_text(x))
        code, out, err = invoke(capsys, "fib-norm", "--n", str(n),
                                "--alpha1", "1", "--alpha2", "1")
        monkeypatch.undo()
        with cli._unbounded_int_output():
            norm = str(3 * fib(2 * n + 3))
        assert (code, out, err) == (0, f"direct={norm}\nformula={norm}\nequal=true\n", "")
        assert len(rendered) == 1

    def test_rational_parameters(self, capsys):
        code, out, _ = invoke(capsys, "fib-norm", "--n", "5",
                              "--alpha1", "2/3", "--alpha2", "-7/2")
        assert code == 0
        assert "equal=true" in out

    def test_norm_beyond_the_int_string_limit(self, capsys):
        # The norm at n = 20000 has about 8,400 digits, past Python's
        # default 4,300-digit str(int) limit; the caller's limit stays.
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = invoke(capsys, "fib-norm", "--n", "20000",
                                    "--alpha1", "1", "--alpha2", "1")
            assert sys.get_int_max_str_digits() == 4300
            assert code == 0, err
            sys.set_int_max_str_digits(0)
            direct, formula, equal = out.splitlines()
            assert direct == f"direct={3 * fib(2 * 20000 + 3)}"
            assert formula == "formula" + direct[len("direct"):]
            assert equal == "equal=true"
        finally:
            sys.set_int_max_str_digits(previous)

    def test_interpreter_without_a_digit_limit(self, capsys, monkeypatch):
        # Python 3.10.0-3.10.6 has no get_int_max_str_digits: nothing to lift.
        commands = (["twist", "--t", "2", "--p", "1", "--q", "2"],
                    ["fib-norm", "--n", "5", "--alpha1", "2/3", "--alpha2", "-7/2"])
        want = [invoke(capsys, *argv) for argv in commands]
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        for argv, (code, out, _) in zip(commands, want):
            assert code == 0
            assert invoke(capsys, *argv) == (0, out, "")


class TestThreshold:
    def test_unit_parameters(self, capsys):
        code, out, _ = invoke(capsys, "threshold", "--alpha1", "1",
                              "--alpha2", "1")
        assert code == 0
        assert "energy_sign=+1" in out
        assert "n0=0" in out

    def test_negative_parameters(self, capsys):
        code, out, _ = invoke(capsys, "threshold", "--alpha1", "-1",
                              "--alpha2", "-1", "--nmax", "200")
        assert code == 0
        assert "n0=" in out

    def test_sign_unsettled_within_the_window(self, capsys):
        code, out, err = invoke(capsys, "threshold", "--alpha1", "-1",
                                "--alpha2", "-1/3", "--nmax", "0")
        assert (code, out) == (1, "")
        assert err == "error: sign did not stabilize by n=0\n"

    def test_huge_window_answers_promptly(self):
        # Processes, timed from outside: no norm past the proven settle
        # index is computed, however large --nmax is.
        outs = []
        for n_max in ("200", "1000000000"):
            proc = subprocess.run([sys.executable, "-m", "cdalgebra.cli", "threshold",
                                   "--alpha1", "2", "--alpha2", "3", "--nmax", n_max],
                                  env=_src_env(), capture_output=True, text=True,
                                  timeout=30)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert outs[0].endswith("n0=0\n")

    def test_a_rational_energy_prints_as_one_number(self, capsys):
        # E = 3/11 has no golden part, so it prints without "a".
        code, out, _ = invoke(capsys, "threshold", "--alpha1", "1", "--alpha2", "-1/11")
        assert (code, out) == (0, "energy=3/11\nenergy_sign=+1\nn0=0\n")

    def test_a_pure_golden_energy_prints_its_sign_and_coefficient(self, capsys):
        # E = -(3/10)a has no rational part: the golden part alone, with its
        # sign, and the coefficient parenthesized.
        code, out, _ = invoke(capsys, "threshold", "--alpha1", "-1/2", "--alpha2", "1")
        assert (code, out) == (0, "energy=-(3/10)a\nenergy_sign=-1\nn0=2\n")

    def test_zero_energy_is_an_error_line(self, capsys, monkeypatch):
        # Unreachable through rational parameters, so force it: the
        # library's refusal reaches the user as one error line.
        from cdalgebra import fibonacci
        monkeypatch.setattr(fibonacci, "energy", lambda params: fibonacci.GoldenNumber(0, 0))
        code, out, err = invoke(capsys, "threshold", "--alpha1", "1", "--alpha2", "1")
        assert (code, out) == (1, "")
        assert err == "error: energy is zero; the sign criterion does not apply\n"


class TestResidueFieldCommand:
    ARGS = ("--pi", "-1,2", "--w", "1,1,1,1", "--t", "2")

    def test_golden_table_csv(self, capsys):
        code, out, _ = invoke(capsys, "residue-field", "--p", "13", *self.ARGS)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,a,b,norm,element"
        assert len(lines) == 14
        assert lines[5] == "4,-3,1,7,-3+w"
        assert lines[13] == "12,-1,0,1,-1"

    def test_json_form(self, capsys):
        code, out, _ = invoke(capsys, "residue-field", "--format", "json",
                              *self.ARGS)
        assert code == 0
        data = json.loads(out)
        assert data["p"] == 13
        assert data["s"] == 7
        assert data["labels"][4] == {"k": 4, "a": -3, "b": 1, "norm": 7}

    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "residue-field", "--format", "json",
                              *self.ARGS)
        assert code == 0
        data = json.loads(out)
        gen = make_w(2, (1, 2, 3), (1, 1, 1, 1))
        field = residue_field(gen.element(-1, 2))
        assert (data["p"], data["s"], data["pi"]) == (field.p, field.s, [-1, 2])
        assert (data["t"], data["w_basis"], data["w"]) == (2, [1, 2, 3], [1, 1, 1, 1])
        assert gen.w == make_w(data["t"], data["w_basis"], data["w"]).w
        assert (data["w_trace"], data["w_norm"]) == (gen.q, gen.m)
        assert data["labels"] == [{"k": k, "a": u.a, "b": u.b, "norm": u.norm()}
                                  for k, u in enumerate(field.reps)]
        for row in data["labels"]:
            assert field.label(gen.element(row["a"], row["b"])) == row["k"]

    def test_json_header_does_not_grow_with_the_depth(self, capsys):
        # w = 1 + e5 + e9 + e2049 at depth 12 has the trace and norm of
        # 1 + e1 + e2 + e3, so the two fields agree; only the header's t and
        # basis differ, not its size with the 2^t slots.
        outs = {}
        for t, basis in ((2, "1,2,3"), (12, "5,9,2049")):
            code, out, _ = invoke(capsys, "residue-field", "--format", "json", "--pi", "-1,2",
                                  "--w", "1,1,1,1", "--t", str(t), "--basis", basis)
            assert code == 0
            outs[t] = out
        small, large = json.loads(outs[2]), json.loads(outs[12])
        assert (large["t"], large["w_basis"], large["w"]) == (12, [5, 9, 2049], [1, 1, 1, 1])
        assert {**large, "t": 2, "w_basis": [1, 2, 3]} == small
        assert len(outs[12]) - len(outs[2]) == len("12") - len("2") + len("5,9,2049") - len("1,2,3")

    def test_wrong_expected_prime(self, capsys):
        code, _, err = invoke(capsys, "residue-field", "--p", "11", *self.ARGS)
        assert code == 1
        assert "13" in err

    def test_composite_modulus(self, capsys):
        code, _, err = invoke(capsys, "residue-field", "--pi", "2,0",
                              "--w", "1,1,1,1", "--t", "2")
        assert code == 1
        assert "prime" in err


    def test_field_above_size_bound_is_contract_error(self, capsys):
        # The norm 1,000,032,000,259 is prime, but its class table could
        # never be allocated.
        code, out, err = invoke(capsys, "residue-field", "--pi", "1000015,1",
                                "--w", "1,1,1,1", "--t", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: modulus norm 1000032000259 exceeds the "
                              "field-size bound")
        assert err.count("\n") == 1


def _src_env():
    """The environment for a subprocess that imports the package from ./src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# Subcommands that need no array: their runs load neither numpy nor sympy.
# Only ``blocks`` above KERNEL_MAX_DEPTH and the twist suite of ``verify``
# build arrays and load numpy.  Element products load none, dense or sparse,
# at any depth; the runs below make both kinds up to depth 6 (``verify
# --suite core``), and TestKernel in tests/test_algebra.py checks sparse ones
# at t = 6-12 in a fresh interpreter.
# ``import cdalgebra`` loads no submodule, and the CLI module only
# ``algebra``, which it parses with; handlers import the rest.
_ARRAY_FREE = (
    ["twist", "--t", "30", "--p", "5", "--q", "9"],
    # Tables are rendered from the kernel's codes.
    ["mul-table", "--t", "6", "--gammas", "2,-3,1/2,-1,3,-1"],
    ["mul-table", "--t", "8", "--gammas", ",".join(["-1"] * 8), "--convention", "eq31"],
    ["mul-table", "--t", "4", "--gammas", "-1,2,1/2,-3/4", "--format", "json"],
    ["fib-norm", "--n", "10", "--alpha1", "2", "--alpha2", "3"],
    ["threshold", "--alpha1", "2", "--alpha2", "3"],
    ["verify", "--suite", "fib"],
    # Tiles up to depth 8 are classified from the kernel's sign rows.
    *(["blocks", "--t", "8", "--convention", c] for c in ("eq11", "eq31")),
    # Dense products run generated code up to depth 5 and by halves above;
    # sparse ones run the pair loop over the codes.
    *(["verify", "--suite", "core", "--t", t, "--samples", "5"] for t in ("5", "6")),
    ["residue-field", "--p", "13", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2"],
    ["label", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2", "--u", "3,4"],
    ["encode", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2", "--symbols", "1,2,3"],
    # Generators above depth 5: each run binds a kernel and takes one norm,
    # by the loop, and multiplies no Element.
    *(["label", "--pi", "-1,2", "--w", "1,1,1,1", "--t", t, "--u", "3,4"]
      for t in ("6", "7", "8")),
    *(["encode", "--pi", "-1,2", "--w", "1,1,1,1", "--t", t, "--symbols", "1,2,3"]
      for t in ("7", "8")),
    # The same above the code depth.
    ["label", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "12", "--u", "3,4"],
    ["encode", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "12", "--symbols", "1,2,3"],
)


def test_array_free_runs_in_one_process_load_no_numpy():
    script = ("import sys\n"
              "import cdalgebra\n"
              "loaded = [m for m in sys.modules if m.startswith('cdalgebra.')]\n"
              "assert not loaded, f'import cdalgebra loaded {loaded}'\n"
              "from cdalgebra import cli\n"
              "loaded = {m for m in sys.modules if m.startswith('cdalgebra.')}\n"
              "assert loaded == {'cdalgebra.algebra', 'cdalgebra.cli'}, loaded\n"
              f"for argv in {_ARRAY_FREE!r}:\n"
              "    code = cli.run(argv)\n"
              "    assert code == 0, (argv, code)\n"
              "    for name in ('numpy', 'sympy'):\n"
              "        assert name not in sys.modules, f'{argv[0]} imported {name}'\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["twist", "--t", "30", "--p", "5", "--q", "9"],
    ["mul-table", "--t", "6", "--gammas", "2,-3,1/2,-1,3,-1"],
    ["mul-table", "--t", "4", "--gammas", "-1,2,1/2,-3/4", "--format", "json"],
    ["fib-norm", "--n", "10", "--alpha1", "2", "--alpha2", "3"],
    ["threshold", "--alpha1", "2", "--alpha2", "3"],
    ["residue-field", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2"],
    pytest.param(["residue-field", "--pi", "1,7", "--w", "1,1,1,1", "--t", "2",
                  "--format", "json"], id="residue-field-json"),
    ["label", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "8", "--u", "3,4"],
    *(pytest.param(["label", "--pi", "-1,2", "--w", "1,1,1,1", "--t", str(t), "--u", "3,4"],
                   id=f"label-t{t}") for t in (6, 12, 16)),
    ["encode", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2", "--symbols", "1,2,3"],
    ["blocks", "--t", "3"],  # the kernel's sign rows
    pytest.param(["blocks", "--t", "9"], id="blocks-t9"),  # builds a table
], ids=lambda argv: argv[0])
def test_process_imports_only_what_its_subcommand_runs(argv):
    imported = _process_imports(argv)
    assert "cdalgebra.algebra" in imported
    builds_tables = argv[:3] == ["blocks", "--t", "9"]
    assert ("numpy" in imported) is builds_tables
    assert ("cdalgebra.twist" in imported) is (argv[0] in ("blocks", "twist"))
    assert ("json" in imported) is ("json" in argv)
    # The twist and fibonacci value types are slot records, and the residue
    # layer imports logging only when a u_mod fallback fires, which none of
    # these runs reaches.  ResidueField is still a dataclass.
    assert "logging" not in imported
    if argv[0] in ("twist", "fib-norm", "threshold"):
        assert "dataclasses" not in imported


@pytest.mark.parametrize("suite, layer", [("fib", "cdalgebra.fibonacci"),
                                          ("residue", "cdalgebra.residue"),
                                          ("core", None), ("core --t 6", None)])
def test_verify_loads_only_the_layer_of_its_suite(suite, layer):
    # Submodules loaded through the package's lazy names are seen by
    # -X importtime too, so a layer imported at any depth would show here.
    # The core suite checks the algebra layer alone, dense and sparse
    # products up to depth 6 included.
    imported = _process_imports(["verify", "--suite", *suite.split()])
    loaded = {m for m in imported if m.startswith("cdalgebra.")}
    assert loaded == {"cdalgebra.algebra", "cdalgebra.suites", layer} - {None}
    assert "numpy" not in imported
    # The residue suite reduces golden-prime remainders that miss the norm
    # bound on nearest rounding, so its u_mod fallback fires and loads logging.
    assert ("logging" in imported) is (suite == "residue")


@pytest.mark.parametrize("argv", [
    ["twist", "--t", "30", "--p", "5", "--q", "9"],
    ["verify", "--suite", "fib"],
], ids=lambda argv: argv[0])
def test_only_json_output_loads_json(argv):
    assert "json" not in _process_imports(argv)


def _process_imports(argv):
    """Every module a CLI process imports, as ``-X importtime`` names them on
    stderr; warnings are errors, so a deprecation fails the run."""
    proc = subprocess.run([sys.executable, "-W", "error", "-X", "importtime",
                           "-m", "cdalgebra.cli", *argv],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_cli_module_reads_twist_names_from_twist():
    for name in cli._TWIST_NAMES:
        assert getattr(cli, name) is getattr(twist, name), name
    with pytest.raises(AttributeError, match="no attribute 'sign_table'"):
        cli.sign_table


def test_package_exports_resolve_on_first_use():
    import cdalgebra

    homes = {"algebra": algebra, "twist": twist, "fibonacci": fibonacci,
             "residue": residue}
    assert cdalgebra.__all__[-1] == "__version__"
    for name in cdalgebra.__all__[:-1]:
        home = homes[cdalgebra._HOME[name]]
        assert getattr(cdalgebra, name) is getattr(home, name), name
    assert [getattr(cdalgebra, module) for module in homes] == list(homes.values())
    namespace = {}
    exec("from cdalgebra import *", namespace)
    for name in cdalgebra.__all__:
        assert namespace[name] is getattr(cdalgebra, name), name
    assert set(cdalgebra.__all__) <= set(dir(cdalgebra))
    with pytest.raises(AttributeError, match="no_such_name"):
        cdalgebra.no_such_name


class TestLabelCommand:
    ARGS = ("--pi", "-1,2", "--w", "1,1,1,1", "--t", "2")

    def test_label_element(self, capsys):
        code, out, _ = invoke(capsys, "label", *self.ARGS, "--u", "-3,1")
        assert code == 0
        assert out == "label=4\n"

    def test_unlabel_symbol(self, capsys):
        code, out, _ = invoke(capsys, "label", *self.ARGS, "--k", "9")
        assert code == 0
        assert out == "element=3,-1\n"

    def test_requires_exactly_one_mode(self, capsys):
        code, _, err = invoke(capsys, "label", *self.ARGS)
        assert code == 1
        assert "--u or --k" in err

    @pytest.mark.parametrize("t", [13, 16])
    def test_depth_beyond_the_table_guard(self, capsys, t):
        # A field builds no table, so only MAX_FIELD_DEPTH bounds its depth;
        # the labels are those of the depth-2 field.
        argv = ("--pi", "-1,2", "--w", "1,1,1,1", "--t", str(t))
        assert invoke(capsys, "label", *argv, "--u", "3,4") == (0, "label=5\n", "")
        assert invoke(capsys, "label", *argv, "--k", "9") == (0, "element=3,-1\n", "")

    def test_field_depth_bound_is_the_library_one(self):
        assert cli.MAX_FIELD_DEPTH is algebra.MAX_FIELD_DEPTH

    def test_depth_above_the_field_bound(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["label", "--pi", "-1,2", "--w", "1,1,1,1", "--t", str(MAX_FIELD_DEPTH + 1),
                 "--u", "3,4"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (f"error: argument --t: must be >= 2 and <= "
                                           f"{MAX_FIELD_DEPTH}, got {MAX_FIELD_DEPTH + 1}\n")

    @pytest.mark.parametrize("coords", ["1", "-3,1,9"])
    def test_u_takes_exactly_two_coordinates(self, capsys, coords):
        code, out, err = invoke(capsys, "label", *self.ARGS, "--u", coords)
        assert code == 1
        assert out == ""
        assert err.startswith("error: --u takes exactly two coordinates")


class TestEncodeCommand:
    ARGS = ("--pi", "-1,2", "--w", "1,1,1,1", "--t", "2")

    def test_encode_and_decode_line(self, capsys):
        code, out, _ = invoke(capsys, "encode", *self.ARGS,
                              "--symbols", "4,7,12")
        assert code == 0
        assert out == "-3,1\n1,-1\n-1,0\ndecoded=4,7,12\n"

    def test_symbol_out_of_range(self, capsys):
        code, _, err = invoke(capsys, "encode", *self.ARGS, "--symbols", "13")
        assert code == 1
        assert "range" in err

    def test_a_failed_round_trip_prints_the_stream_then_an_error_line(self, capsys,
                                                                      monkeypatch):
        monkeypatch.setattr(residue, "decode_symbols", lambda us, field: [0] * len(us))
        code, out, err = invoke(capsys, "encode", *self.ARGS, "--symbols", "4,7,12")
        assert (code, out) == (1, "-3,1\n1,-1\n-1,0\ndecoded=0,0,0\n")
        assert err == "error: decode of the encoded stream does not round-trip\n"


class TestFlagsBeforeTheField:
    """The field commands check their flags before the O(p) field build."""

    GOLDEN = ("--pi", "-1,2", "--w", "1,1,1,1", "--t", "2")
    NEAR_BOUND = ("--pi", "21,500", "--w", "1,1,1,1", "--t", "2")   # p = 1,021,441

    @pytest.mark.parametrize("argv, message", [
        (("residue-field", "--p", "11", *GOLDEN), "modulus norm is 13, not the requested 11"),
        (("residue-field", "--format", "json", "--p", "13", *NEAR_BOUND),
         "modulus norm is 1021441, not the requested 13"),
        (("label", "--p", "13", *NEAR_BOUND, "--k", "0"),
         "modulus norm is 1021441, not the requested 13"),
        (("label", *NEAR_BOUND), "provide exactly one of --u or --k"),
        (("label", *NEAR_BOUND, "--u", "3,4", "--k", "0"), "provide exactly one of --u or --k"),
        (("label", *NEAR_BOUND, "--u", "3"), "--u takes exactly two coordinates a,b"),
        (("encode", "--p", "7", *GOLDEN, "--symbols", "1"),
         "modulus norm is 13, not the requested 7"),
    ])
    def test_each_error_comes_before_the_build(self, capsys, monkeypatch, argv, message):
        def build(pi, verify=True):
            raise AssertionError("the field was built")
        monkeypatch.setattr(residue, "residue_field", build)
        assert invoke(capsys, *argv) == (1, "", f"error: {message}\n")


class TestOutputErrors:
    def test_missing_directory_is_contract_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = invoke(capsys, "fib-norm", "--n", "3", "--alpha1", "1",
                                "--alpha2", "1", "--output", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}")


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["definitely-not-a-command"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["twist", "--t", "2", "--p", "1"])
        assert exc.value.code == 2

    def test_bad_rational(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fib-norm", "--n", "1", "--alpha1", "x", "--alpha2", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "core", "--samples", "-5", "--t", "1"],
        ["verify", "--suite", "core", "--samples", "0", "--t", "1"],
        ["verify", "--suite", "core", "--t", "-1"],
        ["verify", "--suite", "core", "--t", "0"],
        ["verify", "--suite", "core", "--t", "7"],
        ["twist", "--t", "-1", "--p", "1", "--q", "2"],
        ["mul-table", "--t", "-1", "--gammas", "-1"],
        ["blocks", "--t", "-1"],
        ["threshold", "--alpha1", "1", "--alpha2", "1", "--nmax", "-1"],
        ["fib-norm", "--n", "-1", "--alpha1", "1", "--alpha2", "1"],
        ["fib-norm", "--n", "200001", "--alpha1", "1", "--alpha2", "1"],
        ["mul-table", "--t", "0", "--gammas", ""],
        ["blocks", "--t", "0"],
        ["residue-field", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "1"],
        ["residue-field", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "21"],
        ["label", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "30", "--k", "1"],
        ["encode", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "24",
         "--symbols", "1"],
        ["mul-table", "--t", "11", "--gammas", ",".join(["-1"] * 11)],
    ])
    def test_out_of_range_counts_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert "must be >= " in line

    @pytest.mark.parametrize("argv", [
        ["encode", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2", "--symbols", "1,,2"],
        ["encode", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2", "--symbols", ","],
        ["label", "--pi", "-1,2,", "--w", "1,1,1,1", "--t", "2", "--u", "3,4"],
        ["label", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2", "--u", ",3,4"],
        ["residue-field", "--pi", "-1,2", "--w", "1,1,,1,1", "--t", "2"],
        ["residue-field", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2", "--basis", "1,2,3,"],
        ["mul-table", "--t", "3", "--gammas", "-1,,-1"],
        ["mul-table", "--t", "2", "--gammas", "-1,-1,"],
    ])
    def test_empty_list_items_are_usage_errors(self, capsys, argv):
        # An item dropped in silence would leave a truncated input.
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: argument --")

    def test_an_empty_value_is_the_empty_list(self, capsys):
        argv = ["encode", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2", "--symbols", ""]
        assert invoke(capsys, *argv) == (0, "decoded=\n", "")

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", suite, *flags]
        for suite in ("fib", "twist", "residue")
        for flags in (["--t", "3"], ["--samples", "5"])])
    def test_core_suite_flags_need_the_core_suite(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: {argv[3]} sizes the core suite, not --suite {argv[2]}"


# ---- fuzz: every input ends in a result or an error line --------------------

_MISSING_OUTPUT = str(Path(__file__).parent / "no-such-dir" / "out.txt")
_small = st.integers(-3, 5).map(str)
_list = st.lists(st.integers(-4, 4), max_size=5).map(
    lambda v: ",".join(map(str, v)))
_rational = st.sampled_from(["1", "-1", "0", "2", "1/2", "-2/3", "x"])
_convention = st.sampled_from(["eq11", "eq31", "eq99"])
# Lean towards the 13-element golden field so the per-command flags are reached.
_field = {"pi": st.one_of(st.just("-1,2"), _list),
          "w": st.one_of(st.just("1,1,1,1"), _list),
          "t": st.one_of(st.just("2"), _small)}
_field_optional = {"p": _small, "basis": _list}


def _command(name, required, optional=None):
    return st.tuples(st.just(name), st.fixed_dictionaries(
        required, optional={"output": st.just(_MISSING_OUTPUT), **(optional or {})}))


_COMMANDS = st.one_of(
    _command("mul-table", {"t": _small, "gammas": _list},
             {"convention": _convention, "format": st.sampled_from(["csv", "json"])}),
    _command("twist", {"t": _small, "p": _small, "q": _small},
             {"convention": _convention}),
    _command("blocks", {"t": _small}, {"convention": _convention}),
    # Both bounds required: the defaults would run the full core sweep.
    _command("verify", {"suite": st.just("core"),
                        "samples": st.integers(-2, 2).map(str),
                        "t": st.integers(-2, 3).map(str)},
             {"seed": st.one_of(st.integers(-2, 2).map(str), st.just("x"))}),
    _command("fib-norm", {"n": st.integers(-3, 30).map(str),
                          "alpha1": _rational, "alpha2": _rational}),
    _command("threshold", {"alpha1": _rational, "alpha2": _rational},
             {"nmax": st.integers(-3, 30).map(str)}),
    _command("residue-field", _field,
             {**_field_optional, "format": st.sampled_from(["csv", "json"])}),
    _command("label", _field, {**_field_optional, "u": _list, "k": _small}),
    _command("encode", {**_field, "symbols": _list}, _field_optional),
)


@settings(max_examples=300, deadline=None, database=None)
@given(_COMMANDS)
def test_fuzz_run_ends_in_result_or_error_line(command):
    name, flags = command
    argv = [name]
    for flag, value in flags.items():
        argv += [f"--{flag}", value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code:
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error:")
