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

from cdalgebra import algebra, cli, fibonacci, residue, twist
from cdalgebra.algebra import Convention, make_algebra
from cdalgebra.cli import run
from cdalgebra.fibonacci import fib
from cdalgebra.residue import make_w, residue_field
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


def field_to_dict(field):
    return {"p": field.p, "s": field.s, "pi": [field.pi.a, field.pi.b],
            "w_trace": field.gen.q, "w_norm": field.gen.m,
            "t": field.gen.w.signature.t, "w_coeffs": list(field.gen.w.coeffs),
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
            want = json.dumps(field_to_dict(field), indent=2) + "\n"
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
        # One right-aligned label per tile, rows in tree order: every label
        # of the convention's alphabet occurs at t = 5.
        code, out, _ = invoke(capsys, "blocks", "--t", "5", "--convention", convention.value)
        assert code == 0
        kinds = twist.partition_blocks(build_table(5, convention))
        rows = [" ".join(f"{twist.BlockKind(k).label():>3}" for k in row) + "\n"
                for row in kinds]
        assert out == "".join(rows) + "all 256 blocks classified: PASS\n"


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


class TestFibNorm:
    def test_equal_verdict(self, capsys):
        code, out, _ = invoke(capsys, "fib-norm", "--n", "3",
                              "--alpha1", "1", "--alpha2", "1")
        assert code == 0
        assert out == "direct=102\nformula=102\nequal=true\n"

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
        assert (data["t"], data["w_coeffs"]) == (2, list(gen.w.coeffs))
        assert (data["w_trace"], data["w_norm"]) == (gen.q, gen.m)
        assert data["labels"] == [{"k": k, "a": u.a, "b": u.b, "norm": u.norm()}
                                  for k, u in enumerate(field.reps)]
        for row in data["labels"]:
            assert field.label(gen.element(row["a"], row["b"])) == row["k"]

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


# Subcommands that need no array: their processes load neither numpy nor
# sympy.  Only ``blocks`` and the twist suite of ``verify`` build arrays and
# load numpy; no Element operation does, dense or sparse, at any depth.  ``import cdalgebra`` loads
# no submodule, and the CLI module only ``algebra``, which it parses with;
# handlers import the rest.
_ARRAY_FREE = (
    ["twist", "--t", "30", "--p", "5", "--q", "9"],
    # Tables are rendered from the kernel's codes.
    ["mul-table", "--t", "6", "--gammas", "2,-3,1/2,-1,3,-1"],
    ["mul-table", "--t", "8", "--gammas", ",".join(["-1"] * 8), "--convention", "eq31"],
    ["mul-table", "--t", "4", "--gammas", "-1,2,1/2,-3/4", "--format", "json"],
    ["fib-norm", "--n", "10", "--alpha1", "2", "--alpha2", "3"],
    ["threshold", "--alpha1", "2", "--alpha2", "3"],
    ["verify", "--suite", "fib"],
    # Dense products run generated code up to depth 5 and by halves above.
    *(["verify", "--suite", "core", "--t", t, "--samples", "5"] for t in ("5", "6")),
    ["residue-field", "--p", "13", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2"],
    ["label", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2", "--u", "3,4"],
    ["encode", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2", "--symbols", "1,2,3"],
    # Sparse products read codes doubled in lists, at every kernel depth.
    *(["label", "--pi", "-1,2", "--w", "1,1,1,1", "--t", t, "--u", "3,4"]
      for t in ("6", "7", "8")),
    *(["encode", "--pi", "-1,2", "--w", "1,1,1,1", "--t", t, "--symbols", "1,2,3"]
      for t in ("7", "8")),
    # Above the code depth, sparse products call the pointwise coefficient.
    ["label", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "12", "--u", "3,4"],
    ["encode", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "12", "--symbols", "1,2,3"],
)


def test_residue_field_runs_without_sympy():
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
    ["mul-table", "--t", "6", "--gammas", "2,-3,1/2,-1,3,-1"],
    ["mul-table", "--t", "4", "--gammas", "-1,2,1/2,-3/4", "--format", "json"],
    ["fib-norm", "--n", "10", "--alpha1", "2", "--alpha2", "3"],
    ["threshold", "--alpha1", "2", "--alpha2", "3"],
    ["residue-field", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2"],
    ["label", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "8", "--u", "3,4"],
    ["encode", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "2", "--symbols", "1,2,3"],
    ["blocks", "--t", "3"],  # builds arrays
], ids=lambda argv: argv[0])
def test_process_imports_only_what_its_subcommand_runs(argv):
    imported = _process_imports(argv)
    assert "cdalgebra.algebra" in imported
    loads_tables = argv[0] == "blocks"
    assert ("numpy" in imported) is loads_tables
    assert ("cdalgebra.twist" in imported) is loads_tables
    assert ("json" in imported) is ("json" in argv)


@pytest.mark.parametrize("argv", [
    ["twist", "--t", "30", "--p", "5", "--q", "9"],
    ["verify", "--suite", "fib"],
], ids=lambda argv: argv[0])
def test_only_json_output_loads_json(argv):
    assert "json" not in _process_imports(argv)


def _process_imports(argv):
    """Every module a CLI process imports, as ``-X importtime`` names them on stderr."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "cdalgebra.cli", *argv],
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
        ["residue-field", "--pi", "-1,2", "--w", "1,1,1,1", "--t", "13"],
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
                        "t": st.integers(-2, 3).map(str)}),
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
