"""The benchmark's own tests: every output check passes on real program
output and rejects a deliberately corrupted copy of it.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from cdalgebra import algebra, cli, residue, suites, twist  # noqa: E402

Convention = algebra.Convention


def rejects(fragment: str, fn, *args):
    with pytest.raises(CheckFailed, match=fragment):
        fn(*args)


# ---- reference.py agrees with itself and with the definitions -------------


@pytest.mark.parametrize("conv", ["eq11", "eq31"])
def test_reference_basis_recursion_matches_pair_formula(conv):
    t, gammas = 4, (2, 3, 5, 7)   # distinct primes identify the stage mask
    n = 1 << t
    for p in range(n):
        for q in range(n):
            e = [tuple(int(k == i) for k in range(n)) for i in (p, q)]
            prod = ref.mul(e[0], e[1], gammas, conv)
            s, m = ref.basis_coefficient(p, q, t, conv)
            value = s
            for i, g in enumerate(gammas):
                if m >> i & 1:
                    value *= g
            assert prod == tuple(value if k == p ^ q else 0 for k in range(n))


def test_reference_energy_sign_and_primes():
    assert ref.sign_sqrt5(-2, 1) == 1 and ref.sign_sqrt5(-3, 1) == -1
    assert ref.energy_sign(1, 1) == 1 and ref.energy_sign(-1, -1) == 1
    assert [p for p in range(30) if ref.is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert ref.representations(13, 2, 4) == [(-3, 2), (-1, 2), (1, -2), (3, -2)]


# ---- tower ------------------------------------------------------------------


@pytest.fixture
def element_case():
    rng = random.Random(5)
    sig = algebra.make_algebra(3, (2, -3, Fraction(5, 7)), Convention.CONJUGATE_RIGHT)
    xs = workloads._elements(sig, 6, rng, True)
    pairs = list(zip(xs[::2], xs[1::2]))
    outputs = []
    for x, y in pairs:
        outputs += [x * y, x.norm(), x.inverse()]
    checks.check_elements(pairs, outputs, {0, 1, 2})
    return pairs, outputs


def _replace(outputs, index, value):
    out = list(outputs)
    out[index] = value
    return out


def test_elements_reject_wrong_product(element_case):
    pairs, out = element_case
    bad = out[0] + out[0].signature.one()
    rejects("reference doubling product", checks.check_elements, pairs, _replace(out, 0, bad), {0})


def test_elements_reject_wrong_norm(element_case):
    pairs, out = element_case
    rejects("diagonal form", checks.check_elements, pairs, _replace(out, 1, out[1] + 1), {0})


def test_elements_reject_wrong_inverse(element_case):
    pairs, out = element_case
    rejects("x x\\^-1", checks.check_elements, pairs, _replace(out, 2, out[2] * 2), set())


def test_elements_reject_inexact_scalar(element_case):
    pairs, out = element_case
    fake = SimpleNamespace(coeffs=(0.5,) * 8)
    rejects("not int or Fraction", checks.check_elements, pairs, _replace(out, 0, fake), set())


def test_elements_reject_broken_conjugation(element_case, monkeypatch):
    pairs, out = element_case
    monkeypatch.setattr(algebra.Element, "conjugate", lambda self: self)
    rejects("x conj\\(x\\)", checks.check_elements, pairs, out, {0})


def test_elements_reject_product_that_ignores_conjugation_order(element_case, monkeypatch):
    pairs, out = element_case
    right = algebra.Element.__mul__

    def other_convention(a, b):
        if not isinstance(b, algebra.Element):
            return right(a, b)
        sig = a.signature
        flip = algebra.make_algebra(sig.t, sig.gammas, Convention.CONJUGATE_LEFT)
        return sig.element(right(flip.element(a.coeffs), flip.element(b.coeffs)).coeffs)

    monkeypatch.setattr(algebra.Element, "__mul__", other_convention)
    rejects("conj\\(xy\\)", checks.check_elements, pairs, out, {0})


def test_elements_reject_non_flexible_product(element_case, monkeypatch):
    pairs, out = element_case
    x = pairs[0][0]
    xc = x.conjugate()
    right = algebra.Element.__mul__

    def skewed(a, b):
        prod = right(a, b)
        if a is x and isinstance(b, algebra.Element) and b != xc:
            return prod + a.signature.one()
        return prod

    monkeypatch.setattr(algebra.Element, "__mul__", skewed)
    rejects("flexibility", checks.check_elements, pairs, out, {0})


def _sampled_pair(n, seed, count):
    return checks._sample_indices(n, random.Random(seed), count)


def test_table_rejects_wrong_entry():
    table = twist.build_table(5, Convention.CONJUGATE_LEFT)
    checks.check_table(table, 5, "eq31", random.Random(1))
    p, q = _sampled_pair(32, 1, 64)[5]
    for arrays in ("signs", "masks"):
        signs, masks = table.base_signs.copy(), table.gamma_masks.copy()
        if arrays == "signs":
            signs[p, q] *= -1
        else:
            masks[p, q] ^= 1
        bad = twist.TwistTable(5, Convention.CONJUGATE_LEFT, signs, masks)
        rejects("entry", checks.check_table, bad, 5, "eq31", random.Random(1))


@pytest.mark.parametrize("corrupt, fragment", [
    (lambda s, p, q: s.__setitem__((0, 3), -1), "unit row"),
    (lambda s, p, q: s.__setitem__((4, 4), 1), "diagonal"),
    (lambda s, p, q: s.__setitem__((2, 3), -s[2, 3]), "anticommute"),
    (lambda s, p, q: (s.__setitem__((p, q), -s[p, q]), s.__setitem__((q, p), -s[q, p])),
     "sign \\("),
])
def test_sign_table_rejects(corrupt, fragment):
    signs = twist.build_table(5, Convention.CONJUGATE_RIGHT).sign_table()
    checks.check_sign_table(signs, 5, "eq11", random.Random(2))
    p, q = next((p, q) for p, q in _sampled_pair(32, 2, 64) if p and q and p != q)
    signs = signs.copy()
    corrupt(signs, p, q)
    rejects(fragment, checks.check_sign_table, signs, 5, "eq11", random.Random(2))


def test_blocks_reject():
    label_of = lambda k: twist.BlockKind(k).label()  # noqa: E731
    kinds = twist.partition_blocks(twist.build_table(6, Convention.CONJUGATE_LEFT))
    checks.check_blocks(kinds, 6, "eq31", label_of, random.Random(3))
    bad = kinds.copy()
    bad[0, 0] = twist.BlockKind.A
    rejects("A0", checks.check_blocks, bad, 6, "eq31", label_of, random.Random(3))
    bad = kinds.copy()
    bad[1, 2] = twist.BlockKind.B_TRANSPOSED
    rejects("transposed-B", checks.check_blocks, bad, 6, "eq31", label_of, random.Random(3))
    i, j = _sampled_pair(32, 3, 32)[4]
    bad = kinds.copy()
    bad[i, j] = twist.BlockKind.NEG_C if kinds[i, j] != twist.BlockKind.NEG_C else twist.BlockKind.C
    rejects("tile", checks.check_blocks, bad, 6, "eq31", label_of, random.Random(3))


def test_pointwise_rejects():
    sig = algebra.make_algebra(30, (-1,) * 30)
    pairs = [(123456789, 987654321), (5, 7)]
    signs = [twist.twist_sign(p, q, 30) for p, q in pairs]
    products = [twist.basis_product(p, q, sig) for p, q in pairs]
    checks.check_pointwise(pairs, 30, "eq11", signs, products)
    rejects("twist_sign", checks.check_pointwise, pairs, 30, "eq11", [-signs[0]] + signs[1:], products)
    coeff, index = products[1]
    rejects("index", checks.check_pointwise, pairs, 30, "eq11", signs,
            [products[0], (coeff, index ^ 1)])
    wrong = twist.TwistCoefficient(coeff.sign, coeff.gamma_mask ^ 4)
    rejects("coefficient", checks.check_pointwise, pairs, 30, "eq11", signs,
            [products[0], (wrong, index)])


# ---- sweep ------------------------------------------------------------------


def test_suite_check_rejects_empty_or_failed():
    result = suites.run_fib_suite(norm_range=2, random_params=2, threshold_params=1)
    checks.check_suite(result)
    rejects("no checks", checks.check_suite, suites.SuiteResult("fib"))
    rejects("failed", checks.check_suite, dataclasses.replace(result, failures=["x"]))


# ---- domain -----------------------------------------------------------------

GEN = residue.make_w(2, (1, 2, 3), (1, 1, 1, 1))
PI = (-1, 2)


@pytest.fixture
def field():
    f = residue.residue_field(GEN.element(*PI))
    checks.check_field(f, PI, 2, 4, random.Random(4))
    return f


def _with_reps(f, reps):
    return dataclasses.replace(f, reps=tuple(reps))


def test_field_rejects(field):
    reps = list(field.reps)
    rejects("field size", checks.check_field, dataclasses.replace(field, p=11), PI, 2, 4,
            random.Random(4))
    fake = SimpleNamespace(p=25, reps=[])
    rejects("trial division", checks.check_field, fake, (5, 0), 2, 4, random.Random(4))
    rejects("distinct", checks.check_field, _with_reps(field, [reps[1]] + reps[1:]), PI, 2, 4,
            random.Random(4))
    rejects("not labelled", checks.check_field, _with_reps(field, [reps[1], reps[0]] + reps[2:]),
            PI, 2, 4, random.Random(4))
    far = reps[3] + GEN.element(*PI) * 3
    rejects("norm >=", checks.check_field, _with_reps(field, reps[:3] + [far] + reps[4:]),
            PI, 2, 4, random.Random(4))
    rejects("label of sum", checks.check_field, dataclasses.replace(field, s=field.s + 1),
            PI, 2, 4, random.Random(4))


def test_decode_and_codec_reject(field):
    xs = [(7, -3), (40, 11), (-5, 9)]
    labels = residue.decode_symbols([GEN.element(*x) for x in xs], field)
    checks.check_labels(xs, labels, PI, 2, 4)
    rejects("decoded label", checks.check_labels, xs, [labels[0] + 1] + labels[1:], PI, 2, 4)
    ks = [4, 7, 12, 0]
    enc = [(u.a, u.b) for u in residue.encode_symbols(ks, field)]
    checks.check_round_trip(ks, enc, ks, PI, 2, 4)
    rejects("round trip", checks.check_round_trip, ks, enc, [4, 7, 12, 1], PI, 2, 4)
    rejects("decoded label", checks.check_round_trip, ks, [enc[1]] + enc[1:], ks, PI, 2, 4)


def test_u_mod_rejects():
    x = (31, -17)
    r = residue.u_mod(GEN.element(*x), GEN.element(*PI))
    checks.check_u_mod(x, (r.a, r.b), PI, 2, 4)
    rejects("norm >=", checks.check_u_mod, x, x, PI, 2, 4)
    near = next((r.a + da, r.b) for da in (1, -1, 2, -2) if ref.form(r.a + da, r.b, 2, 4) < 13)
    rejects("not integral", checks.check_u_mod, x, near, PI, 2, 4)


def test_primality_fib_and_threshold_reject():
    us = [GEN.element(a, b) for a, b in ((-1, 2), (2, 3), (4, 0))]
    verdicts = [residue.is_prime_u(u) for u in us]
    norms = [u.norm() for u in us]
    checks.check_primality(norms, verdicts)
    rejects("is_prime_u", checks.check_primality, norms, [not verdicts[0]] + verdicts[1:])

    from cdalgebra import fibonacci
    fibs = ref.fibonacci(60)
    cases = [(20, Fraction(2, 3), Fraction(-1, 2))]
    qp = fibonacci.QuaternionParams(*cases[0][1:])
    direct, formula = [fibonacci.fib_norm_direct(20, qp)], [fibonacci.fib_norm_formula(20, qp)]
    checks.check_fib_norms(cases, direct, formula, fibs)
    rejects("direct", checks.check_fib_norms, cases, [direct[0] + 1], formula, fibs)
    rejects("formula", checks.check_fib_norms, cases, direct, [formula[0] - 1], fibs)

    fibs = ref.fibonacci(220)
    tcases = [(Fraction(-1, 3), Fraction(2, 5), 200)]
    n0 = [fibonacci.invertibility_threshold(fibonacci.QuaternionParams(*tcases[0][:2]), 200)]
    checks.check_thresholds(tcases, n0, fibs)
    rejects("threshold", checks.check_thresholds, tcases, [(n0[0] or 0) + 1], fibs)


# ---- cli --------------------------------------------------------------------


def run_cli(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(list(argv)) == 0
    return buf.getvalue()


def _edit_line(text: str, index: int, old: str, new: str) -> str:
    lines = text.splitlines()
    assert old in lines[index]
    lines[index] = lines[index].replace(old, new, 1)
    return "\n".join(lines) + "\n"


def test_exit_checks():
    checks.check_clean_exit(0, "ok", "")
    rejects("exit code", checks.check_clean_exit, 1, "", "error: x")
    rejects("traceback", checks.check_clean_exit, 0, "", "Traceback (most recent call last):")
    checks.check_usage_error(2, "usage: ...\nerror: bad\n")
    rejects("exit code", checks.check_usage_error, 0, "error: bad")
    rejects("no error: line", checks.check_usage_error, 1, "IndexError: list index")
    rejects("traceback", checks.check_usage_error, 1, "Traceback (most recent call last):\nerror: x")


def test_mul_table_text_rejects():
    out = run_cli("mul-table", "--t", "3", "--gammas", "-1,2,1/2")
    checks.check_mul_table_csv(out, 3, "eq11")
    lines = out.splitlines()
    rejects("rows", checks.check_mul_table_csv, "\n".join(lines[:-1]), 3, "eq11")
    rejects("index", checks.check_mul_table_csv, _edit_line(out, 12, ",2,", ",3,"), 3, "eq11")
    p, q, index, sign, mask = lines[12].split(",")
    flipped = ",".join([p, q, index, str(-int(sign)), mask])
    rejects("reference", checks.check_mul_table_csv, out.replace(lines[12], flipped), 3, "eq11")
    js = run_cli("mul-table", "--t", "2", "--gammas", "-1,1/2", "--format", "json")
    gammas = [Fraction(-1), Fraction(1, 2)]
    checks.check_mul_table_json(js, 2, "eq11", gammas)
    data = json.loads(js)
    data["gammas"][1] = "1/3"
    rejects("gammas", checks.check_mul_table_json, json.dumps(data), 2, "eq11", gammas)


def test_twist_and_blocks_text_reject():
    out = run_cli("twist", "--t", "30", "--p", "123456", "--q", "654321")
    checks.check_twist_line(out, 123456, 654321, 30, "eq11")
    flipped = out.replace("+1", "-1") if "+1" in out else out.replace("-1", "+1")
    rejects("twist printed", checks.check_twist_line, flipped, 123456, 654321, 30, "eq11")
    out = run_cli("blocks", "--t", "5")
    checks.check_blocks_text(out, 5, "eq31", random.Random(6))
    rejects("summary", checks.check_blocks_text, out.replace("PASS", "FAIL"), 5, "eq31",
            random.Random(6))
    rejects("A0", checks.check_blocks_text, out.replace(" A0", "  A", 1), 5, "eq31",
            random.Random(6))


def test_verify_text_rejects():
    out = run_cli("verify", "--suite", "fib")
    checks.check_verify_text(out, ["fib"])
    rejects("verify line", checks.check_verify_text, "fib: 0 checks, 0 failures [ok]\n", ["fib"])
    rejects("verify line", checks.check_verify_text,
            "fib: 10 checks, 1 failures [FAILED]\n", ["fib"])


def test_fib_norm_and_threshold_text_reject():
    fibs = ref.fibonacci(220)
    a1, a2 = Fraction(2, 3), Fraction(-5, 4)
    out = run_cli("fib-norm", "--n", "40", "--alpha1", "2/3", "--alpha2", "-5/4")
    checks.check_fib_norm_text(out, 40, a1, a2, fibs)
    rejects("equal flag", checks.check_fib_norm_text, out.replace("equal=true", "equal=false"),
            40, a1, a2, fibs)
    direct = out.splitlines()[0]
    bumped = f"direct={Fraction(direct[len('direct='):]) + 1}"
    rejects("direct", checks.check_fib_norm_text, out.replace(direct, bumped), 40, a1, a2, fibs)
    out = run_cli("threshold", "--alpha1", "-1/3", "--alpha2", "2/5")
    checks.check_threshold_text(out, Fraction(-1, 3), Fraction(2, 5), 200, fibs)
    got = dict(line.split("=", 1) for line in out.splitlines())
    bad = out.replace(f"n0={got['n0']}", f"n0={int(got['n0']) + 1}")
    rejects("n0", checks.check_threshold_text, bad, Fraction(-1, 3), Fraction(2, 5), 200, fibs)
    sign = got["energy_sign"]
    bad = out.replace(f"energy_sign={sign}", "energy_sign=" + ("-1" if sign == "+1" else "+1"))
    rejects("energy sign", checks.check_threshold_text, bad, Fraction(-1, 3), Fraction(2, 5),
            200, fibs)


def test_field_label_encode_text_reject():
    w = ["--w", "1,1,1,1", "--t", "2", "--pi", "-1,2"]
    out = run_cli("residue-field", "--p", "13", *w)
    checks.check_field_csv(out, PI, 2, 4)
    rejects("norm of representative", checks.check_field_csv,
            _edit_line(out, 2, "1,1,0,1", "1,1,0,2"), PI, 2, 4)
    lines = out.splitlines()
    swapped = [lines[0], lines[2].replace("1,", "0,", 1), lines[1].replace("0,", "1,", 1)]
    rejects("label of representative", checks.check_field_csv,
            "\n".join(swapped + lines[3:]), PI, 2, 4)
    out = run_cli("label", *w, "--u", "-3,1")
    checks.check_label_text(out, (-3, 1), PI, 2, 4)
    rejects("decoded label", checks.check_label_text, "label=5\n", (-3, 1), PI, 2, 4)
    out = run_cli("encode", *w, "--symbols", "4,7,12")
    checks.check_encode_text(out, [4, 7, 12], PI, 2, 4)
    rejects("round trip", checks.check_encode_text, out.replace("decoded=4,", "decoded=5,"),
            [4, 7, 12], PI, 2, 4)


# ---- harness ----------------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == metrics.PER_LAYER


def test_tracer_rebinds_names_taken_with_from_import():
    original = twist.build_table
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.build_table is not original and twist.build_table is cli.build_table
        assert suites.SUITES["fib"] is not suites.run_fib_suite.__wrapped__
        cls = workloads.OpClass("probe", 1, lambda: cli.build_table(3), lambda out: None)
        tracer.run_pass("tower", cls)
    finally:
        tracer.uninstall()
    assert cli.build_table is original and twist.build_table is original
    names = [s[0] for s in tracer.spans]
    assert names == ["bench.probe", "twist.build_table"]
    assert tracer.spans[1][3] == 0   # the bench span is its parent


# ---- host-speed scaling -----------------------------------------------------


def test_trimmed_mean_drops_one_preempted_sample():
    assert speed.trimmed_mean([1.0] * 9 + [50.0]) == 1.0
    assert speed.trimmed_mean([1.0, 3.0]) == 2.0


def test_scaled_takes_out_sampling_time_and_divides_by_the_local_speed():
    meter = speed.Speedometer(unit_s=1.0)
    # (start, time spent, loop time): two samples inside [10, 20], each
    # spending 1 s, whose loop ran at half unit speed.
    for start, spent, loop in ((1, 0.1, 9.0), (12, 1.0, 2.0), (15, 1.0, 2.0), (30, 0.1, 9.0)):
        meter.starts.append(start)
        meter.spent.append(spent)
        meter.durations.append(loop)
    assert meter.scaled(10, 20, neighbours=1) == pytest.approx((10 - 2) / 2)
    # Too few samples inside: one more on each side joins the mean.
    assert meter.scaled(10, 20, neighbours=2) == pytest.approx(8 / ((9 + 2 + 2 + 9) / 4))
    assert meter.scaled(20, 21, neighbours=1) == pytest.approx(1 / ((2 + 9) / 2))


def test_probe_samples_in_time_order_with_warm_up():
    calls = []
    meter = speed.Speedometer(lambda: calls.append(1), unit_s=1.0)
    meter.probe(3)
    assert len(calls) == 6 and len(meter.durations) == 3
    assert meter.starts == sorted(meter.starts)
    assert all(s >= d for s, d in zip(meter.spent, meter.durations))
