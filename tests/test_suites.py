"""Smoke tests for the runnable invariant suites."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from cdalgebra import fibonacci, residue, suites, twist
from cdalgebra.algebra import Element
from cdalgebra.suites import (SuiteResult, run_core_suite, run_fib_suite,
                              run_residue_suite, run_twist_suite)


def test_suite_names_are_fixed():
    # perfbench keys its sweep table by suite name (workloads.NOMINAL["sweep"]),
    # so a new suite fails every sweep run: a new law joins an existing suite
    # as a family.
    assert set(suites.SUITES) == {"core", "twist", "fib", "residue"}


def test_core_suite_passes_with_small_budget():
    result = run_core_suite(samples=25, depths=(1, 2, 3))
    assert result.passed, result.summary()
    assert result.checks > 0


def test_twist_suite_passes_with_small_budget():
    result = run_twist_suite(exhaustive_depth=3, random_pairs=100, table_depth=5)
    assert result.passed, result.summary()


def test_fib_suite_passes_with_small_budget():
    result = run_fib_suite(norm_range=10, random_params=25, threshold_params=5)
    assert result.passed, result.summary()


def test_residue_suite_passes_with_small_budget():
    result = run_residue_suite(pairs=60)
    assert result.passed, result.summary()


def test_summary_mentions_counts():
    result = run_fib_suite(norm_range=5, random_params=5, threshold_params=2)
    assert "checks" in result.summary()
    assert "0 failures" in result.summary()


def test_checks_total_the_family_counts():
    result = SuiteResult("demo")
    result.expect(True, "a", "first")
    result.expect(False, "b", "second")
    result.expect(True, "a", "third")
    assert result.counts == {"a": 2, "b": 1}
    assert result.checks == 3
    assert result.failures == ["b: second"]
    assert result.summary() == "demo: 3 checks, 1 failures [FAILED]\n  b: second"


GOLDEN = residue.make_w(2, (1, 2, 3), (1, 1, 1, 1))


class Unformattable:
    def __format__(self, spec):
        raise AssertionError("a detail argument was formatted")


def test_passing_check_never_formats_its_arguments():
    result = SuiteResult("demo")
    result.expect(True, "a", "{} and {}", Unformattable(), Unformattable())
    assert result.counts == {"a": 1}
    assert result.failures == []


@pytest.mark.parametrize("template, args", [
    ("n={} params={}", (7, fibonacci.QuaternionParams(Fraction(-3, 2), 2))),
    ("{} mod {} over (q={}, m={})", (GOLDEN.element(-5, 3), GOLDEN.element(-1, 2), 2, 4)),
    ("({},{},{}) C tile", (1, 2, 3)),
])
def test_failing_check_records_its_formatted_template(template, args):
    result = SuiteResult("demo")
    result.expect(False, "fam", template, *args)
    assert result.failures == ["fam: " + template.format(*args)]


def test_plain_detail_is_recorded_as_given():
    result = SuiteResult("demo")
    result.expect(False, "a", "braces {} and {0} stay")
    assert result.failures == ["a: braces {} and {0} stay"]


def test_nothing_is_formatted_past_max_recorded():
    result = SuiteResult("demo")
    result.max_recorded = 2
    for k in range(2):
        result.expect(False, "a", "k={}", k)
    result.expect(False, "a", "{}", Unformattable())
    assert result.failures == ["a: k=0", "a: k=1"]
    assert result.counts == {"a": 3}


def test_suite_details_are_formatted_lazily():
    # An f-string handed to ``expect`` is rendered whether or not the check fails.
    tree = ast.parse(Path(suites.__file__).read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "expect"]
    assert calls
    eager = [node.lineno for node in calls
             if any(isinstance(arg, ast.JoinedStr)
                    for arg in [*node.args[2:], *(k.value for k in node.keywords)])]
    assert not eager, f"expect() given an f-string at lines {eager}"


# Injected faults: each failure text must name the check's inputs as the
# suites have always written it.

def test_remainder_failures_name_their_inputs(monkeypatch):
    calls = []

    def too_large(x, y):
        calls.append((x, y))
        return y  # norm(y) is not below norm(y)

    monkeypatch.setattr(residue, "u_mod", too_large)
    monkeypatch.setattr(SuiteResult, "max_recorded", 10 ** 6)
    result = run_residue_suite(pairs=40)
    per_gen = 10
    assert result.counts["remainder bound"] == 3 * per_gen
    assert result.counts["prime remainder bound"] == per_gen
    want = [f"remainder bound: {x} mod {y} over (q={y.gen.q}, m={y.gen.m})"
            for x, y in calls[:3 * per_gen]]
    want += [f"prime remainder bound: {x} mod the golden prime"
             for x, _ in calls[3 * per_gen:4 * per_gen]]
    assert [f for f in result.failures if "remainder bound: " in f] == want


def test_closed_form_failures_name_their_inputs(monkeypatch):
    calls = []
    formula = fibonacci.fib_norm_formula

    def off_by_one(n, params):
        calls.append((n, params))
        return formula(n, params) + 1

    monkeypatch.setattr(fibonacci, "fib_norm_formula", off_by_one)
    result = run_fib_suite(norm_range=3, random_params=12, threshold_params=2)
    assert len(calls) == 12
    assert result.failures == [f"closed form: n={n} params={params}" for n, params in calls]


def test_quadratic_root_failures_name_their_inputs(monkeypatch):
    calls = []
    root = residue.four_square_root

    def shifted(m, indices, t):
        calls.append((m, t))
        z = root(m, indices, t)
        return z + z.signature.one()  # the residue becomes -(2 z[0] + 1)

    monkeypatch.setattr(residue, "four_square_root", shifted)
    monkeypatch.setattr(SuiteResult, "max_recorded", 10 ** 6)
    result = run_residue_suite(pairs=8)
    assert len(calls) == 100
    assert result.failures == [f"quadratic root: m={m} t={t}" for m, t in calls]


def test_every_power_check_catches_a_non_power_associative_product(monkeypatch):
    # A bilinear skew of the product: x^i * x^j (built left-nested) then
    # differs from x^(i+j) for every pair the suite compares, unless the
    # comparison repeats the product that built x^(i+j).
    product = Element.__mul__

    def skewed(x, y):
        out = product(x, y)
        if not isinstance(y, Element):
            return out
        return out + x.coeffs[1] * y.coeffs[0] * x.signature.one()

    monkeypatch.setattr(Element, "__mul__", skewed)
    monkeypatch.setattr(SuiteResult, "max_recorded", 10 ** 6)
    samples, depths = 20, (2, 3)
    result = run_core_suite(samples=samples, depths=depths)
    failing = set(re.findall(r"power associativity.*\((\d),(\d)\)",
                             "\n".join(result.failures)))
    pairs_per_sample = result.counts["power associativity"] // (
        samples * len(depths) * 2)
    assert len(failing) == pairs_per_sample == 10


@pytest.mark.parametrize("at, wrong", [
    ((3, 5), lambda sign, mask: (-sign, mask)),
    # Same mask parity: all-(-1) parameters give the same value.
    ((3, 7), lambda sign, mask: (sign, 0)),
])
def test_twist_suite_catches_a_wrong_structure_constant(monkeypatch, at, wrong):
    coefficient = twist._coefficient

    def corrupted(p, q):
        out = coefficient(p, q)
        return wrong(*out) if (p, q) == at else out

    monkeypatch.setattr(twist, "_coefficient", corrupted)
    result = run_twist_suite(exhaustive_depth=3, random_pairs=10, table_depth=1)
    assert [f for f in result.failures if f.startswith("coefficient: ")]


# Stages 6 and 7 dropped from every mask that holds both: the parity, and so
# every value under all-(-1) parameters, stays the same.
DEEP_PAIR = 0b1100000


def test_random_coefficients_catch_a_same_parity_mask_at_depth_seven(monkeypatch):
    coefficient = twist._coefficient

    def corrupted(p, q):
        sign, mask = coefficient(p, q)
        return sign, mask ^ DEEP_PAIR if mask & DEEP_PAIR == DEEP_PAIR else mask

    monkeypatch.setattr(twist, "_coefficient", corrupted)
    result = run_twist_suite(exhaustive_depth=1, table_depth=1)
    assert result.failures
    assert all(f.startswith("random coefficient: t=") for f in result.failures)


def test_sign_table_catches_a_same_parity_mask_plane(monkeypatch):
    build_table = twist.build_table

    def corrupted(t, convention):
        table = build_table(t, convention)
        masks = table.gamma_masks.copy()
        masks[masks & DEEP_PAIR == DEEP_PAIR] ^= DEEP_PAIR
        return twist.TwistTable(t, table.convention, table.base_signs.copy(), masks)

    monkeypatch.setattr(twist, "build_table", corrupted)
    result = run_twist_suite(exhaustive_depth=1, random_pairs=10)
    assert result.failures
    assert all(f.startswith("sign table: t=") and "pointwise" in f
               for f in result.failures)
