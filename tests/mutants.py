"""Replayable mutation checks: small edits of the package that named tests must catch.

Each mutant replaces one exact text of a file under ``src/cdalgebra`` and names
the test node ids that must fail once it is applied.  The runner copies
``src``, ``tests`` and ``pyproject.toml`` to a temporary directory, applies one
mutant there, and runs its tests with ``pytest -x -q``, one mutant at a time
and each within ``TIME_LIMIT_S`` seconds.  A mutant is
caught when its tests fail or cannot be collected; one whose tests run past the
limit is caught only if it is listed with ``hangs=True``.  Before the mutants,
the unmutated copy must pass every listed test, so that a test failing for
another reason catches nothing.  A mutant whose old text is missing, or is not
unique in its file, is an error.

Run from the repository root::

    python tests/mutants.py

The exit status is 0 when every mutant run is caught.  Tier-1
(``tests/test_mutants.py``) checks only that each old text is present once and
each mutated file still parses.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]
TIME_LIMIT_S = 60


class Mutant(NamedTuple):
    name: str
    file: str           # relative to src/cdalgebra
    old: str            # exact text, present once in the file
    new: str
    tests: Tuple[str, ...]  # node ids relative to the repository root
    hangs: bool = False     # the tests run past TIME_LIMIT_S when it is applied


ALGEBRA = "tests/test_algebra.py"
WRITTEN_OUT = f"{ALGEBRA}::TestWrittenOut"
KERNEL = f"{ALGEBRA}::TestKernel"
POWERS = f"{ALGEBRA}::TestPowers"
TWIST = "tests/test_twist.py"
FIBONACCI = "tests/test_fibonacci.py"
RESIDUE = "tests/test_residue.py"
IS_PRIME = f"{RESIDUE}::TestIsPrime"

MUTANTS = [
    # ---- one base for every value type (_Frozen) ---------------------------
    Mutant("setter assigns slots in reversed order", "algebra.py",
           r'sets = "".join(f" s{i}(self, v{i})\n" for i in range(arity))',
           r'sets = "".join(f" s{i}(self, v{arity - 1 - i})\n" for i in range(arity))',
           (f"{WRITTEN_OUT}::test_new_holds_what_the_public_constructor_holds",)),
    Mutant("_new omits its last slot", "algebra.py",
           'cls._new = staticmethod(_write_out(cls, "_new", stored, make=True))',
           'cls._new = staticmethod(_write_out(cls, "_new", stored[:-1], make=True))',
           (f"{WRITTEN_OUT}::test_new_holds_what_the_public_constructor_holds",)),
    Mutant("_new takes the transient slot again", "algebra.py",
           'cls._new = staticmethod(_write_out(cls, "_new", stored, make=True))',
           'cls._new = staticmethod(_write_out(cls, "_new", cls.__dict__["__slots__"], '
           'make=True))',
           (f"{WRITTEN_OUT}::test_new_holds_what_the_public_constructor_holds",)),
    Mutant("record __init__ refuses keywords", "algebra.py",
           'cls.__init__ = _write_out(cls, "__init__", cls._fields)',
           'cls.__init__ = lambda self, *fields: cls._set(self, *fields)',
           (f"{WRITTEN_OUT}::test_a_record_takes_its_fields_as_a_dataclass_does",)),
    Mutant("== ignores the last field", "algebra.py",
           "        return self._values(self) == other._values(other)\n",
           "        return self._values(self)[:-1] == other._values(other)[:-1]\n",
           (f"{WRITTEN_OUT}::test_equality_and_hash_read_every_field_and_no_other_slot",)),
    Mutant("_fields defaults to the transient slot too", "algebra.py",
           "            cls._fields = tuple(stored)\n",
           '            cls._fields = tuple(cls.__dict__["__slots__"])\n',
           (f"{WRITTEN_OUT}::test_new_holds_what_the_public_constructor_holds",)),
    Mutant("_u bound with a and b swapped", "residue.py",
           "_u = UElement._new",
           "_u = lambda a, b, gen: UElement._new(b, a, gen)",
           ("tests/test_residue.py::TestUElementArithmetic::test_ring_laws",
            "tests/test_residue.py::TestUElementArithmetic::test_matches_ambient_algebra")),
    Mutant("basis_product's coefficient built with its fields swapped", "twist.py",
           "_twist_coefficient = TwistCoefficient._new",
           "_twist_coefficient = lambda s, m: TwistCoefficient._new(m, s)",
           ("tests/test_twist.py::TestBasisProduct::test_pinned_quaternion_sign",
            "tests/test_acceptance.py::test_criterion_05_twist_oracle_equivalence")),
    Mutant("Element takes a non-signature", "algebra.py",
           "        if not isinstance(signature, AlgebraSignature):\n"
           '            raise TypeError(f"expected an AlgebraSignature, got '
           '{type(signature).__name__}")\n',
           "",
           (f"{ALGEBRA}::TestMakeAlgebra::test_element_requires_a_signature",)),
    Mutant("WGenerator takes a non-element", "residue.py",
           "        if not isinstance(w, Element):\n"
           '            raise TypeError(f"expected an Element, got {type(w).__name__}")\n',
           "",
           ("tests/test_residue.py::TestUElementArithmetic::test_generator_required",)),
    Mutant("Representatives takes a non-generator", "residue.py",
           "        if not isinstance(gen, WGenerator):\n"
           '            raise TypeError(f"expected a WGenerator, got {type(gen).__name__}")\n'
           "        xs, ys = [], []\n",
           "        xs, ys = [], []\n",
           ("tests/test_residue.py::TestUElementArithmetic::test_generator_required",)),
    Mutant("_element skips the gcd reduction", "algebra.py",
           "            nums = tuple(map(floordiv, nums, repeat(g)))\n            den //= g\n",
           "            pass\n",
           (f"{ALGEBRA}::TestStoredForm::test_canonical_invariants",)),
    Mutant("_golden skips the gcd reduction", "fibonacci.py",
           "            nu, nv, den = nu // g, nv // g, den // g\n",
           "            pass\n",
           ("tests/test_fibonacci.py::TestGoldenNumber::test_canonical_form",)),
    Mutant("GoldenNumber.sign without its v < 0 branch", "fibonacci.py",
           "        if v < 0:\n            u, v, s = -u, -v, -1\n",
           "",
           ("tests/test_fibonacci.py::TestInvertibilityThreshold::test_late_settling_parameters",)),
    # ---- the kernel (_bind_kernel and its callers) -------------------------
    Mutant("_kernel() binds without storing", "algebra.py",
           '        object.__setattr__(self, "_scaled", kernel)\n',
           "",
           (f"{ALGEBRA}::TestStoredForm::test_used_signature_pickles_and_copies_as_a_fresh_one",)),
    Mutant("_coefficient drops mask bits 5 and 6", "algebra.py",
           "    return -1 if flips.bit_count() & 1 else 1, a\n",
           "    return -1 if flips.bit_count() & 1 else 1, a & ~0b1100000\n",
           (f"{TWIST}::TestBitAlgebraAgainstOracles::test_coefficient_exhaustive_through_depth_eight",)),
    Mutant("_coefficient's sign parity flipped", "algebra.py",
           "    return -1 if flips.bit_count() & 1 else 1, a\n",
           "    return 1 if flips.bit_count() & 1 else -1, a\n",
           (f"{TWIST}::TestBitAlgebraAgainstOracles::test_coefficient_exhaustive_through_depth_eight",)),
    Mutant("(p != k) dropped from _codes' low half", "algebra.py",
           "[(c ^ (p != k)) | 2 * h for",
           "[c | 2 * h for",
           (f"{KERNEL}::test_codes_are_the_structure_constants",)),
    Mutant("| 2h dropped from _codes' low half", "algebra.py",
           "[(c ^ (p != k)) | 2 * h for",
           "[(c ^ (p != k)) for",
           (f"{KERNEL}::test_codes_are_the_structure_constants",)),
    Mutant("Element + returns itself for a non-element", "algebra.py",
           "    def __add__(self, other):\n"
           "        if not isinstance(other, Element):\n"
           "            return NotImplemented\n",
           "    def __add__(self, other):\n"
           "        if not isinstance(other, Element):\n"
           "            return self\n",
           (f"{ALGEBRA}::TestVectorSpace::test_operators_refuse_other_operands",)),
    Mutant("Element * skips the check of distinct signatures", "algebra.py",
           "            if sig is not other.signature:\n"
           "                self._check_compatible(other)\n",
           "",
           (f"{ALGEBRA}::TestVectorSpace::test_signature_mismatch",)),
    Mutant("algebra imports numpy eagerly", "algebra.py",
           "from enum import Enum\n",
           "from enum import Enum\n\nimport numpy\n",
           ("tests/test_cli.py::test_array_free_runs_in_one_process_load_no_numpy",)),
    Mutant("generated conjugate's sign dropped", "algebra.py",
           'f" n = -m\\n"',
           'f" n = m\\n"',
           (f"{KERNEL}::test_inverse_gives_the_unit_under_the_recursion",)),
    Mutant("_halves drops the conjugate of b2", "algebra.py",
           "_halves(_conj(b2), a2, rest)",
           "_halves(b2, a2, rest)",
           (f"{KERNEL}::test_dense_products_by_halves_up_to_depth_ten",)),
    Mutant("_halves writes b2 * a1 as a1 * b2", "algebra.py",
           "_halves(b2, a1, rest)",
           "_halves(a1, b2, rest)",
           (f"{KERNEL}::test_dense_products_by_halves_up_to_depth_ten",)),
    Mutant("_halves returns its halves swapped", "algebra.py",
           "    return (*low, *high)\n",
           "    return (*high, *low)\n",
           (f"{KERNEL}::test_dense_products_by_halves_up_to_depth_ten",)),
    Mutant("_halves drops its // den", "algebra.py",
           "u + v * num // den for",
           "u + v * num for",
           (f"{KERNEL}::test_dense_products_by_halves_up_to_depth_ten",)),
    Mutant("kernel bound to _straight(t ^ 1) at t = 2-5", "algebra.py",
           "dense, norm, conjugate = _straight(t)\n",
           "dense, norm, conjugate = _straight(t ^ 1 if t > 1 else t)\n",
           (f"{KERNEL}::test_straight_line_depths_match_recursion",)),
    Mutant("eq31 operand swap dropped", "algebra.py",
           "            if sig.convention is _CONJUGATE_LEFT:\n                a, b = b, a\n",
           "",
           (f"{ALGEBRA}::TestMultiplication::test_convention_pins_basis_sign",)),
    Mutant("D dropped from the norm's denominator", "algebra.py",
           "kernel[2] * den * den)",
           "den * den)",
           (f"{KERNEL}::test_norm_is_the_product_with_the_conjugate",)),
    Mutant("t = 4-5 pair limit set to n(n + 8)/2", "algebra.py",
           "limit = n * n // 6 if t <= STRAIGHT_MAX_DEPTH else n * (n + 8) // 2",
           "limit = n * (n + 8) // 2",
           (f"{KERNEL}::test_both_sides_of_the_support_pair_switch",)),
    Mutant("t <= KERNEL_MAX_DEPTH written as <", "algebra.py",
           "    if t <= KERNEL_MAX_DEPTH:\n        pairs, pair_args",
           "    if t < KERNEL_MAX_DEPTH:\n        pairs, pair_args",
           (f"{KERNEL}::test_both_sides_of_the_support_pair_switch",)),
    Mutant("_code_pairs reads _codes(t - 1)", "algebra.py",
           "    codes = _codes(t)\n    z = [0] * len(xs)\n",
           "    codes = _codes(t - 1)\n    z = [0] * len(xs)\n",
           (f"{KERNEL}::test_both_sides_of_the_support_pair_switch",)),
    Mutant("_halves given one parameter too few", "algebra.py",
           "        dense_args = (gammas, signed[:2 << STRAIGHT_MAX_DEPTH])\n",
           "        dense_args = (gammas[1:], signed[:2 << STRAIGHT_MAX_DEPTH])\n",
           (f"{KERNEL}::test_dense_products_by_halves_up_to_depth_ten",)),
    Mutant("_codes(t) bound eagerly at t = 6-8", "algebra.py",
           "        pairs, pair_args = _code_pairs, (signed, t)\n",
           "        pairs, pair_args = _code_pairs, (signed, t)\n        _codes(t)\n",
           (f"{KERNEL}::test_dense_products_build_no_codes_above_depth_five",)),
    # ---- powers (_lucas and its callers) -------------------------------------
    Mutant("_lucas doubles with N for 2N", "algebra.py",
           "u * (T * u - 2 * N * w)",
           "u * (T * u - N * w)",
           (f"{POWERS}::test_powers_match_the_left_nested_oracle",)),
    Mutant("_lucas drops the odd-bit step", "algebra.py",
           '        if bit == "1":\n            u, w = T * u - N * w, u\n',
           "",
           (f"{POWERS}::test_powers_match_the_left_nested_oracle",)),
    Mutant("Element ** reads U_(n-1) for U_n", "algebra.py",
           "        u, w = _lucas(self.trace(), norm, n)\n",
           "        w, u = _lucas(self.trace(), norm, n)\n",
           (f"{POWERS}::test_powers_match_the_left_nested_oracle",)),
    Mutant("the settle cap one bit short", "fibonacci.py",
           "(abs(u) + abs(v))).bit_length()\n",
           "(abs(u) + abs(v))).bit_length() - 1\n",
           (f"{FIBONACCI}::TestInvertibilityThreshold::test_the_settle_cap_is_reached",)),
    # ---- structure constants (twist) ----------------------------------------
    Mutant("TwistTable accepts depth 0", "twist.py",
           "        if t < 1:\n"
           '            raise ValueError("table depth must be >= 1")\n'
           "        n = 1 << t\n",
           "        if t < 0:\n"
           '            raise ValueError("table depth must be >= 1")\n'
           "        n = 1 << t\n",
           (f"{TWIST}::TestBuildTable::test_constructor_depth_is_checked_like_build_table",)),
    Mutant("TwistTable takes signs other than +-1", "twist.py",
           "        if not (base_signs.min() >= -1 and base_signs.max() <= 1\n"
           "                and np.count_nonzero(base_signs) == base_signs.size):\n"
           '            raise ValueError("base_signs must hold only +1 and -1")\n',
           "",
           (f"{TWIST}::TestBuildTable::"
            "test_a_sign_plane_holding_other_than_plus_minus_one_is_refused",)),
    Mutant("TwistTable keeps the caller's sign plane", "twist.py",
           '        base_signs = np.array(base_signs, order="C")\n',
           "        base_signs = np.asarray(base_signs)\n",
           (f"{TWIST}::TestBuildTable::"
            "test_writing_the_base_of_a_passed_view_leaves_the_table_unchanged",)),
    Mutant("build_table drops the column-0 and column-h fix of S", "twist.py",
           "            s[h:, ::h] = 1\n",
           "",
           (f"{TWIST}::TestBitAlgebraAgainstOracles::test_tables_equal_the_doubling_oracle",)),
    Mutant("build_table drops the row-h fix of St", "twist.py",
           "            st[::h, h:] = 1\n",
           "            st[:1, h:] = 1\n",
           (f"{TWIST}::TestBitAlgebraAgainstOracles::test_tables_equal_the_doubling_oracle",)),
    Mutant("sign_table writes its -H quadrant as +H", "twist.py",
           "            np.negative(signs[:h, :h], out=signs[h:2 * h, h:2 * h])\n",
           "            signs[h:2 * h, h:2 * h] = signs[:h, :h]\n",
           (f"{TWIST}::TestBitAlgebraAgainstOracles::test_tables_equal_the_doubling_oracle",)),
    Mutant("basis_product's range loosened by one bit", "twist.py",
           "(p | q).bit_length() > sig.t:",
           "(p | q).bit_length() > sig.t + 1:",
           (f"{TWIST}::TestBasisProduct::test_out_of_range",)),
    Mutant("TwistTable.entry's range loosened by one bit", "twist.py",
           "(p | q).bit_length() > self.t:",
           "(p | q).bit_length() > self.t + 1:",
           (f"{TWIST}::TestBuildTable::test_entry_out_of_range",)),
    Mutant("twist_sign reads a bad convention as eq11", "twist.py",
           "    if convention is not _CONJUGATE_RIGHT and (\n"
           "            convention is _CONJUGATE_LEFT or Convention(convention) is "
           "_CONJUGATE_LEFT):\n",
           "    if convention == _CONJUGATE_LEFT:\n",
           (f"{TWIST}::TestTwistSign::test_a_bad_convention_is_refused",)),
    # ---- residue fields -------------------------------------------------------
    # The rows are visited in tie order: in plain ascending b, ties go to the least
    # (b, a), as if the b < 0 key were dropped.
    Mutant("residue_field drops the b < 0 tie key", "residue.py",
           "    for b in chain(range(b_max + 1), range(-b_max, 0)):\n",
           "    for b in range(-b_max, b_max + 1):\n",
           (f"{RESIDUE}::TestTableBuild::test_every_prime_below_2000",)),
    Mutant("residue_field visits the b < 0 rows first", "residue.py",
           "    for b in chain(range(b_max + 1), range(-b_max, 0)):\n",
           "    for b in chain(range(-1, -b_max - 1, -1), range(b_max + 1)):\n",
           (f"{RESIDUE}::TestTableBuild::test_ties_prefer_a_nonnegative_w_coordinate",)),
    Mutant("residue_field skips the row b = -1", "residue.py",
           "range(-b_max, 0)):",
           "range(-b_max, -1)):",
           (f"{RESIDUE}::TestTableBuild::test_every_prime_below_2000",)),
    Mutant("residue_field scans one row too many each side", "residue.py",
           "    b_max = isqrt(bound // disc)\n",
           "    b_max = isqrt(bound // disc) + 1\n",
           (f"{RESIDUE}::TestResidueField::test_norm_seven_field",)),
    Mutant("residue_field moves the row bound in by one", "residue.py",
           "        r = isqrt(bound - disc * b * b)\n",
           "        r = isqrt(bound - disc * b * b) - 1\n",
           (f"{RESIDUE}::TestTableBuild::test_every_prime_below_2000",)),
    Mutant("residue_field scans one row too few each side", "residue.py",
           "    b_max = isqrt(bound // disc)\n",
           "    b_max = isqrt(bound // disc) - 1\n",
           (f"{RESIDUE}::TestResidueField::test_norm_seven_field",)),
    # ---- subring arithmetic, u_mod and labels ------------------------------------
    Mutant("u_mod rounds ties toward zero on its negative branch", "residue.py",
           "    za = (2 * ua + d) // h if ua >= 0 else -((d - 2 * ua) // h)\n",
           "    za = (2 * ua + d) // h if ua >= 0 else -((d - 2 * ua - 1) // h)\n",
           (f"{RESIDUE}::TestRounding::test_integer_rounding_matches_fraction_oracle",)),
    Mutant("u_mod skips the reduced-basis rounding", "residue.py",
           "    if 4 * m > q * q and best >= n:",
           "    if False:",
           (f"{RESIDUE}::TestUMod::test_skewed_generator_counterexample",)),
    Mutant("UElement + skips the generator check", "residue.py",
           "        if gen is not other.gen and gen != other.gen:\n"
           '            raise ValueError("elements belong to different subrings")\n'
           "        return _u(self.a + other.a, self.b + other.b, gen)\n",
           "        return _u(self.a + other.a, self.b + other.b, gen)\n",
           (f"{RESIDUE}::TestUElementArithmetic::test_mixed_generators_rejected",)),
    Mutant("label's fast path skips the subring check", "residue.py",
           "        if type(u) is not UElement or (u.gen is not gen and u.gen != gen):\n"
           "            _require_member(u, gen)\n"
           "        return (u.a + u.b * self.s) % self.p\n",
           "        if type(u) is not UElement:\n"
           "            _require_member(u, gen)\n"
           "        return (u.a + u.b * self.s) % self.p\n",
           (f"{RESIDUE}::TestResidueField::test_label_checks_the_subring",)),
    Mutant("Representatives takes a bool index", "residue.py",
           "            k = _index(k)                   # refuses bool, as unlabel does\n",
           "            k = k.__index__()\n",
           (f"{RESIDUE}::TestRepresentatives::test_an_index_is_an_int_and_not_a_bool",)),
    # ---- primality -------------------------------------------------------------
    Mutant("trial division settles n up to 1031 squared", "residue.py",
           "n <= MAX_FIELD_SIZE:",
           "n <= 1031 * 1031:",
           (f"{IS_PRIME}::test_squares_across_the_trial_bound",)),
    Mutant("second trial product starts at 47", "residue.py",
           "range(43, _TRIAL_LIMIT + 1, 2)",
           "range(47, _TRIAL_LIMIT + 1, 2)",
           (f"{IS_PRIME}::test_products_of_trial_primes_are_composite",)),
    Mutant("second trial product stops before 1021", "residue.py",
           "range(43, _TRIAL_LIMIT + 1, 2)",
           "range(43, _TRIAL_LIMIT - 3, 2)",
           (f"{IS_PRIME}::test_squares_across_the_trial_bound",)),
    Mutant("second gcd equal to n reads as prime", "residue.py",
           "    if gcd(n, _TRIAL_PRODUCT) != 1:\n"
           "        return False\n",
           "    if gcd(n, _TRIAL_PRODUCT) != 1:\n"
           "        return gcd(n, _TRIAL_PRODUCT) == n\n",
           (f"{IS_PRIME}::test_products_of_trial_primes_are_composite",)),
    Mutant("base gcd alone settles n up to twice the trial limit", "residue.py",
           "    if n <= _TRIAL_LIMIT:\n",
           "    if n <= 2 * _TRIAL_LIMIT:\n",
           (f"{IS_PRIME}::test_agrees_with_a_sieve",)),
    Mutant("41 left out of the bases it names", "residue.py",
           "        return n < 42 and n in _MR_BASES\n",
           "        return n < 41 and n in _MR_BASES\n",
           (f"{IS_PRIME}::test_agrees_with_a_sieve",)),
    # ---- golden numbers and Fibonacci numbers ------------------------------
    Mutant("GoldenNumber.__neg__ negates _den", "fibonacci.py",
           "        return _golden(-self._nu, -self._nv, self._den)\n",
           "        return _golden(-self._nu, -self._nv, -self._den)\n",
           (f"{FIBONACCI}::TestGoldenNumber::test_results_match_the_fraction_oracle_in_lowest_terms",)),
    Mutant("GoldenNumber prints -a as 0 - a again", "fibonacci.py",
           "        if u == 0:\n"
           "            return f\"{'-' if v < 0 else ''}{head}a\"\n",
           "        if u == 0 and v > 0:\n"
           "            return f\"{head}a\"\n",
           (f"{FIBONACCI}::TestGoldenNumber::test_text_of_a_rational_and_of_a_pure_golden_number",
            "tests/test_cli.py::TestThreshold::"
            "test_a_pure_golden_energy_prints_its_sign_and_coefficient")),
    Mutant("_settle_index bounds with |Z| for 2|Z|", "fibonacci.py",
           "conj * conj.sign() + 2 * abs(z)",
           "conj * conj.sign() + abs(z)",
           (f"{FIBONACCI}::TestInvertibilityThreshold::"
            "test_matches_the_downward_scan_for_every_window",)),
    Mutant("Fibonacci memo built one entry short", "fibonacci.py",
           "while len(_fib_cache) < FIB_MEMO:",
           "while len(_fib_cache) < FIB_MEMO - 1:",
           (f"{FIBONACCI}::TestFib::test_memo_stays_bounded",)),
    # ---- the invariant suites ---------------------------------------------------
    Mutant("suites import twist at module level", "suites.py",
           "from .algebra import AlgebraSignature, Convention, Element, make_algebra\n",
           "from . import twist\n"
           "from .algebra import AlgebraSignature, Convention, Element, make_algebra\n",
           ("tests/test_cli.py::test_verify_loads_only_the_layer_of_its_suite",)),
    Mutant("one depth-5 corner sign flipped", "suites.py",
           "_DEPTH_FIVE_CORNER_SIGNS = (1, 1, 1, -1,",
           "_DEPTH_FIVE_CORNER_SIGNS = (1, 1, 1, 1,",
           ("tests/test_acceptance.py::test_criterion_07_power_row_verdicts",)),
    Mutant("power row drops its stated-reading check", "suites.py",
           '        out.expect((report.supported_index_reading == "both") == (report.r == 1),\n'
           '                   "power row", "({},{},{}) stated reading", *triple)\n',
           "",
           ("tests/test_acceptance.py::test_criterion_07_power_row_verdicts",)),
    Mutant("norm multiplicativity checked at depth 4 too", "suites.py",
           "    if t <= 3:\n        out.expect(xy.norm() == x.norm() * y.norm(),",
           "    if t <= 4:\n        out.expect(xy.norm() == x.norm() * y.norm(),",
           ("tests/test_acceptance.py::test_criterion_08_core_invariants",)),
    Mutant("zero-divisor census with one sign flipped", "suites.py",
           "v * sign[a][d] + s * sign[b][c] == 0",
           "v * sign[a][d] - s * sign[b][c] == 0",
           ("tests/test_acceptance.py::test_criterion_09_division_boundary",
            f"{TWIST}::TestZeroDivisorCensus::test_counts")),
    Mutant("one sign of the Fano map flipped", "suites.py",
           "5: (-1, 7)",
           "5: (1, 7)",
           ("tests/test_acceptance.py::test_criterion_09_division_boundary",)),
    Mutant("golden relation written with 3w", "suites.py",
           "(w * w - 2 * w + 4 * w.signature.one())",
           "(w * w - 3 * w + 4 * w.signature.one())",
           ("tests/test_acceptance.py::test_criterion_01_golden_residue_field",)),
    # ---- the CLI --------------------------------------------------------------
    Mutant("no BrokenPipeError handler", "cli.py",
           "    except BrokenPipeError as exc:\n"
           "        # The reader left early.  Point stdout at devnull, so the flush at\n"
           "        # interpreter exit does not fail a second time.\n"
           "        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())\n"
           '        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)\n'
           "        return 1\n",
           "",
           ("tests/test_cli.py::TestStreaming::test_closed_reader_is_one_error_line",)),
    Mutant("mul-table drops mask bit 7", "cli.py",
           'format(c >> 1, f"0{t}b")',
           'format(c >> 1 & ~0x80, f"0{t}b")',
           ("tests/test_cli.py::TestOutputBytes::test_mul_table_matches_dict_oracle[8-eq11-csv]",)),
    Mutant("verify --seed not passed on", "cli.py",
           "        if args.seed is not None:\n"
           '            kwargs["seed"] = args.seed\n',
           "",
           ("tests/test_cli.py::TestVerify::test_seed_reaches_the_suite_run",)),
    Mutant("--log-level ignored", "cli.py",
           "        logging.basicConfig(level=args.log_level.upper(), stream=sys.stderr)\n",
           "",
           ("tests/test_cli.py::TestLogLevel::test_debug_writes_the_u_mod_fallback_records",)),
    Mutant("--p checked after the field is built", "cli.py",
           "    if args.p is not None and pi.norm() != args.p:\n"
           '        raise CliError(f"modulus norm is {pi.norm()}, not the requested {args.p}")\n'
           "    return residue_field(pi)\n",
           "    field = residue_field(pi)\n"
           "    if args.p is not None and field.p != args.p:\n"
           '        raise CliError(f"modulus norm is {field.p}, not the requested {args.p}")\n'
           "    return field\n",
           ("tests/test_cli.py::TestFlagsBeforeTheField",)),
    Mutant("label builds the field before checking its mode", "cli.py",
           "    if args.u is not None and len(args.u) != 2:\n"
           '        raise CliError("--u takes exactly two coordinates a,b")\n'
           "    field = _build_field(args)\n",
           "    field = _build_field(args)\n"
           "    if args.u is not None and len(args.u) != 2:\n"
           '        raise CliError("--u takes exactly two coordinates a,b")\n',
           ("tests/test_cli.py::TestFlagsBeforeTheField",)),
    # ---- pickles ------------------------------------------------------------
    Mutant("kernel slot left in pickles", "algebra.py",
           "if name not in cls._transient and hasattr(self, name)})",
           "if hasattr(self, name)})",
           (f"{ALGEBRA}::TestStoredForm::test_used_signature_pickles_and_copies_as_a_fresh_one",)),
]


def path(mutant: Mutant, root: Path) -> Path:
    """The file that ``mutant`` edits in the tree at ``root``."""
    return root / "src" / "cdalgebra" / mutant.file


def mutated(mutant: Mutant, root: Path) -> str:
    """The text of ``mutant.file`` in the tree at ``root`` with the mutant applied."""
    text = path(mutant, root).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"mutant {mutant.name!r}: its old text occurs {count} times "
                         f"in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def _pytest(copy: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=env, capture_output=True, text=True,
                          timeout=TIME_LIMIT_S)


def run(mutants) -> bool:
    """Run each mutant in a fresh copy; report each and return whether all were caught."""
    for mutant in mutants:  # every old text first, so a stale list fails at once
        mutated(mutant, ROOT)
    with tempfile.TemporaryDirectory(prefix="cdalgebra-mutants-") as tmp:
        base = Path(tmp) / "base"
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, base / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", base)
        tests = sorted({t for m in mutants for t in m.tests})
        start = time.monotonic()
        proc = _pytest(base, tests)
        if proc.returncode != 0:
            print(proc.stdout[-3000:], proc.stderr[-3000:])
            print("the unmutated copy fails the listed tests")
            return False
        print(f"unmutated copy passes {len(tests)} test ids ({time.monotonic() - start:.1f} s)")
        caught = True
        for k, mutant in enumerate(mutants):
            copy = Path(tmp) / f"mutant-{k}"
            shutil.copytree(base, copy)
            path(mutant, copy).write_text(mutated(mutant, ROOT))
            start = time.monotonic()
            try:
                # The unmutated copy passed these tests, so any failure is the
                # mutant's, a test module that no longer imports included.
                verdict = "caught" if _pytest(copy, mutant.tests).returncode else "MISSED"
            except subprocess.TimeoutExpired:
                verdict = "caught (time limit)" if mutant.hangs else "MISSED (time limit)"
            caught &= verdict.startswith("caught")
            print(f"{verdict:>14}  {mutant.name}  ({time.monotonic() - start:.1f} s)")
            shutil.rmtree(copy)
        return caught


if __name__ == "__main__":
    sys.exit(0 if run(MUTANTS) else 1)
