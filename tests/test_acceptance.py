"""Acceptance suite: one test per exit criterion, exact values throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion with its runtime.  Every expected value is either pinned
from an authoritative source or computed by an independent oracle inside
the test; all comparisons are exact.
"""

import random
import time
from fractions import Fraction

from cdalgebra.algebra import Convention, make_algebra
from cdalgebra.fibonacci import (QuaternionParams, energy, fib_norm_direct,
                                 invertibility_threshold)
from cdalgebra.suites import (run_core_suite, run_fib_suite, run_residue_suite,
                              run_twist_suite)

RIGHT = Convention.CONJUGATE_RIGHT


def _report(number: int, name: str, failures: list, elapsed: float, limit: float):
    ok = not failures and elapsed < limit
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{name}]: {status} "
          f"({elapsed:.2f}s, limit {limit:.0f}s)")
    detail = "; ".join(str(f) for f in failures[:5])
    assert not failures, f"criterion {number} [{name}]: {detail}"
    assert elapsed < limit, (f"criterion {number} [{name}] exceeded its "
                             f"runtime budget: {elapsed:.2f}s >= {limit}s")


def _nonzero_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([x for x in range(-9, 10) if x]),
                    rng.randint(1, 9))


def test_criterion_01_golden_residue_field():
    start = time.perf_counter()
    result = run_residue_suite()
    _report(1, "golden residue field", result.failures,
            time.perf_counter() - start, 1.0)
    # The generator's quadratic data and relation, the prime norm 13, the
    # labelling root 7 and the printed representative set in label order;
    # every family at verify's defaults, as criterion 08 pins the core suite.
    assert result.counts == {
        "golden field": 5, "remainder bound": 375, "prime remainder bound": 125,
        "labelling": 338, "class labels": 100, "quadratic root": 100, "codec": 1}


def test_criterion_02_unit_parameter_norm_identity():
    start = time.perf_counter()
    result = run_fib_suite()
    _report(2, "norms triple shifted Fibonacci", result.failures,
            time.perf_counter() - start, 1.0)
    assert result.counts == {
        "unit norm": 41,                            # n = 0..40
        "closed form": 200, "diagonal form": 200, "root power": 61, "golden product": 64,
        "energy": 20, "threshold": 22}


def test_criterion_03_closed_form_norm():
    start = time.perf_counter()
    result = run_fib_suite(random_params=500, seed=20250203)
    _report(3, "closed form equals direct norm", result.failures,
            time.perf_counter() - start, 5.0)
    assert result.counts["closed form"] == 500


def test_criterion_04_sign_criterion():
    start = time.perf_counter()
    failures = []
    rng = random.Random(20250204)
    tested = 0
    while tested < 50:
        params = QuaternionParams(_nonzero_fraction(rng), _nonzero_fraction(rng))
        e_sign = energy(params).sign()
        if e_sign == 0:
            continue
        tested += 1
        n0 = invertibility_threshold(params, n_max=200)
        if n0 is None:
            failures.append(f"{params}: no stabilization by 200")
            continue
        for n in range(n0, 201):
            norm = fib_norm_direct(n, params)
            if norm == 0 or (1 if norm > 0 else -1) != e_sign:
                failures.append(f"{params}: sign breaks at n={n}")
                break
    _report(4, "eventual sign equals energy sign", failures,
            time.perf_counter() - start, 10.0)


def test_criterion_05_twist_oracle_equivalence():
    start = time.perf_counter()
    result = run_twist_suite(random_pairs=10_000, seed=20250205)
    _report(5, "structure constants equal the doubling descent", result.failures,
            time.perf_counter() - start, 30.0)
    # Every pair at depths 1-5 in both conventions, then 10,000 random pairs
    # at each of depths 6-8; each pair is one exact (sign, mask, index) check.
    assert result.counts["coefficient"] == 2 * sum(4 ** t for t in range(1, 6))
    assert result.counts["random coefficient"] == 30_000


def test_criterion_06_tile_partition():
    start = time.perf_counter()
    result = run_twist_suite()
    _report(6, "all 2x2 tiles classify", result.failures,
            time.perf_counter() - start, 10.0)
    # Depths 1-8 in both conventions: every tile of each table lies in its
    # convention's alphabet, the published A, B, C, -B, -C for eq31.
    assert result.counts["blocks"] == 16


def test_criterion_07_power_row_verdicts():
    start = time.perf_counter()
    result = run_twist_suite()
    _report(7, "power-row verdict table", result.failures,
            time.perf_counter() - start, 5.0)
    # Ten admissible triples at depth 5, three checks each (the computed
    # index reading, the stated one only where r = 1, a C tile), plus the
    # pinned list of their corner signs.
    assert result.counts["power row"] == 31


def test_criterion_08_core_invariants():
    # The core suite as verify runs it: 1,000 samples per depth and
    # convention, with rational coefficients and parameters.
    start = time.perf_counter()
    result = run_core_suite(samples=1000, seed=20250208)
    _report(8, "core invariant sweep", result.failures,
            time.perf_counter() - start, 60.0)
    assert result.counts == {
        "basis square": 60, "basis double product": 120, "anticommutation": 516,
        "involution": 8000, "antiautomorphism": 8000, "trace scalar": 8000,
        "norm scalar": 8000, "quadratic": 8000, "flexibility": 8000,
        "power associativity": 80_000}
    assert result.checks == 128_696


def test_criterion_09_division_boundary():
    start = time.perf_counter()
    failures = []
    rng = random.Random(20250209)
    for t in (1, 2, 3):
        sig = make_algebra(t, (-1,) * t, RIGHT)
        n = sig.dimension
        for _ in range(1000):
            x = sig.element([rng.randint(-9, 9) for _ in range(n)])
            y = sig.element([rng.randint(-9, 9) for _ in range(n)])
            if (x * y).norm() != x.norm() * y.norm():
                failures.append(f"t={t}: norm not multiplicative")
    witness = _zero_divisor_witness()
    if witness is None:
        failures.append("no zero-divisor pair found at t=4")
    else:
        x, y = witness
        if x.is_zero() or y.is_zero() or not (x * y).is_zero():
            failures.append("claimed zero-divisor pair does not verify")
    _report(9, "multiplicative below 16 dims, zero divisors at 16", failures,
            time.perf_counter() - start, 60.0)


def _zero_divisor_witness():
    """Search two-term sign combinations of basis vectors at depth 4.

    These are exactly the elements with coefficients in {-1, 0, 1}
    supported on two basis indices; the first cancelling pair found is
    re-verified with the full elementwise product by the caller.
    """
    sig = make_algebra(4, (-1,) * 4, RIGHT)
    for p in range(1, 16):
        for q in range(p + 1, 16):
            for s in (1, -1):
                for r in range(1, 16):
                    for u in range(r + 1, 16):
                        if p ^ r != q ^ u or p ^ u != q ^ r:
                            continue
                        for v in (1, -1):
                            x = sig.basis(p) + s * sig.basis(q)
                            y = sig.basis(r) + v * sig.basis(u)
                            if (x * y).is_zero():
                                return x, y
    return None


def test_criterion_10_residue_arithmetic():
    start = time.perf_counter()
    result = run_residue_suite(pairs=500, seed=20250210)
    _report(10, "residue arithmetic and labelling", result.failures,
            time.perf_counter() - start, 10.0)
    assert result.counts["remainder bound"] == 375
    assert result.counts["prime remainder bound"] == 125
    assert result.counts["labelling"] == 2 * 13 * 13
    assert result.counts["quadratic root"] == 2 * 50
