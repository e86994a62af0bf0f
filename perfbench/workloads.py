"""The four benchmark workloads, built from a seed.

A workload is a list of operation classes.  One pass of a class runs a
fixed list of public cdalgebra calls on inputs made once from the seed,
so every pass of a class does identical work and returns identical
outputs.  The program only ever sees the generated inputs.

Modules are reached through their attributes (``twist.build_table``, not
a name imported from it), so the traced run's wrappers see every call.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List

import checks
import reference as ref
from cdalgebra import algebra, fibonacci, residue, suites, twist

Convention = algebra.Convention
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


@dataclass
class OpClass:
    name: str
    ops: int                          # public calls (or processes) per pass
    run: Callable[[], object]         # one pass; returns its outputs
    check: Callable[[object], None]   # raises checks.CheckFailed on a wrong output
    weight: float = 1.0               # passes of this class in one notional round
    repeat: int = 1                   # passes of this class in one timed round
    known_fault: bool = False         # fails today because of a named program fault
    check_every_pass: bool = False    # outputs are re-checked on every pass


# Median pass seconds of every class at unit host speed (speed.py),
# measured at the commit that introduced the benchmark.  A notional round
# runs 1 / NOMINAL passes of each class, so that every class holds the same
# share of the round at that commit; a timed round repeats a pass until it
# has run ~ROUND_SHARE_S of the workload, so short classes collect many
# passes.  A sweep round is set by the 3 s twist suite, which leaves room
# for several passes of the other suites.
NOMINAL = {
    "tower": {
        "int_t1": 0.00918, "int_t2": 0.00886, "int_t3": 0.00821, "int_t4": 0.00668,
        "int_t5": 0.00599, "int_t6": 0.0224, "int_t7": 0.0837, "int_t8": 0.325,
        "rat_t1": 0.0103, "rat_t2": 0.0126, "rat_t3": 0.0125, "rat_t4": 0.0111,
        "rat_t5": 0.0101, "rat_t6": 0.0403, "rat_t7": 0.163, "rat_t8": 0.614,
        "table_t10": 0.0479, "table_t12": 0.895, "blocks_t10": 0.334, "point_t30": 0.00543,
    },
    "sweep": {"core": 0.53, "twist": 3.05, "fib": 0.161, "residue": 0.0435},
    "domain": {
        "certify_p13": 0.00167, "certify_p61": 0.0332, "certify_p211": 0.384,
        "certify_p577": 2.79, "build": 0.00368, "decode_golden": 0.00791,
        "decode_euclid": 0.00597, "umod": 0.00541, "codec": 0.00363, "prime": 0.000654,
        "fibnorm": 0.00177, "threshold": 0.0387,
    },
    "cli": {
        "mul_table_csv": 0.293, "mul_table_json": 0.263, "twist": 0.27, "blocks": 0.302,
        "verify_fib": 0.416, "fib_norm": 0.26, "threshold": 0.279, "residue_field": 0.835,
        "label": 0.801, "encode": 0.789, "label_short_u": 0.741, "output_missing_dir": 0.275,
    },
}
ROUND_SHARE_S = {"tower": 0.06, "sweep": 1.2, "domain": 0.06, "cli": 0.06}


def build(workload: str, seed: int) -> List[OpClass]:
    classes = BUILDERS[workload](seed)
    for cls in classes:
        nominal = NOMINAL[workload][cls.name]
        cls.weight = 1 / nominal
        cls.repeat = max(1, round(ROUND_SHARE_S[workload] / nominal))
    return classes


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{seed}/{salt}")


# ---- tower ------------------------------------------------------------------

# One fixed mixed-rational parameter set; depth t uses its first t entries.
MIXED = (2, -3, Fraction(5, 7), Fraction(-1, 2), 3, -1, Fraction(3, 4), -5)
# Element pairs per signature per pass: a pass lasts ~5 ms where a single
# call allows it.
PAIRS = {1: 100, 2: 50, 3: 16, 4: 4, 5: 1, 6: 1, 7: 1, 8: 1}


def tower_signatures(t: int) -> List[algebra.AlgebraSignature]:
    return [algebra.make_algebra(t, gammas, conv)
            for gammas in ((-1,) * t, MIXED[:t]) for conv in Convention]


def _elements(sig, count: int, rng: random.Random, rational: bool) -> list:
    """Seeded elements with nonzero norm, so that every inverse exists.

    With ``rational``, exactly 5% of all coefficients (rounded) are
    fractions, at seeded positions, so every seed gives the same mix.
    """
    dim = sig.dimension
    fractions = set(rng.sample(range(count * dim), round(0.05 * count * dim))) if rational else ()
    out = []
    for e in range(count):
        while True:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(2, 9))
                      if e * dim + k in fractions else rng.randint(-9, 9)
                      for k in range(dim)]
            if ref.norm(coeffs, sig.gammas) != 0:
                out.append(sig.element(coeffs))
                break
    return out


def _element_class(t: int, rational: bool, seed: int) -> OpClass:
    kind = "rat" if rational else "int"
    rng = _rng(seed, f"tower/{kind}{t}")
    pairs = []
    for sig in tower_signatures(t):
        xs = _elements(sig, 2 * PAIRS[t], rng, rational)
        pairs += zip(xs[::2], xs[1::2])
    per_sig = PAIRS[t]
    sample = {0} if t >= 7 else {k * per_sig + j for k in range(4)
                                 for j in range(min(per_sig, 2 if t <= 4 else 1))}

    def run():
        out = []
        for x, y in pairs:
            out.append(x * y)
            out.append(x.norm())
            out.append(x.inverse())
        return out

    return OpClass(f"{kind}_t{t}", 3 * len(pairs), run,
                   lambda out: checks.check_elements(pairs, out, sample))


def _table_class(t: int, conventions, seed: int) -> OpClass:
    def run():
        out = []
        for conv in conventions:
            table = twist.build_table(t, conv)
            out += [table, table.sign_table()]
        return out

    def check(out):
        rng = _rng(seed, f"tower/table{t}/check")
        for conv, (table, signs) in zip(conventions, zip(out[::2], out[1::2])):
            checks.check_table(table, t, conv.value, rng)
            checks.check_sign_table(signs, t, conv.value, rng)

    return OpClass(f"table_t{t}", 2 * len(conventions), run, check)


def _blocks_class(seed: int) -> OpClass:
    tables = [twist.build_table(10, conv) for conv in Convention]

    def run():
        return [twist.partition_blocks(table) for table in tables]

    def check(out):
        rng = _rng(seed, "tower/blocks/check")
        for table, kinds in zip(tables, out):
            checks.check_blocks(kinds, 10, table.convention.value,
                                lambda k: twist.BlockKind(k).label(), rng)

    return OpClass("blocks_t10", len(tables), run, check)


def _pointwise_class(seed: int) -> OpClass:
    t = 30
    rng = _rng(seed, "tower/point")
    pairs = [(rng.randrange(1 << t), rng.randrange(1 << t)) for _ in range(100)]
    sigs = {conv: algebra.make_algebra(t, (-1,) * t, conv) for conv in Convention}

    def run():
        signs, products = [], []
        for conv in Convention:
            for p, q in pairs:
                signs.append(twist.twist_sign(p, q, t, conv))
                products.append(twist.basis_product(p, q, sigs[conv]))
        return signs, products

    def check(out):
        signs, products = out
        n = len(pairs)
        for k, conv in enumerate(Convention):
            checks.check_pointwise(pairs, t, conv.value, signs[k * n:(k + 1) * n],
                                   products[k * n:(k + 1) * n])

    return OpClass("point_t30", 4 * len(pairs), run, check)


def build_tower(seed: int) -> List[OpClass]:
    classes = [_element_class(t, rational, seed)
               for rational in (False, True) for t in range(1, 9)]
    classes += [_table_class(10, tuple(Convention), seed),
                _table_class(12, (Convention.CONJUGATE_RIGHT,), seed),
                _blocks_class(seed), _pointwise_class(seed)]
    return classes


# ---- sweep ------------------------------------------------------------------

# Random samples per depth and convention for the core suite (its default
# is 200; verify --samples sets the same argument).
CORE_SAMPLES = 5


def build_sweep(seed: int) -> List[OpClass]:
    classes = []
    for name in suites.SUITES:
        kwargs = {"seed": _rng(seed, f"sweep/{name}").randrange(1 << 31)}
        if name == "core":
            kwargs["samples"] = CORE_SAMPLES

        def run(name=name, kwargs=kwargs):
            return suites.SUITES[name](**kwargs)

        classes.append(OpClass(name, 1, run, checks.check_suite))
    return classes


# ---- domain -----------------------------------------------------------------

GOLDEN_W = (1, 1, 1, 1)    # w = 1 + e1 + e2 + e3: q = 2, m = 4, discriminant 12
EUCLID_W = (1, 1, 1, 0)    # w = 1 + e1 + e2: q = 2, m = 3, discriminant 8
LADDER = (13, 61, 211, 577)
EUCLID_P = 11


class Ring:
    """A generator with one seeded prime of each requested norm."""

    def __init__(self, coeffs, primes, rng: random.Random):
        self.gen = residue.make_w(2, (1, 2, 3), coeffs)
        self.q, self.m = self.gen.q, self.gen.m
        self.pi = {p: rng.choice(ref.representations(p, self.q, self.m)) for p in primes}

    def u(self, ab) -> residue.UElement:
        return self.gen.element(*ab)


def _stream(rng: random.Random, count: int, span: int):
    return [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(count)]


def build_domain(seed: int) -> List[OpClass]:
    rng = _rng(seed, "domain")
    golden = Ring(GOLDEN_W, LADDER, rng)
    # The codec runs at the README's prime -1 + 2w, whose nearest rounding
    # misses the norm bound for ~15% of inputs; its conjugate never misses.
    # At the Euclidean generator rounding always meets the bound.
    golden.pi[13] = (-1, 2)
    euclid = Ring(EUCLID_W, (EUCLID_P,), rng)
    fields = {(golden, 13): residue.residue_field(golden.u(golden.pi[13])),
              (euclid, EUCLID_P): residue.residue_field(euclid.u(euclid.pi[EUCLID_P]))}
    classes = []

    def field_check(ring, p, salt):
        return lambda f: checks.check_field(f, ring.pi[p], ring.q, ring.m, _rng(seed, salt))

    for p in LADDER:
        pi = golden.u(golden.pi[p])
        classes.append(OpClass(f"certify_p{p}", 1,
                               lambda pi=pi: residue.residue_field(pi, verify=True),
                               field_check(golden, p, f"certify{p}")))
    build_pis = [golden.u(golden.pi[p]) for p in LADDER]

    def check_build(out):
        for p, f in zip(LADDER, out):
            field_check(golden, p, f"build{p}")(f)

    classes.append(OpClass("build", len(LADDER),
                           lambda: [residue.residue_field(pi, verify=False) for pi in build_pis],
                           check_build))

    for tag, ring, p in (("golden", golden, 13), ("euclid", euclid, EUCLID_P)):
        field = fields[ring, p]
        chunks = [_stream(rng, 60, 60) for _ in range(4)]
        u_chunks = [[ring.u(ab) for ab in chunk] for chunk in chunks]

        def check_decode(out, chunks=chunks, ring=ring, p=p):
            for chunk, labels in zip(chunks, out):
                checks.check_labels(chunk, labels, ring.pi[p], ring.q, ring.m)

        classes.append(OpClass(
            f"decode_{tag}", len(chunks),
            lambda u_chunks=u_chunks, field=field:
                [residue.decode_symbols(us, field) for us in u_chunks],
            check_decode))

    umod_cases = [(ring, p, _stream(rng, 100, 80))
                  for ring, p in ((golden, 13), (euclid, EUCLID_P))]
    umod_inputs = [(ring.u(ring.pi[p]), [ring.u(ab) for ab in xs]) for ring, p, xs in umod_cases]

    def check_umod(out):
        for (ring, p, xs), rs in zip(umod_cases, out):
            for x, r in zip(xs, rs):
                checks.check_u_mod(x, (r.a, r.b), ring.pi[p], ring.q, ring.m)

    classes.append(OpClass("umod", sum(len(xs) for _, _, xs in umod_cases),
                           lambda: [[residue.u_mod(x, pi) for x in us] for pi, us in umod_inputs],
                           check_umod))

    codec_cases = [(ring, p, [rng.randrange(p) for _ in range(32)])
                   for ring, p in ((golden, 13), (euclid, EUCLID_P)) for _ in range(2)]

    def run_codec():
        out = []
        for ring, p, ks in codec_cases:
            encoded = residue.encode_symbols(ks, fields[ring, p])
            out.append((encoded, residue.decode_symbols(encoded, fields[ring, p])))
        return out

    def check_codec(out):
        for (ring, p, ks), (encoded, decoded) in zip(codec_cases, out):
            checks.check_round_trip(ks, [(u.a, u.b) for u in encoded], decoded,
                                    ring.pi[p], ring.q, ring.m)

    classes.append(OpClass("codec", 2 * len(codec_cases), run_codec, check_codec))

    prime_inputs = _stream(rng, 200, 300)
    prime_us = [golden.u(ab) for ab in prime_inputs]
    classes.append(OpClass(
        "prime", len(prime_us), lambda: [residue.is_prime_u(u) for u in prime_us],
        lambda out: checks.check_primality(
            [ref.form(a, b, golden.q, golden.m) for a, b in prime_inputs], out)))

    fibs = ref.fibonacci(420)
    norm_cases = [(rng.randrange(300, 400), _param(rng), _param(rng)) for _ in range(20)]
    norm_params = [(n, fibonacci.QuaternionParams(a1, a2)) for n, a1, a2 in norm_cases]
    classes.append(OpClass(
        "fibnorm", 2 * len(norm_cases),
        lambda: ([fibonacci.fib_norm_direct(n, qp) for n, qp in norm_params],
                 [fibonacci.fib_norm_formula(n, qp) for n, qp in norm_params]),
        lambda out: checks.check_fib_norms(norm_cases, out[0], out[1], fibs)))

    threshold_cases = [(_param(rng), _param(rng), 200) for _ in range(6)]
    threshold_params = [(fibonacci.QuaternionParams(a1, a2), n_max)
                        for a1, a2, n_max in threshold_cases]
    classes.append(OpClass(
        "threshold", len(threshold_cases),
        lambda: [fibonacci.invertibility_threshold(qp, n_max=n) for qp, n in threshold_params],
        lambda out: checks.check_thresholds(threshold_cases, out, fibs)))
    return classes


def _param(rng: random.Random) -> Fraction:
    """A nonzero rational quaternion parameter with one-digit parts."""
    return Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9))


# ---- cli --------------------------------------------------------------------


def cli_command(args: List[str]) -> List[str]:
    return [sys.executable, "-m", "cdalgebra.cli", *args]


def run_process(argv: List[str]):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    return done.returncode, done.stdout, done.stderr


def _cli_class(name: str, args: List[str], check, known_fault: bool = False) -> OpClass:
    argv = cli_command(args)

    def check_result(result):
        rc, out, err = result
        if known_fault:
            checks.check_usage_error(rc, err)
        else:
            checks.check_clean_exit(rc, out, err)
            check(out)

    return OpClass(name, 1, lambda: run_process(argv), check_result,
                   known_fault=known_fault, check_every_pass=True)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def build_cli(seed: int) -> List[OpClass]:
    rng = _rng(seed, "cli")
    golden = Ring(GOLDEN_W, (13, 61), rng)
    q, m = golden.q, golden.m
    w = ["--w", _csv(GOLDEN_W), "--t", "2"]
    pool = [Fraction(k, d) for k in (-3, -2, -1, 1, 2, 3, 5) for d in (1, 2, 3)]
    g6 = [rng.choice(pool) for _ in range(6)]
    g4 = [rng.choice(pool) for _ in range(4)]
    p30, q30 = rng.randrange(1 << 30), rng.randrange(1 << 30)
    n, a1, a2 = rng.randrange(150, 250), _param(rng), _param(rng)
    b1, b2 = _param(rng), _param(rng)
    u = (rng.randint(-50, 50), rng.randint(-50, 50))
    symbols = [rng.randrange(13) for _ in range(24)]
    fibs = ref.fibonacci(420)
    pi13, pi61 = golden.pi[13], golden.pi[61]
    missing = "perfbench/out/missing/out.txt"   # relative to the checkout root
    right = Convention.CONJUGATE_RIGHT.value
    return [
        _cli_class("mul_table_csv", ["mul-table", "--t", "6", "--gammas", _csv(g6)],
                   lambda out: checks.check_mul_table_csv(out, 6, right)),
        _cli_class("mul_table_json", ["mul-table", "--t", "4", "--gammas", _csv(g4),
                                      "--format", "json"],
                   lambda out: checks.check_mul_table_json(out, 4, right, g4)),
        _cli_class("twist", ["twist", "--t", "30", "--p", str(p30), "--q", str(q30)],
                   lambda out: checks.check_twist_line(out, p30, q30, 30, right)),
        _cli_class("blocks", ["blocks", "--t", "8"],
                   lambda out: checks.check_blocks_text(out, 8, "eq31", _rng(seed, "cli/blocks"))),
        _cli_class("verify_fib", ["verify", "--suite", "fib"],
                   lambda out: checks.check_verify_text(out, ["fib"])),
        _cli_class("fib_norm", ["fib-norm", "--n", str(n), "--alpha1", str(a1),
                                "--alpha2", str(a2)],
                   lambda out: checks.check_fib_norm_text(out, n, a1, a2, fibs)),
        _cli_class("threshold", ["threshold", "--alpha1", str(b1), "--alpha2", str(b2),
                                 "--nmax", "200"],
                   lambda out: checks.check_threshold_text(out, b1, b2, 200, fibs)),
        _cli_class("residue_field", ["residue-field", "--p", "61", "--pi", _csv(pi61), *w],
                   lambda out: checks.check_field_csv(out, pi61, q, m)),
        _cli_class("label", ["label", "--pi", _csv(pi13), *w, "--u", _csv(u)],
                   lambda out: checks.check_label_text(out, u, pi13, q, m)),
        _cli_class("encode", ["encode", "--pi", _csv(pi13), *w, "--symbols", _csv(symbols)],
                   lambda out: checks.check_encode_text(out, symbols, pi13, q, m)),
        # Program faults: both escape with a traceback today.
        _cli_class("label_short_u", ["label", "--pi", "-1,2", *w, "--u", "1"], None,
                   known_fault=True),
        _cli_class("output_missing_dir", ["fib-norm", "--n", "3", "--alpha1", "1",
                                          "--alpha2", "1", "--output", missing],
                   None, known_fault=True),
    ]


BUILDERS = {"tower": build_tower, "sweep": build_sweep, "domain": build_domain,
            "cli": build_cli}
