"""Metric names, units and directions, and the per-layer figures of a traced run."""
from __future__ import annotations

from typing import Dict, Tuple

from spans import Tracer, median_of
from workloads import LADDER

END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# cli.<subcommand>_ms takes the median over these cli workload classes.
CLI_SUBCOMMANDS = {
    "mul_table": ("mul_table_csv", "mul_table_json"),
    "twist": ("twist",),
    "blocks": ("blocks",),
    "verify": ("verify_fib",),
    "fib_norm": ("fib_norm",),
    "threshold": ("threshold",),
    "residue_field": ("residue_field",),
    "label": ("label",),
    "encode": ("encode",),
}

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "algebra.mul_calls": ("count", "lower"),
    "algebra.mul_busy_s": ("s", "lower"),
    "algebra.mul_t2_us": ("us", "lower"),
    "algebra.mul_t3_us": ("us", "lower"),
    "algebra.mul_t4_us": ("us", "lower"),
    "algebra.mul_t6_us": ("us", "lower"),
    "algebra.mul_t8_ms": ("ms", "lower"),
    "algebra.mul_rat_t4_us": ("us", "lower"),
    "algebra.mul_rat_t8_ms": ("ms", "lower"),
    "algebra.norm_t8_us": ("us", "lower"),
    "algebra.inverse_t2_us": ("us", "lower"),
    "algebra.inverse_t8_us": ("us", "lower"),
    "twist.build_table_t10_ms": ("ms", "lower"),
    "twist.build_table_t12_ms": ("ms", "lower"),
    "twist.sign_table_t12_ms": ("ms", "lower"),
    "twist.partition_blocks_t10_ms": ("ms", "lower"),
    "twist.twist_sign_t30_us": ("us", "lower"),
    "twist.basis_product_t30_us": ("us", "lower"),
    "fibonacci.norm_direct_us": ("us", "lower"),
    "fibonacci.norm_formula_us": ("us", "lower"),
    "fibonacci.threshold_ms": ("ms", "lower"),
    "residue.field_build_ms": ("ms", "lower"),
    **{f"residue.certify_p{p}_ms": ("ms", "lower") for p in LADDER},
    "residue.u_mod_us": ("us", "lower"),
    "residue.u_mod_calls": ("count", "lower"),
    "residue.u_mod_fallbacks": ("count", "lower"),
    "residue.u_mod_first_round_ratio": ("ratio", "higher"),
    "residue.is_prime_us": ("us", "lower"),
    "suites.core_s": ("s", "lower"),
    "suites.twist_s": ("s", "lower"),
    "suites.fib_s": ("s", "lower"),
    "suites.residue_s": ("s", "lower"),
    "suites.checks": ("count", "higher"),
    "suites.mul_calls": ("count", "lower"),
    "cli.startup_ms": ("ms", "lower"),
    **{f"cli.{name}_ms": ("ms", "lower") for name in CLI_SUBCOMMANDS},
    "cli.bytes_out": ("bytes", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

US, MS, S = 1e-6, 1e-3, 1.0


def layer_metrics(tr: Tracer, suite_checks: int, fallbacks: int, cli_bytes: int,
                  overhead_pct: float) -> Dict[str, float]:
    """Per-layer figures from one traced round of every workload."""
    def med(name, workload, cls, scale):
        return median_of(tr.select(name, workload, cls), scale)

    m: Dict[str, float] = {}
    mul = tr.select("algebra.mul", "tower")
    m["algebra.mul_calls"] = len(mul)
    m["algebra.mul_busy_s"] = sum(s[2] - s[1] for s in mul) / 1e9
    for t in (2, 3, 4, 6):
        m[f"algebra.mul_t{t}_us"] = med("algebra.mul", "tower", f"int_t{t}", US)
    m["algebra.mul_t8_ms"] = med("algebra.mul", "tower", "int_t8", MS)
    m["algebra.mul_rat_t4_us"] = med("algebra.mul", "tower", "rat_t4", US)
    m["algebra.mul_rat_t8_ms"] = med("algebra.mul", "tower", "rat_t8", MS)
    m["algebra.norm_t8_us"] = med("algebra.norm", "tower", "int_t8", US)
    m["algebra.inverse_t2_us"] = med("algebra.inverse", "tower", "int_t2", US)
    m["algebra.inverse_t8_us"] = med("algebra.inverse", "tower", "int_t8", US)

    m["twist.build_table_t10_ms"] = med("twist.build_table", "tower", "table_t10", MS)
    m["twist.build_table_t12_ms"] = med("twist.build_table", "tower", "table_t12", MS)
    m["twist.sign_table_t12_ms"] = med("twist.sign_table", "tower", "table_t12", MS)
    m["twist.partition_blocks_t10_ms"] = med("twist.partition_blocks", "tower", "blocks_t10", MS)
    m["twist.twist_sign_t30_us"] = med("twist.twist_sign", "tower", "point_t30", US)
    m["twist.basis_product_t30_us"] = med("twist.basis_product", "tower", "point_t30", US)

    m["fibonacci.norm_direct_us"] = med("fibonacci.fib_norm_direct", "domain", "fibnorm", US)
    m["fibonacci.norm_formula_us"] = med("fibonacci.fib_norm_formula", "domain", "fibnorm", US)
    m["fibonacci.threshold_ms"] = med("fibonacci.invertibility_threshold", "domain",
                                      "threshold", MS)

    build = tr.select("residue.residue_field", "domain", "build")
    m["residue.field_build_ms"] = sum(s[2] - s[1] for s in build) / 1e9 / MS
    for p in LADDER:
        m[f"residue.certify_p{p}_ms"] = med("residue.residue_field", "domain",
                                            f"certify_p{p}", MS)
    umod = tr.select("residue.u_mod", "domain")
    m["residue.u_mod_us"] = median_of(umod, US)
    m["residue.u_mod_calls"] = len(umod)
    m["residue.u_mod_fallbacks"] = fallbacks
    m["residue.u_mod_first_round_ratio"] = 1 - fallbacks / len(umod)
    m["residue.is_prime_us"] = med("residue.is_prime_u", "domain", "prime", US)

    for name in ("core", "twist", "fib", "residue"):
        m[f"suites.{name}_s"] = med(f"suites.{name}", "sweep", name, S)
    m["suites.checks"] = suite_checks
    m["suites.mul_calls"] = len(tr.select("algebra.mul", "sweep"))

    m["cli.startup_ms"] = med("bench.startup", "cli", "startup", MS)
    for sub, classes in CLI_SUBCOMMANDS.items():
        spans = [s for c in classes for s in tr.select("bench." + c, "cli", c)]
        m[f"cli.{sub}_ms"] = median_of(spans, MS)
    m["cli.bytes_out"] = cli_bytes
    m["trace.overhead_pct"] = overhead_pct
    return m
