"""Exact arithmetic for iterated-doubling algebras.

Provides:
- algebra: signatures, immutable elements, involution, trace, norm,
  inversion over exact rational scalars
- twist: symbolic structure constants, sign tables, tile partition,
  power-of-two row reports
- fibonacci: big-integer sequences, the golden quadratic field with
  exact signs, quaternion norm identities and invertibility thresholds
- residue: integer subrings, primes, modulo reduction, residue fields
  and the symbol labelling codec
"""

from cdalgebra.algebra import (
    AlgebraSignature,
    Convention,
    Element,
    Rational,
    make_algebra,
    octonions,
    power_left_nested,
    quadratic_check,
    quaternions,
    sedenions,
)
from cdalgebra.twist import (
    BlockClassificationError,
    BlockKind,
    TwistCoefficient,
    TwistTable,
    basis_product,
    basis_product_element,
    build_table,
    partition_blocks,
    check_power_row_claim,
    sweep_power_row_claims,
    shuffle,
    shuffle_string,
    twist_sign,
)
from cdalgebra.fibonacci import (
    BinetCheck,
    GoldenNumber,
    HoradamParams,
    QuaternionParams,
    binet_residual,
    energy,
    fib,
    fib_norm_direct,
    fib_norm_formula,
    fibonacci_quaternion,
    golden_power,
    horadam,
    invertibility_threshold,
)
from cdalgebra.residue import (
    ResidueField,
    UElement,
    WGenerator,
    decode_symbols,
    encode_symbols,
    four_square_root,
    is_prime_u,
    make_w,
    residue_field,
    u_mod,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSignature", "Convention", "Element", "Rational",
    "make_algebra", "quaternions", "octonions", "sedenions",
    "quadratic_check", "power_left_nested",
    "TwistCoefficient", "TwistTable", "BlockKind", "BlockClassificationError",
    "basis_product", "basis_product_element", "twist_sign", "build_table",
    "partition_blocks", "shuffle", "shuffle_string", "check_power_row_claim",
    "sweep_power_row_claims",
    "GoldenNumber", "HoradamParams", "QuaternionParams", "BinetCheck",
    "fib", "horadam", "fibonacci_quaternion", "fib_norm_direct",
    "fib_norm_formula", "energy", "invertibility_threshold", "binet_residual",
    "golden_power",
    "WGenerator", "UElement", "ResidueField",
    "make_w", "four_square_root", "is_prime_u", "u_mod", "residue_field",
    "encode_symbols", "decode_symbols",
    "__version__",
]
