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

import sys

# Public name -> the submodule that defines it.  Names resolve on first
# use (PEP 562), so ``import cdalgebra`` loads no submodule and numpy only
# comes in with the code that builds arrays.
_HOME = {name: module for module, names in (
    ("algebra", "AlgebraSignature Convention Element Rational make_algebra quaternions"
                " octonions sedenions quadratic_check"),
    ("twist", "TwistCoefficient TwistTable BlockKind BlockClassificationError"
              " basis_product basis_product_element twist_sign build_table"
              " partition_blocks shuffle shuffle_string check_power_row_claim"
              " sweep_power_row_claims"),
    ("fibonacci", "GoldenNumber QuaternionParams BinetCheck fib"
                  " fibonacci_quaternion fib_norm_direct fib_norm_formula energy"
                  " invertibility_threshold binet_residual golden_power"),
    ("residue", "WGenerator UElement ResidueField make_w four_square_root is_prime_u"
                " u_mod residue_field encode_symbols decode_symbols"),
) for name in names.split()}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def _submodule(name: str):
    """The submodule ``name``, imported through ``__import__``: the path of the
    import statement, which ``python -X importtime`` reports (``importlib``'s
    is not reported)."""
    qualified = f"{__name__}.{name}"
    __import__(qualified)
    return sys.modules[qualified]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_submodule(_HOME[name]), name)
    elif name in _HOME.values():  # a submodule, as after an eager import
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_HOME})
