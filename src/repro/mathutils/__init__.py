"""Number-theoretic building blocks.

The package name is ``mathutils`` (not ``math``) to avoid shadowing the
standard library module.
"""

from repro.mathutils.modular import (
    jacobi_symbol,
    modinv,
    modsqrt,
)
from repro.mathutils.primes import (
    gen_prime,
    is_probable_prime,
)
from repro.mathutils.poly import (
    monic_linear_product,
    poly_div_linear,
    poly_eval,
    poly_mul,
)

__all__ = [
    "jacobi_symbol",
    "modinv",
    "modsqrt",
    "gen_prime",
    "is_probable_prime",
    "monic_linear_product",
    "poly_div_linear",
    "poly_eval",
    "poly_mul",
]
