"""Type-A pairing parameter generation and presets.

A parameter set consists of:

* ``q`` — a prime, the order of the bilinear groups (exponent field Z_q);
* ``p`` — the base-field prime, ``p ≡ 3 (mod 4)`` and ``q | p + 1``, so the
  supersingular curve ``y² = x³ + x`` (which has ``p + 1`` points) contains
  a subgroup of order ``q`` and has embedding degree 2;
* ``g`` — a generator of that order-``q`` subgroup.

Presets:

* :func:`toy64` — 64-bit group order over a ~96-bit field.  Fast; used by
  the test suite and the large sweeps in benchmarks.  NOT secure.
* :func:`std160` — 160-bit group order over a 512-bit field, the security
  level of PBC's stock ``a.param`` used by the paper's implementation.

Both presets are generated deterministically (fixed seeds) so that every
checkout produces identical parameters, and cached per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.crypto.rng import DeterministicRng, Rng
from repro.ec.curve import Curve
from repro.errors import ParameterError
from repro.mathutils.modular import jacobi_symbol, modsqrt
from repro.mathutils.primes import gen_prime, is_probable_prime


@dataclass(frozen=True)
class PairingParams:
    """Immutable type-A pairing parameters."""

    q: int                 # group order (prime)
    p: int                 # base field prime, p ≡ 3 (mod 4), q | p+1
    generator: Tuple[int, int]  # affine generator of the order-q subgroup
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.p % 4 != 3:
            raise ParameterError("type-A pairing requires p ≡ 3 (mod 4)")
        if (self.p + 1) % self.q != 0:
            raise ParameterError("group order q must divide p + 1")
        if not is_probable_prime(self.q):
            raise ParameterError("group order q must be prime")
        if not is_probable_prime(self.p):
            raise ParameterError("field order p must be prime")
        gx, gy = self.generator
        if (gy * gy - (gx * gx * gx + gx)) % self.p != 0:
            raise ParameterError("generator is not on y² = x³ + x")

    @property
    def cofactor(self) -> int:
        return (self.p + 1) // self.q

    def describe(self) -> str:
        return (
            f"{self.name}: |q|={self.q.bit_length()} bits, "
            f"|p|={self.p.bit_length()} bits"
        )


def generate_params(q_bits: int, p_bits: int, rng: Rng,
                    name: str = "custom") -> PairingParams:
    """Generate fresh type-A parameters.

    Searches for a prime ``q`` of ``q_bits`` bits and a cofactor ``h``
    (a multiple of 4, so that ``p = q·h - 1 ≡ 3 (mod 4)``) making
    ``p = q·h - 1`` a ``p_bits``-bit prime, then derives a generator by
    cofactor multiplication of a random curve point.
    """
    if p_bits < q_bits + 3:
        raise ParameterError("p_bits must exceed q_bits by at least 3")
    q = gen_prime(q_bits, rng.randint_below)
    h_bits = p_bits - q_bits
    while True:
        h = rng.randint_below(1 << h_bits)
        h = (h | (1 << (h_bits - 1))) & ~0b11  # top bit set, multiple of 4
        if h == 0:
            continue
        p = q * h - 1
        if p.bit_length() != p_bits or p % 4 != 3:
            continue
        if is_probable_prime(p):
            break
    generator = _find_generator(p, q, rng)
    return PairingParams(q=q, p=p, generator=generator, name=name)


def _find_generator(p: int, q: int, rng: Rng) -> Tuple[int, int]:
    """Find a point of order exactly q on y² = x³ + x over F_p."""
    curve = Curve(p=p, a=1, b=0, order=q, cofactor=(p + 1) // q,
                  name="type-a")
    while True:
        x = rng.randint_below(p)
        rhs = (pow(x, 3, p) + x) % p
        if rhs == 0 or jacobi_symbol(rhs, p) != 1:
            continue
        y = modsqrt(rhs, p)
        candidate = curve.point(x, y) * curve.cofactor
        if candidate.is_infinity():
            continue
        if not (candidate * q).is_infinity():
            raise ParameterError("curve order is not p + 1; bad parameters")
        return (candidate.x, candidate.y)  # type: ignore[return-value]


_PRESET_SPECS = {
    # name: (q_bits, p_bits, seed)
    "toy64": (64, 96, b"repro-type-a-toy64-v1"),
    "std160": (160, 512, b"repro-type-a-std160-v1"),
}

_PRESET_CACHE: Dict[str, PairingParams] = {}


def preset(name: str) -> PairingParams:
    """Return a named deterministic preset (cached per process)."""
    if name not in _PRESET_SPECS:
        raise ParameterError(
            f"unknown preset {name!r}; available: {sorted(_PRESET_SPECS)}"
        )
    if name not in _PRESET_CACHE:
        q_bits, p_bits, seed = _PRESET_SPECS[name]
        _PRESET_CACHE[name] = generate_params(
            q_bits, p_bits, DeterministicRng(seed), name=name
        )
    return _PRESET_CACHE[name]


def toy64() -> PairingParams:
    """Fast, insecure parameters for tests (64-bit order, ~96-bit field)."""
    return preset("toy64")


def std160() -> PairingParams:
    """PBC ``a.param``-equivalent security (160-bit order, 512-bit field)."""
    return preset("std160")
