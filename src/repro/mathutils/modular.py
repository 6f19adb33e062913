"""Modular arithmetic helpers: inverses, Jacobi symbol, square roots."""

from __future__ import annotations

from repro.errors import MathError


def modinv(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m``.

    Raises :class:`~repro.errors.MathError` when ``gcd(a, m) != 1``.
    """
    if m <= 0:
        raise MathError(f"modulus must be positive, got {m}")
    a %= m
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise MathError(f"{a} is not invertible modulo {m}") from exc


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive ``n``."""
    if n <= 0 or n % 2 == 0:
        raise MathError(f"Jacobi symbol requires odd positive n, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def modsqrt(a: int, p: int) -> int:
    """Square root of ``a`` modulo an odd prime ``p`` (Tonelli-Shanks).

    Returns a root ``r`` with ``r*r ≡ a (mod p)``; the other root is ``p-r``.
    Raises :class:`~repro.errors.MathError` when ``a`` is a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if p % 4 == 3:
        # a^((p+1)/4) squares to ±a: checking the candidate is one
        # multiplication, where a Jacobi symbol up front is a gcd loop.
        root = pow(a, (p + 1) // 4, p)
        if root * root % p != a:
            raise MathError(f"{a} is not a quadratic residue modulo {p}")
        return root
    if jacobi_symbol(a, p) != 1:
        raise MathError(f"{a} is not a quadratic residue modulo {p}")
    # Tonelli-Shanks for p ≡ 1 (mod 4).
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi_symbol(z, p) != -1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        # Find the least i in (0, m) with t^(2^i) == 1.
        i = 0
        t2 = t
        while t2 != 1:
            t2 = (t2 * t2) % p
            i += 1
            if i == m:
                raise MathError("Tonelli-Shanks failed; modulus not prime?")
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = (b * b) % p
        t = (t * c) % p
        r = (r * b) % p
    return r
