"""Miller's algorithm for products of reduced Tate pairings (type-A, k = 2).

The second pairing argument is first pushed through the distortion map
``φ(x, y) = (-x, i·y)`` into ``E(F_p²)``.  Because the distorted point has
its x-coordinate in F_p and its y-coordinate purely imaginary, all vertical
lines evaluate inside F_p and are annihilated by the final exponentiation
``(p² - 1)/q = (p - 1)·(p + 1)/q`` — the classic BKLS denominator
elimination, so the Miller loop only accumulates the tangent/chord lines.

The work is split along what each argument determines:

* :func:`miller_lines` walks the double-and-add chain of the *first*
  argument ``P`` once, in Jacobian coordinates, and records every line as
  three F_p coefficients ``(A, B, C)`` with
  ``l(φ(Q)) = (A + B·x_Q) + (C·y_Q)·i``.  Lines are *scaled* by the slope
  denominators (2YZ³ for tangents, λ'Z for chords); those factors live in
  F_p*, so the final exponentiation kills them — no modular inversion
  anywhere.  The table depends on ``P`` alone, so a long-lived ``P`` pays
  for it once (:class:`~repro.pairing.group.G1Element` caches it).
* :func:`pairing_product` evaluates ``∏ e(P_i, φ(Q_i))`` from such tables:
  one ``f²`` per bit of ``q`` shared by all terms, two F_p
  multiplications per line, and one final exponentiation — the Frobenius
  shortcut ``f^(p-1) = conj(f) · f^{-1}`` followed by the ``(p+1)/q``
  power of that norm-1 value on a Lucas ladder.

The textbook affine loop the property tests cross-check against lives in
``tests/pairing_oracle.py``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import PairingError
from repro.fields.fp2 import (
    RawFp2,
    fp2_conj,
    fp2_inv,
    fp2_lucas_pow,
    fp2_mul,
)

Line = Tuple[int, int, int]      # l(φ(Q)) = (A + B·x_Q) + (C·y_Q)·i
Lines = List[Tuple[Line, ...]]   # per bit of q below the leading one


def miller_lines(px: int, py: int, p: int, q: int) -> Lines:
    """Line coefficients of the Miller ladder ``P, 2P, …, qP = ∞`` for
    ``P = (px, py)`` on ``y² = x³ + x`` over F_p.

    One entry per bit of ``q`` below the leading one: the tangent of the
    doubling followed, where the bit is set, by the chord of the
    addition.  Vertical lines are eliminated and leave no entry.  Raises
    :class:`PairingError` unless the ladder ends at infinity, i.e. unless
    ``P`` lies in the order-``q`` subgroup.
    """
    x2, y2 = px % p, py % p     # the affine base point, re-added when bits set
    # Running point in Jacobian coordinates (X, Y, Z); starts at P (Z = 1).
    X, Y, Z = x2, y2, 1
    steps: Lines = []

    for bit in bin(q)[3:]:       # skip the leading 1
        step: Tuple[Line, ...] = ()
        # -- doubling with line (a = 1 for the type-A curve) --------------
        if Z == 0:
            pass                 # point at infinity: line is 1
        elif Y == 0:
            X, Y, Z = 1, 1, 0    # vertical tangent: 2V = ∞, line eliminated
        else:
            ZZ = Z * Z % p
            YY = Y * Y % p
            # Tangent numerator n = 3X² + a·Z⁴ and the line scaled by
            # 2YZ³ = Z3·Z² at the distorted point (-x_Q, y_Q·i):
            #   l̃ = (nX - 2Y²  +  nZ²·x_Q)  +  (2YZ³·y_Q)·i
            n = (3 * X * X + ZZ * ZZ) % p
            Z3 = 2 * Y * Z % p
            step = (((n * X - 2 * YY) % p, n * ZZ % p, Z3 * ZZ % p),)
            # Jacobian doubling (a = 1): standard dbl-2007-bl-like forms.
            S = 4 * X * YY % p
            X3 = (n * n - 2 * S) % p
            Y3 = (n * (S - X3) - 8 * YY * YY) % p
            X, Y, Z = X3, Y3, Z3
        if bit == "1":
            # -- mixed addition V + P with line ----------------------------
            if Z == 0:
                X, Y, Z = x2, y2, 1   # ∞ + P = P; vertical line eliminated
            else:
                ZZ = Z * Z % p
                # θ = Y - y2·Z³,  λ' = X - x2·Z² (Jacobian mixed-add forms).
                theta = (Y - y2 * Z % p * ZZ) % p
                lam = (X - x2 * ZZ) % p
                if lam == 0 and theta == 0:
                    raise PairingError(
                        "unexpected doubling inside the addition step"
                    )
                if lam == 0:
                    # V == -P: chord is vertical, sum is ∞, line eliminated.
                    X, Y, Z = 1, 1, 0
                else:
                    # Line scaled by λ'Z:
                    #   l̃ = (θ·x2 - λ'Z·y2  +  θ·x_Q)  +  (λ'Z·y_Q)·i
                    lam_z = lam * Z % p
                    step += (((theta * x2 - lam_z * y2) % p, theta, lam_z),)
                    # Mixed addition with θ = Y - y2Z³, λ' = X - x2Z² and
                    # Z3 = Z·λ' (the line's λ'Z): X3 = θ² + λ'³ - 2Xλ'²,
                    # Y3 = θ(Xλ'² - X3) - Yλ'³.
                    ll = lam * lam % p
                    lll = ll * lam % p
                    v = X * ll % p
                    X3 = (theta * theta + lll - 2 * v) % p
                    Y3 = (theta * (v - X3) - Y * lll) % p
                    X, Y, Z = X3, Y3, lam_z
        steps.append(step)

    if Z != 0:
        raise PairingError("Miller loop did not terminate at infinity; "
                           "point is not in the order-q subgroup")
    return steps


def pairing_product(terms: Sequence[Tuple[Lines, int, int]],
                    p: int, q: int) -> RawFp2:
    """``∏ e(P_i, φ(Q_i))`` for terms ``(miller_lines(P_i), x_Qi, y_Qi)``.

    The ``Q_i`` are affine, non-infinity points of the order-``q``
    subgroup (the caller drops identity terms: their pairing is 1).
    Returns a raw F_p² element of order dividing ``q``.
    """
    points = [(x % p, y % p) for _, x, y in terms]
    fa, fb = 1, 0
    for steps in zip(*(lines for lines, _, _ in terms)):
        fa, fb = (fa - fb) * (fa + fb) % p, 2 * fa * fb % p
        for step, (x, y) in zip(steps, points):
            for A, B, C in step:
                # f · l, Karatsuba over the reduced line value.
                la = (A + B * x) % p
                lb = C * y % p
                aa = fa * la
                bb = fb * lb
                fb = ((fa + fb) * (la + lb) - aa - bb) % p
                fa = (aa - bb) % p
    return _final_exponentiation((fa, fb), p, q)


def _final_exponentiation(f: RawFp2, p: int, q: int) -> RawFp2:
    if f == (0, 0):
        raise PairingError("degenerate Miller value")
    # f^((p-1)(p+1)/q): Frobenius (conjugation) gives the norm-1 value
    # f^(p-1), whose short exponent runs on the Lucas ladder.
    f_p_minus_1 = fp2_mul(fp2_conj(f, p), fp2_inv(f, p), p)
    return fp2_lucas_pow(f_p_minus_1, (p + 1) // q, p)
