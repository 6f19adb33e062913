"""Elliptic curves over prime fields.

* :mod:`repro.ec.curve` — generic short-Weierstrass arithmetic
  (affine API; Jacobian doubling, mixed addition and batch normalisation
  under one scalar-multiplication engine: wNAF ladder, Straus sums,
  fixed-base tables).
* :mod:`repro.ec.p256` — the NIST P-256 curve (HE-PKI baseline, signatures).
* :mod:`repro.ec.hashing` — try-and-increment hash-to-curve; only the
  HE-IBE baseline (:mod:`repro.ibe`) calls it, so it is named there and
  not loaded with this package (the enclave never links it).
* :mod:`repro.ec.wnaf` — the signed-digit recoder that engine shares
  (``ec.precomp.*`` metrics live in :data:`precomp_registry`).
"""

from repro.ec.curve import Curve, FixedBaseWnaf, Point
from repro.ec.p256 import P256
from repro.ec.wnaf import wnaf_digits
from repro.ec.wnaf import registry as precomp_registry

__all__ = ["Curve", "Point", "P256",
           "FixedBaseWnaf", "wnaf_digits", "precomp_registry"]
