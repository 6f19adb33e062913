"""Finite fields used by the elliptic-curve and pairing substrates.

:mod:`repro.fields.fp2` is the raw-tuple F_p² arithmetic the Miller loop
and GT run on; F_p is plain integer arithmetic modulo ``p``.
"""
