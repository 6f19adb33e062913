"""Signed-digit recoding for scalar multiplication, and its metrics.

One recoder, :func:`wnaf_digits`, serves every exponentiation in the
library.  With ``stride=1`` it yields the width-``w`` non-adjacent form:
digits zero or odd with ``|d| < 2^(w-1)`` and at most one non-zero digit
in any ``w`` consecutive positions (``≈ bits/(w+1)`` non-zero digits
against ``bits/2`` set bits in binary) — what the variable-base ladders
of :mod:`repro.ec.curve` consume.  With ``stride=w`` it yields the
radix-``2^w`` signed-window form, one digit per ``w`` bits with
``|d| ≤ 2^(w-1)``, which indexes the fixed-base tables
(:class:`repro.ec.curve.FixedBaseWnaf` for curve points, the same row
layout inside :class:`repro.pairing.group.GTElement`).  Group
negation is free (EC points, and GT elements of the order-``q``
subgroup), which is what lets signed digits halve every table.

The long-lived bases the tables serve are the IBBE public-key elements
``w``, ``v``, ``h`` and the master secret's ``g`` (exponentiated by every
membership operation, Algorithms 1-3) and curve generators (every
signature / key generation).  Table usage is observable through the
module-level :data:`registry` (``ec.precomp.*`` metrics), which
:meth:`repro.System.metric_sources` folds into the unified telemetry
snapshot.
"""

from __future__ import annotations

from typing import List

from repro.obs.collect import register_worker_source
from repro.obs.metrics import MetricRegistry
from repro.errors import ValidationError

#: Process-wide precomputation metrics: ``ec.precomp.tables`` (tables
#: built), ``ec.precomp.hits`` (exponentiations served by a table),
#: ``ec.precomp.misses`` (variable-base exponentiations).
#: Registered as a worker source so counters bumped inside pool workers
#: are merged back into the parent process after each traced dispatch.
registry = register_worker_source(MetricRegistry())
TABLES = registry.counter("ec.precomp.tables")
HITS = registry.counter("ec.precomp.hits")
MISSES = registry.counter("ec.precomp.misses")

#: Window width of the variable-base wNAF ladders.
WNAF_WIDTH = 5
#: Window width of the fixed-base tables (G1 and GT): one row of
#: ``2^(TABLE_WIDTH-1)`` multiples per ``TABLE_WIDTH`` bits of the scalar.
TABLE_WIDTH = 4


def wnaf_digits(k: int, width: int = WNAF_WIDTH, stride: int = 1) -> List[int]:
    """Signed digits of ``k >= 0``, least significant first, with
    ``k = Σ d_i · 2^(stride·i)`` and ``|d_i| <= 2^(width-1)``.

    ``stride=1`` is the width-``width`` NAF (every digit zero or odd; at
    most ``bits + 1`` digits for a ``bits``-bit scalar); ``stride=width``
    is the radix-``2^width`` signed-window form (at most
    :func:`table_rows` digits).
    """
    if k < 0:
        raise ValidationError("wNAF recoding expects a non-negative scalar")
    if width < 2 or not 1 <= stride <= width:
        raise ValidationError("wNAF needs width >= 2 and 1 <= stride <= width")
    radix = 1 << width
    half = radix >> 1
    window = radix - 1
    low = (1 << stride) - 1
    digits: List[int] = []
    while k:
        if k & low:
            digit = k & window
            if digit > half:
                digit -= radix
            k -= digit
            digits.append(digit)
        else:
            digits.append(0)
        k >>= stride
    return digits


def table_rows(bits: int, width: int = TABLE_WIDTH) -> int:
    """Rows a fixed-base table needs for scalars below ``2^bits``: one per
    ``width`` bits plus one for the final carry."""
    return -(-bits // width) + 1
