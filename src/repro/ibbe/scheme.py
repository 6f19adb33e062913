"""The Delerablée IBBE scheme and its IBBE-SGX accelerations.

Notation follows the paper's Appendix A (all group operations are written
multiplicatively; in the symmetric type-A setting, ``g`` and ``h`` live in
the same group G1):

* **System setup** (A-A): ``MSK = (g, γ)``;
  ``PK = (w = g^γ, v = e(g, h), h, h^γ, …, h^(γ^m))``.
* **Extract** (A-B): ``USK_u = g^(1/(γ + H(u)))``.
* **Encrypt** (A-C): ``bk = v^k``, ``C1 = w^(-k)``,
  ``C2 = h^(k·∏_{u∈S}(γ + H(u)))``, plus the auxiliary
  ``C3 = h^(∏_{u∈S}(γ + H(u)))`` enabling O(1) membership updates.
  - :func:`encrypt_pk` computes C2/C3 from the public key by polynomial
    expansion — **O(|S|²)** (classic IBBE, eq. 4).
  - :func:`encrypt_msk` computes the exponent directly with γ — **O(|S|)**
    (IBBE-SGX, eq. 3; only callable with the master secret, i.e. inside the
    enclave).
* **Decrypt** (A-D): quadratic polynomial expansion + multi-exponentiation,
  identical under both usage models.
* **Add / Remove / Re-key** (A-E/F/G): O(1) ciphertext updates using γ
  (add, remove) or C3 alone (re-key) — the paper's reference forms.  A
  holder of γ can instead re-derive the aggregate from the member list
  (:func:`aggregate_exponent`) and stay on fixed bases
  (:func:`encrypt_aggregate`), which is what the enclave does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.crypto.rng import Rng
from repro.errors import PairingError, ParameterError, SchemeError
from repro.mathutils.modular import modinv
from repro.mathutils.poly import monic_linear_product
from repro.pairing.group import G1Element, GTElement, PairingGroup
from repro.pairing.params import preset
from repro.serialize import Reader, Writer

_PK_MAGIC = b"IBBEPK1"


@dataclass(frozen=True)
class IbbePublicKey:
    """System-wide IBBE public key.

    ``h_powers[t]`` is ``h^(γ^t)``; the list has ``m + 1`` entries so that
    broadcast sets of up to ``m`` identities can be encrypted without the
    master secret and decrypted by any member.
    """

    group: PairingGroup
    m: int
    w: G1Element                 # g^γ
    v: GTElement                 # e(g, h)
    h_powers: Tuple[G1Element, ...]

    @property
    def h(self) -> G1Element:
        return self.h_powers[0]

    def hash_identity(self, identity: str) -> int:
        """H: identity string → Z_q* (paper's H(u))."""
        return self.group.hash_to_scalar(identity, domain=b"repro:ibbe-h")

    def enable_precomputation(self) -> "IbbePublicKey":
        """Build fixed-base tables for the hot bases ``w``, ``v`` and
        ``h`` (idempotent; tables are cached on the elements, so every
        holder of this key object shares them).

        These three are the only bases :func:`encrypt_aggregate`
        exponentiates, so this turns the per-partition cost of
        Algorithms 1-3 from three full ladders into sparse table
        lookups.  Called where those run — :func:`setup`, the
        enclave installing a master secret, each engine worker process —
        and not by :meth:`decode`: clients never exponentiate the bases.
        """
        self.h.enable_precomputation()
        self.w.enable_precomputation()
        self.v.enable_precomputation()
        return self

    def size_bytes(self) -> int:
        """Wire size of the public key — linear in m (paper §IV-C)."""
        return len(self.encode())

    def encode(self) -> bytes:
        """Self-contained wire encoding (pairing preset + key material).

        Used to persist the system public key so administrators and
        clients can be started from state directories (see
        :mod:`repro.cli`).
        """
        writer = Writer()
        writer.bytes_field(_PK_MAGIC)
        writer.str_field(self.group.params.name)
        writer.u32(self.m)
        writer.bytes_field(self.w.encode())
        writer.bytes_field(self.v.encode())
        writer.bytes_list(element.encode() for element in self.h_powers)
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes,
               group: "PairingGroup | None" = None) -> "IbbePublicKey":
        """Decode a public key; the pairing group is reconstructed from the
        named preset unless supplied."""
        return cls._decode(data, group, None)

    @classmethod
    def decode_bases(cls, data: bytes,
                     group: "PairingGroup | None" = None) -> "IbbePublicKey":
        """:meth:`decode` keeping only ``w``, ``v`` and ``h``
        (= ``h_powers[0]``) — the bases Algorithms 1-3 exponentiate.

        The remaining ``m`` ``h``-powers are checked as framed fields
        but not decompressed (a modular square root each — seconds for
        large ``m``), so the engine's partition-build workers start
        without them.
        """
        return cls._decode(data, group, 1)

    @classmethod
    def _decode(cls, data: bytes, group: "PairingGroup | None",
                keep: "int | None") -> "IbbePublicKey":
        """The one walk over the ``IBBEPK1`` fields :meth:`encode`
        writes; decompresses the first ``keep`` ``h``-powers (all of
        them for ``None``)."""
        reader = Reader(data)
        if reader.bytes_field() != _PK_MAGIC:
            raise SchemeError("not an IBBE public key encoding")
        preset_name = reader.str_field()
        if group is None:
            group = PairingGroup(preset(preset_name))
        elif group.params.name != preset_name:
            raise SchemeError(
                f"public key was generated for preset {preset_name!r}, "
                f"got group {group.params.name!r}"
            )
        m = reader.u32()
        w = G1Element.decode(group, reader.bytes_field())
        v = GTElement.decode(group, reader.bytes_field())
        encoded = reader.bytes_list()
        reader.expect_end()
        if len(encoded) != m + 1:
            raise SchemeError("inconsistent public key (h-power count)")
        h_powers = tuple(G1Element.decode(group, item)
                         for item in encoded[:keep])
        return cls(group=group, m=m, w=w, v=v, h_powers=h_powers)


@dataclass(frozen=True)
class IbbeMasterSecret:
    """``MSK = (g, γ)`` — confined to the enclave in IBBE-SGX."""

    g: G1Element
    gamma: int


@dataclass(frozen=True)
class IbbeUserKey:
    identity: str
    element: G1Element  # g^(1/(γ + H(u)))

    def encode(self) -> bytes:
        return self.element.encode()


@dataclass(frozen=True)
class IbbeHeader:
    """The broadcast header ``(C1, C2)`` of A-C — all that decryption
    reads."""

    c1: G1Element  # w^(-k)
    c2: G1Element  # h^(k·∏(γ+H(u)))

    def encode(self) -> bytes:
        return self.c1.encode() + self.c2.encode()


@dataclass(frozen=True)
class IbbeCiphertext(IbbeHeader):
    """Broadcast ciphertext ``(C1, C2)`` plus the auxiliary ``C3``.

    ``C3`` carries no secret (it is computable from PK alone, paper eq. 5)
    and enables the constant-time membership updates of A-E/F/G.
    """

    c3: G1Element  # h^(∏(γ+H(u)))

    def encode(self) -> bytes:
        return super().encode() + self.c3.encode()

    def size_bytes(self) -> int:
        return len(self.encode())

    @classmethod
    def split(cls, group: PairingGroup,
              data: bytes) -> Tuple[bytes, bytes, bytes]:
        """The still-encoded ``(C1, C2, C3)`` of an encoded ciphertext:
        validates the length and decompresses nothing, so a reader pays
        a modular square root only for the components it uses."""
        point_size = 1 + (group.p.bit_length() + 7) // 8
        if len(data) != 3 * point_size:
            raise SchemeError("malformed IBBE ciphertext encoding")
        return (data[:point_size], data[point_size:2 * point_size],
                data[2 * point_size:])

    @classmethod
    def decode(cls, group: PairingGroup, data: bytes) -> "IbbeCiphertext":
        return cls(*(G1Element.decode(group, part)
                     for part in cls.split(group, data)))

    @classmethod
    def decode_header(cls, group: PairingGroup, data: bytes) -> IbbeHeader:
        """Decode only ``(C1, C2)``: decryption never reads C3, so
        decompressing it is wasted work on every member's read path."""
        c1, c2, _ = cls.split(group, data)
        return IbbeHeader(G1Element.decode(group, c1),
                          G1Element.decode(group, c2))


# ---------------------------------------------------------------------------
# Setup and key extraction (identical for IBBE and IBBE-SGX)
# ---------------------------------------------------------------------------

def setup(group: PairingGroup, m: int, rng: Rng
          ) -> Tuple[IbbeMasterSecret, IbbePublicKey]:
    """System setup for maximal broadcast-set size ``m`` — O(m).

    Under IBBE-SGX the bound applies per *partition*, which is why the
    partitioning mechanism shrinks both this setup cost and the public key
    size (paper §IV-C).

    The returned keys carry fixed-base tables for the long-lived elements
    every membership operation exponentiates (``w``, ``v``, ``h``) and
    for the master secret's ``g``, which :func:`extract` raises per
    user; ``h``'s serves the ``m`` exponentiations below first.
    """
    if m < 1:
        raise ParameterError("maximal broadcast size m must be >= 1")
    g = group.g1 ** group.random_scalar(rng)
    gamma = group.random_scalar(rng)
    h = group.g1 ** group.random_scalar(rng)
    g.enable_precomputation()   # extract exponentiates g per user
    h.enable_precomputation()
    w = g ** gamma
    v = group.pair(g, h)
    h_powers: List[G1Element] = [h]
    acc = 1
    for _ in range(m):
        acc = (acc * gamma) % group.q
        h_powers.append(h ** acc)
    pk = IbbePublicKey(group=group, m=m, w=w, v=v, h_powers=tuple(h_powers))
    return IbbeMasterSecret(g=g, gamma=gamma), pk.enable_precomputation()


def extract(msk: IbbeMasterSecret, pk: IbbePublicKey,
            identity: str) -> IbbeUserKey:
    """Extract ``USK_u = g^(1/(γ+H(u)))`` — O(1).

    After :func:`setup` this is the only exponentiation of ``g``, so a
    master secret that arrives untabled (unsealed or imported by an
    enclave) gets ``g``'s fixed-base table here, on the first call.
    """
    h_u = pk.hash_identity(identity)
    exponent = modinv((msk.gamma + h_u) % pk.group.q, pk.group.q)
    msk.g.enable_precomputation()
    return IbbeUserKey(identity=identity, element=msk.g ** exponent)


# ---------------------------------------------------------------------------
# Encryption — the two usage models
# ---------------------------------------------------------------------------

def encrypt_pk(pk: IbbePublicKey, identities: Sequence[str],
               rng: Rng,
               use_multi_exp: bool = False) -> Tuple[GTElement, IbbeCiphertext]:
    """Classic IBBE encryption using only the public key — **O(|S|²)**.

    Expands ``∏(γ + H(u))`` into coefficients of γ (the E_i of eq. 4) and
    assembles C2/C3 from the published ``h^(γ^t)``.

    With ``use_multi_exp=False`` (default) the assembly performs one
    sequential exponentiation per coefficient, matching the cost profile of
    PBC-based implementations like the paper's (PBC has no general
    multi-exponentiation).  ``use_multi_exp=True`` enables an interleaved
    multi-exponentiation that shares doublings across terms — an
    optimization the ablation benchmark quantifies.
    """
    _check_set(pk, identities)
    q = pk.group.q
    k = pk.group.random_scalar(rng)
    coeffs = _expansion_coefficients(pk, identities)   # O(n²)
    if use_multi_exp:
        c2 = pk.group.multi_mul_g1(
            ((k * coeff) % q, pk.h_powers[t])
            for t, coeff in enumerate(coeffs)
        )
        c3 = pk.group.multi_mul_g1(
            (coeff, pk.h_powers[t]) for t, coeff in enumerate(coeffs)
        )
    else:
        c2 = pk.group.g1_identity()
        c3 = pk.group.g1_identity()
        for t, coeff in enumerate(coeffs):
            if coeff == 0:
                continue
            c2 = c2 * (pk.h_powers[t] ** ((k * coeff) % q))
            c3 = c3 * (pk.h_powers[t] ** coeff)
    bk = pk.v ** k
    c1 = pk.w ** (q - k)   # w^(-k)
    return bk, IbbeCiphertext(c1=c1, c2=c2, c3=c3)


def aggregate_exponent(msk: IbbeMasterSecret, q: int,
                       hashes: Iterable[int]) -> int:
    """``∏(γ + H(u)) mod q`` over identity hashes ``H(u)`` — the single
    product in ``Z_q`` that having γ collapses eq. 4's polynomial
    expansion into (paper §IV-B).  It is the discrete log of ``C3`` and
    has γ among its roots: as secret as the master secret."""
    product = 1
    for h_u in hashes:
        product = (product * ((msk.gamma + h_u) % q)) % q
    return product


def encrypt_aggregate(pk: IbbePublicKey,
                      requests: Sequence[Tuple[int, int, bool]],
                      ) -> List[Tuple[GTElement, IbbeHeader,
                                      Optional[G1Element]]]:
    """Eq. 3 for many partitions at once.  Each request is the aggregate
    ``product = ∏(γ + H(u))``, the randomiser ``k`` and ``with_c3``; its
    result is ``bk = v^k``, the header ``C1 = w^(-k)``,
    ``C2 = h^(k·product)`` and, ``with_c3``, ``C3 = h^product`` (else
    ``None``) — fixed (tabled) bases only, whatever the membership
    history, and every ``C1``, ``C2`` and ``C3`` of the call from one
    :meth:`~repro.pairing.group.PairingGroup.pow_many` batch."""
    group = pk.group
    q = group.q
    powers: List[Tuple[G1Element, int]] = []
    for product, k, with_c3 in requests:
        powers += [(pk.w, q - k), (pk.h, product * k % q)]
        if with_c3:
            powers.append((pk.h, product))
    points = iter(group.pow_many(powers))
    return [(pk.v ** k, IbbeHeader(c1=next(points), c2=next(points)),
             next(points) if with_c3 else None)
            for _, k, with_c3 in requests]


def encrypt_msk(msk: IbbeMasterSecret, pk: IbbePublicKey,
                identities: Sequence[str],
                rng: Rng) -> Tuple[GTElement, IbbeCiphertext]:
    """IBBE-SGX encryption using the master secret — **O(|S|)** (eq. 3).

    Having γ collapses the polynomial expansion into a single product in
    Z_q, the complexity cut that makes the scheme practical (paper §IV-B).
    """
    _check_set(pk, identities)
    k = pk.group.random_scalar(rng)
    product = aggregate_exponent(
        msk, pk.group.q, (pk.hash_identity(u) for u in identities))
    [(bk, header, c3)] = encrypt_aggregate(pk, [(product, k, True)])
    assert c3 is not None
    return bk, IbbeCiphertext(header.c1, header.c2, c3)


def reencrypt_pk(pk: IbbePublicKey, identities: Sequence[str],
                 rng: Rng) -> Tuple[GTElement, IbbeCiphertext]:
    """Raw-IBBE membership change: no γ, no stored k — full re-encryption.

    This is what the classic scheme must do on add/remove and is the
    baseline cost the paper's Fig. 2 measures; alias kept separate from
    :func:`encrypt_pk` so call sites document intent.
    """
    return encrypt_pk(pk, identities, rng)


# ---------------------------------------------------------------------------
# Decryption (identical for IBBE and IBBE-SGX) — O(|S|²)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecryptionHint:
    """The member-set-dependent precomputation of A-D decryption.

    ``h^{p_i(γ)}`` and ``Δ⁻¹`` depend only on (user, broadcast set) — not
    on the ciphertext.  Since re-keying (Algorithm 3 runs one per partition
    per revocation) changes the ciphertext but *not* the set, a client that
    caches this hint pays the quadratic expansion once per membership
    change and only one two-term product pairing over cached Miller lines
    per re-key — an optimization on top of the paper quantified by the
    ablation benchmarks.

    ``witness`` is ``h^{P(γ)}``, ``P(x) = ∏_{j≠i}(x + H_j)``: the
    member's witness in the accumulator ``C3 = witness^{γ+H_i}``.
    :func:`update_decryption` builds it at the first membership change
    and carries it from then on; a from-scratch hint has none.
    """

    identity: str
    member_fingerprint: Tuple[str, ...]
    h_pi: G1Element
    delta_inverse: int
    witness: Optional[G1Element] = None


def _others_polynomial(pk: IbbePublicKey, identity: str,
                       identities: Sequence[str]) -> List[int]:
    """Coefficients ``[Δ, a1, ..., 1]`` of ``∏_{j≠i}(x + H_j)`` — O(n²)."""
    if identity not in identities:
        raise SchemeError(f"user {identity!r} is not in the broadcast set")
    others = [u for u in identities if u != identity]
    if len(others) > pk.m:
        raise ParameterError("broadcast set exceeds the system bound m")
    return monic_linear_product(
        [pk.hash_identity(u) for u in others], pk.group.q)


def decryption_witness(pk: IbbePublicKey, identity: str,
                       identities: Sequence[str]) -> G1Element:
    """``h^{P(γ)}`` from the public key — the same expansion as the
    hint's, one term longer."""
    coeffs = _others_polynomial(pk, identity, identities)
    return pk.group.multi_mul_g1(zip(coeffs, pk.h_powers))


def prepare_decryption_public(pk: IbbePublicKey, identity: str,
                              identities: Sequence[str]) -> DecryptionHint:
    """:func:`prepare_decryption` from the identity alone.

    The hint depends only on public material (the public key and the
    member identities), never on the user's secret key.
    """
    q = pk.group.q
    coeffs = _others_polynomial(pk, identity, identities)
    delta = coeffs[0]
    # h^{p_i(γ)} = ∏_{t>=1} (h^{γ^(t-1)})^{a_t}
    h_pi = pk.group.multi_mul_g1(
        (coeffs[t], pk.h_powers[t - 1]) for t in range(1, len(coeffs))
    )
    return DecryptionHint(
        identity=identity,
        member_fingerprint=tuple(identities),
        h_pi=h_pi,
        delta_inverse=modinv(delta, q),
    )


def prepare_decryption(pk: IbbePublicKey, user_key: IbbeUserKey,
                       identities: Sequence[str]) -> DecryptionHint:
    """The O(|S|²) part of decryption, reusable across re-keys."""
    return prepare_decryption_public(pk, user_key.identity, identities)


def update_decryption(pk: IbbePublicKey, hint: DecryptionHint,
                      identities: Sequence[str], c3_old: bytes,
                      c3_new: bytes) -> Optional[DecryptionHint]:
    """The hint for ``identities`` from the hint for a set one added
    and / or one removed identity away — **O(1)**: two variable-base
    ladders and one point decompression per changed identity, whatever
    the set size.  ``None`` when that is not the relation between the
    sets (or the hint's owner is not in the new one); the caller then
    prepares from scratch.

    ``C3`` is a bilinear accumulator of the set and the hint's
    ``W = h^{P(γ)}`` the member's witness in it, so this is the witness
    update of Nguyen (CT-RSA 2005) applied to ``W`` and to
    ``A = h_pi = h^{(P(γ)−Δ)/γ}``.  Adding *a*: ``A' = W·A^{H_a}``,
    ``W' = C3_old·W^{H_a−H_i}``.  Removing *r*:
    ``W' = (W/C3_new)^{1/(H_r−H_i)}``, ``A' = (A/W')^{1/H_r}``.  ``c3_old``
    and ``c3_new`` are the encoded ``C3`` of the old and the new set's
    ciphertexts; every operand is public.  The result is right only if
    they are: the caller confirms it by decrypting (the Miller lines of
    ``A'`` are its subgroup test, the envelope's tag the rest).
    """
    old, new = set(hint.member_fingerprint), set(identities)
    added, removed = new - old, old - new
    if (hint.identity not in new or len(added) > 1 or len(removed) > 1
            or len(new) != len(identities) or len(new) > pk.m + 1
            or len(old) != len(hint.member_fingerprint)):
        return None
    group, q = pk.group, pk.group.q
    h_i = pk.hash_identity(hint.identity)
    a, delta_inverse = hint.h_pi, hint.delta_inverse
    w = hint.witness
    if w is None and (added or removed):
        w = decryption_witness(pk, hint.identity, hint.member_fingerprint)
    for h_a in map(pk.hash_identity, added):
        a, w = w * a ** h_a, G1Element.decode(group, c3_old) * w ** (h_a - h_i)
        delta_inverse = delta_inverse * modinv(h_a, q) % q
    for h_r in map(pk.hash_identity, removed):
        w = (w / G1Element.decode(group, c3_new)) ** modinv(h_r - h_i, q)
        a = (a / w) ** modinv(h_r, q)
        delta_inverse = delta_inverse * h_r % q
    return DecryptionHint(hint.identity, tuple(identities), a,
                          delta_inverse, w)


def decrypt_with_hint(pk: IbbePublicKey, user_key: IbbeUserKey,
                      hint: DecryptionHint,
                      ciphertext: IbbeHeader) -> GTElement:
    """The O(1) part of decryption: one two-term product pairing and one
    GT exponent.

    ``e(C1, h^{p_i(γ)}) · e(USK_i, C2)`` is computed as
    ``pair(h^{p_i(γ)}, C1, USK_i, C2)`` — the pairing is symmetric, and
    with the hint's element and the user key first both Miller line
    tables are cached on long-lived objects, so a re-key (new ``C1``,
    ``C2``, same member set) pays no point arithmetic.  The Miller ladder
    used to run over ``C1`` and reject it outside the order-``q``
    subgroup; that test is now explicit.
    """
    if hint.identity != user_key.identity:
        raise SchemeError("decryption hint belongs to a different user")
    group = pk.group
    # As before, a term with an identity argument (h_pi of a singleton
    # set) drops out unexamined.
    if not (hint.h_pi.is_identity()
            or (ciphertext.c1.point * group.q).is_infinity()):
        raise PairingError("C1 is not in the order-q subgroup")
    paired = group.pair(hint.h_pi, ciphertext.c1,
                        user_key.element, ciphertext.c2)
    return paired ** hint.delta_inverse


def decrypt(pk: IbbePublicKey, user_key: IbbeUserKey,
            identities: Sequence[str],
            ciphertext: IbbeHeader) -> GTElement:
    """Recover ``bk`` as a member of the broadcast set (paper A-D).

    Computes ``bk = (e(C1, h^{p_i(γ)}) · e(USK_i, C2))^{1/Δ}`` where
    ``p_i(γ) = (∏_{j≠i}(γ+H_j) − Δ)/γ`` and ``Δ = ∏_{j≠i} H_j``.  The
    polynomial expansion is quadratic in ``|S|`` — the cost the paper's
    partitioning mechanism bounds by the partition size.  (Callers that
    decrypt the same set repeatedly should use :func:`prepare_decryption`
    + :func:`decrypt_with_hint`.)
    """
    hint = prepare_decryption(pk, user_key, identities)
    return decrypt_with_hint(pk, user_key, hint, ciphertext)


# ---------------------------------------------------------------------------
# O(1) membership updates (require γ — enclave only) and re-keying
# ---------------------------------------------------------------------------

def add_user_msk(msk: IbbeMasterSecret, pk: IbbePublicKey,
                 ciphertext: IbbeCiphertext,
                 identity: str) -> IbbeCiphertext:
    """Add ``identity`` to the broadcast set — **O(1)** (paper A-E).

    The broadcast key is unchanged (joining users may read prior secrets by
    design); only C2 and C3 absorb the new factor ``γ + H(u)``.
    """
    factor = (msk.gamma + pk.hash_identity(identity)) % pk.group.q
    return IbbeCiphertext(
        c1=ciphertext.c1,
        c2=ciphertext.c2 ** factor,
        c3=ciphertext.c3 ** factor,
    )


def remove_user_msk(msk: IbbeMasterSecret, pk: IbbePublicKey,
                    ciphertext: IbbeCiphertext, identity: str,
                    rng: Rng) -> Tuple[GTElement, IbbeCiphertext]:
    """Remove ``identity`` and re-key — **O(1)** (paper A-F, eqs. 6-7).

    ``C3 ← C3^(1/(γ+H(u)))`` divides the removed user out of the aggregate,
    then a fresh ``k`` rebuilds ``(bk, C1, C2)``.
    """
    q = pk.group.q
    factor_inv = modinv((msk.gamma + pk.hash_identity(identity)) % q, q)
    return rekey(pk, replace(ciphertext, c3=ciphertext.c3 ** factor_inv), rng)


def rekey(pk: IbbePublicKey, ciphertext: IbbeCiphertext,
          rng: Rng) -> Tuple[GTElement, IbbeCiphertext]:
    """Refresh ``bk`` without membership change — **O(1)** (paper A-G).

    Needs only C3 and the public key, so it is valid under both usage
    models.  (The enclave, holding γ, re-keys from the member list
    instead: C3 is a variable base no table serves.)
    """
    q = pk.group.q
    k = pk.group.random_scalar(rng)
    c3 = ciphertext.c3
    return pk.v ** k, IbbeCiphertext(c1=pk.w ** (q - k), c2=c3 ** k, c3=c3)


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def check_broadcast_set(pk: IbbePublicKey,
                        identities: Sequence[str]) -> None:
    """Validate a broadcast set against the public key (non-empty, within
    the system bound ``m``, duplicate-free).  Raises on violation.

    The same checks :func:`encrypt_pk` / :func:`encrypt_msk` apply; public
    so callers that assemble ciphertexts through the parallel engine's
    kernels can validate before dispatching work."""
    if not identities:
        raise SchemeError("broadcast set must not be empty")
    if len(identities) > pk.m:
        raise ParameterError(
            f"broadcast set of {len(identities)} exceeds system bound m={pk.m}"
        )
    if len(set(identities)) != len(identities):
        raise SchemeError("broadcast set contains duplicate identities")


_check_set = check_broadcast_set


def _expansion_coefficients(pk: IbbePublicKey,
                            identities: Sequence[str]) -> List[int]:
    hashes = [pk.hash_identity(u) for u in identities]
    return monic_linear_product(hashes, pk.group.q)
