"""Schoolbook RSA for the simulated PKI and C&C data sealing.

Flame's stolen data is "encrypted using a public key available on the
server" whose private half only the attack coordinator holds (§III.B);
certificates in :mod:`repro.certs` carry RSA signatures over a named
digest.  Keys are small (default 512-bit modulus) because the simulation
needs speed, not security.

Keys derive from fixed labels, never from a seed, so each process derives
a label's key once (:func:`generate_keypair` is memoised) and every
campaign replica in it shares the same key objects.  Key objects are
therefore immutable.
"""

import functools
import hashlib

from repro.crypto.hashes import digest as _digest


def _miller_rabin(candidate, witnesses):
    """Deterministic-enough Miller-Rabin test with the given witnesses."""
    if candidate < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if candidate % small == 0:
            return candidate == small
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        a %= candidate
        if a in (0, 1, candidate - 1):
            continue
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _derive_prime(seed_material, bits):
    """Deterministically derive a ``bits``-bit prime from seed material.

    We stretch the seed with SHA-256 counters, set the top two bits and
    the low bit, and walk forward to the next prime.  Deterministic key
    generation keeps whole simulations reproducible from a single seed.
    """
    counter = 0
    while True:
        stream = b""
        while len(stream) * 8 < bits:
            stream += hashlib.sha256(
                b"%s|%d|%d" % (seed_material, counter, len(stream))
            ).digest()
        candidate = int.from_bytes(stream[: (bits + 7) // 8], "big")
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        candidate &= (1 << bits) - 1
        for _ in range(4096):
            if _miller_rabin(candidate, _MR_WITNESSES):
                return candidate
            candidate += 2
        counter += 1


class _Immutable:
    """Base for key objects: attributes are set once, in ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


class RsaPublicKey(_Immutable):
    """RSA public half: verify signatures, seal (encrypt) small payloads."""

    __slots__ = ("modulus", "exponent")

    def __init__(self, modulus, exponent=65537):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "exponent", exponent)

    def __reduce__(self):
        return RsaPublicKey, (self.modulus, self.exponent)

    @property
    def bits(self):
        return self.modulus.bit_length()

    def fingerprint(self):
        """Short stable identifier for this key."""
        material = b"%d:%d" % (self.modulus, self.exponent)
        return hashlib.sha256(material).hexdigest()[:16]

    def verify(self, data, signature, algorithm="sha256"):
        """True if ``signature`` is a valid signature of ``data``.

        The scheme is textbook "hash-then-exponentiate": the signature is
        valid when sig^e mod n equals the digest of the data.  Crucially,
        the *security* of the scheme is the security of the digest — a
        signature made over a ``weakmd5`` collision of the data verifies
        just as happily, which is the flaw Fig. 3 exploits.
        """
        expected = int.from_bytes(_digest(algorithm, data), "big") % self.modulus
        return pow(signature, self.exponent, self.modulus) == expected

    def encrypt(self, plaintext):
        """Seal a small payload (must fit in the modulus)."""
        value = int.from_bytes(b"\x01" + plaintext, "big")
        if value >= self.modulus:
            raise ValueError(
                "plaintext too large for %d-bit modulus" % self.bits
            )
        return pow(value, self.exponent, self.modulus)

    def __eq__(self, other):
        return (
            isinstance(other, RsaPublicKey)
            and self.modulus == other.modulus
            and self.exponent == other.exponent
        )

    def __hash__(self):
        return hash((self.modulus, self.exponent))

    def __repr__(self):
        return "RsaPublicKey(bits=%d, fp=%s)" % (self.bits, self.fingerprint())


class RsaKeyPair(_Immutable):
    """Full RSA key pair: everything the public key does, plus sign/unseal.

    Private operations run through the CRT: ``x^d mod n`` is recombined
    from ``x^dp mod p`` and ``x^dq mod q`` (Garner), the same integer at
    about a third of the cost.  ``dp``, ``dq`` and ``qinv`` derive from
    ``p`` and ``q``, so a key still pickles as ``(p, q, e)``.
    """

    __slots__ = ("_p", "_q", "_d", "_dp", "_dq", "_qinv", "public")

    def __init__(self, p, q, exponent=65537):
        if p == q:
            raise ValueError("p and q must differ")
        phi = (p - 1) * (q - 1)
        d = pow(exponent, -1, phi)
        object.__setattr__(self, "_p", p)
        object.__setattr__(self, "_q", q)
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_dp", d % (p - 1))
        object.__setattr__(self, "_dq", d % (q - 1))
        object.__setattr__(self, "_qinv", pow(q, -1, p))
        object.__setattr__(self, "public", RsaPublicKey(p * q, exponent))

    def __reduce__(self):
        return RsaKeyPair, (self._p, self._q, self.public.exponent)

    @property
    def modulus(self):
        return self.public.modulus

    def _private(self, value):
        """``value^d mod n`` through the CRT."""
        p, q = self._p, self._q
        low = pow(value, self._dq, q)
        return low + (self._qinv * (pow(value, self._dp, p) - low) % p) * q

    def sign(self, data, algorithm="sha256"):
        """Sign the digest of ``data`` under the named algorithm."""
        value = int.from_bytes(_digest(algorithm, data), "big") % self.modulus
        return self._private(value)

    def decrypt(self, ciphertext):
        """Unseal a payload produced by :meth:`RsaPublicKey.encrypt`."""
        value = self._private(ciphertext)
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        if not raw.startswith(b"\x01"):
            raise ValueError("decryption failed: bad framing")
        return raw[1:]


def generate_keypair(label, bits=512):
    """Deterministically generate a key pair from a ``str`` or ``bytes`` label.

    Two calls with the same label yield the same key, so a simulation can
    reconstruct "the coordinator's key" anywhere without shared state.
    Within a process they yield the very same (immutable) object: a
    label's key is derived once and then served from a cache.
    """
    if bits < 128:
        raise ValueError("modulus below 128 bits cannot frame payloads")
    label_bytes = label.encode("utf-8") if isinstance(label, str) else label
    return _derive_keypair(label_bytes, bits)


@functools.cache
def _derive_keypair(label_bytes, bits):
    """Derive the key pair for ``label_bytes``; memoised per process."""
    half = bits // 2
    p = _derive_prime(b"p:" + label_bytes, half)
    q = _derive_prime(b"q:" + label_bytes, bits - half)
    if p == q:
        q = _derive_prime(b"q2:" + label_bytes, bits - half)
    return RsaKeyPair(p, q)
