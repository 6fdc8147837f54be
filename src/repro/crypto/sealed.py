"""Hybrid public-key sealing for stolen data.

§III.B: "The data stolen ... is encrypted using a public key available on
the server. The corresponding private key is only known by the attack
coordinator in the attack center. Even the admin and operator do not know
the private key and hence do not have access to the stolen data."

RSA can only seal a modulus-sized payload, so (as real systems do) a
random session key is sealed with RSA and the body is encrypted with a
stream cipher under that key.

A plaintext may be a :class:`~repro.crypto.padded.Padded` value, as
Flame's exfil entries are.  Its run is hashed in pieces and XORed as a
pattern, so sealing, the wire and unsealing carry it as a count.
"""

import hashlib
import math

from repro.crypto.ciphers import xor_stream
from repro.crypto.padded import Padded, pad
from repro.pe.format import ByteReader, pack_bytes


def _xor(data, key):
    """:func:`xor_stream` over ``bytes`` or a :class:`Padded` value.

    A run XORed with a repeating key is a run of the two patterns
    combined, aligned at the run's offset, so only the head and one
    period of the run go through :func:`xor_stream`.
    """
    if not isinstance(data, Padded):
        return xor_stream(data, key)
    offset = len(data.head) % len(key)
    period = math.lcm(len(data.fill), len(key))
    fill = xor_stream(data.fill * (period // len(data.fill)),
                      key[offset:] + key[:offset])
    return pad(xor_stream(data.head, key), data.run, fill)


class SealedBlob:
    """An encrypted payload only the private-key holder can open.

    ``ciphertext`` and :meth:`to_bytes` are :class:`Padded` when the
    plaintext was; :meth:`from_bytes` takes either form.
    """

    def __init__(self, sealed_key, ciphertext):
        self.sealed_key = sealed_key
        self.ciphertext = ciphertext

    @property
    def size(self):
        return len(self.ciphertext)

    def to_bytes(self):
        key_bytes = self.sealed_key.to_bytes(
            (self.sealed_key.bit_length() + 7) // 8 or 1, "big"
        )
        return pack_bytes(key_bytes) + pack_bytes(self.ciphertext)

    @classmethod
    def from_bytes(cls, blob):
        reader = ByteReader(blob)
        sealed_key = int.from_bytes(reader.length_prefixed_bytes(), "big")
        ciphertext = reader.length_prefixed_bytes()
        return cls(sealed_key, ciphertext)

    def __repr__(self):
        return "SealedBlob(%d bytes)" % self.size


def seal(public_key, plaintext, nonce=b""):
    """Seal ``plaintext`` to ``public_key``.

    The session key is derived deterministically from the plaintext and
    a caller-supplied nonce so simulations stay reproducible; it is still
    only recoverable via the private key.
    """
    hasher = hashlib.sha256(b"session|" + nonce + b"|")
    if isinstance(plaintext, Padded):
        for chunk in plaintext.chunks():
            hasher.update(chunk)
    else:
        hasher.update(plaintext)
    session_key = hasher.digest()[:16]
    ciphertext = _xor(plaintext, session_key)
    sealed_key = public_key.encrypt(session_key)
    return SealedBlob(sealed_key, ciphertext)


def unseal(keypair, blob):
    """Open a :class:`SealedBlob` with the coordinator's private key."""
    session_key = keypair.decrypt(blob.sealed_key)
    return _xor(blob.ciphertext, session_key)
