"""Symmetric ciphers used by the malware models.

Shamoon's resources are protected by "a simple Xor cipher" (§IV); Flame's
on-disk strings historically used byte-substitution/stream schemes, which
we model with a classic RC4 keystream.
"""


def xor_encrypt(data, key):
    """Encrypt ``data`` with a repeating-key XOR cipher.

    This is exactly the scheme the paper attributes to Shamoon's encrypted
    PE resources.  XOR is an involution, so :func:`xor_decrypt` is an
    alias for this function.
    """
    if not key:
        raise ValueError("XOR key must be non-empty")
    if isinstance(key, int):
        key = bytes([key])
    return bytes(byte ^ key[i % len(key)] for i, byte in enumerate(data))


#: Decryption is the same operation for XOR.
xor_decrypt = xor_encrypt


def xor_stream(data, key):
    """Repeating-key XOR tuned for large payloads.

    Semantically identical to :func:`xor_encrypt` but runs at C speed by
    XOR-ing whole big integers.  Sealing passes it only literal bytes: a
    stolen volume's zero run stays a count
    (:mod:`repro.crypto.sealed`).
    """
    if not key:
        raise ValueError("XOR key must be non-empty")
    if not data:
        return b""
    repeated = key * (len(data) // len(key) + 1)
    keystream = repeated[: len(data)]
    value = int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    return value.to_bytes(len(data), "big")


class Rc4Cipher:
    """Classic RC4 stream cipher (KSA + PRGA).

    Stateful: encrypting two messages in a row continues the keystream,
    which mirrors how a stream-cipher session over a C&C channel behaves.
    Create a fresh instance (or call :meth:`reset`) to restart.
    """

    def __init__(self, key):
        if not key:
            raise ValueError("RC4 key must be non-empty")
        self._key = bytes(key)
        self.reset()

    def reset(self):
        """Re-run the key schedule, restarting the keystream."""
        key = self._key
        state = list(range(256))
        j = 0
        for i in range(256):
            j = (j + state[i] + key[i % len(key)]) % 256
            state[i], state[j] = state[j], state[i]
        self._state = state
        self._i = 0
        self._j = 0

    def process(self, data):
        """Encrypt or decrypt ``data`` (the operations are identical)."""
        state = self._state
        i, j = self._i, self._j
        out = bytearray(len(data))
        for index, byte in enumerate(data):
            i = (i + 1) % 256
            j = (j + state[i]) % 256
            state[i], state[j] = state[j], state[i]
            out[index] = byte ^ state[(state[i] + state[j]) % 256]
        self._i, self._j = i, j
        return bytes(out)

    @classmethod
    def encrypt(cls, key, data):
        """One-shot encryption with a fresh keystream."""
        return cls(key).process(data)

    @classmethod
    def decrypt(cls, key, data):
        """One-shot decryption with a fresh keystream."""
        return cls(key).process(data)
