"""Schoolbook RSA: signing, sealing, determinism, the per-process key cache."""

import copy
import hashlib
import pickle
import random

import pytest

from repro.core.ensemble import CAMPAIGNS, CampaignSpec, run_replica
from repro.crypto import RsaKeyPair, generate_keypair, rsa


def test_sign_verify_round_trip():
    keypair = generate_keypair("tester")
    signature = keypair.sign(b"message")
    assert keypair.public.verify(b"message", signature)


def test_tampered_message_fails_verification():
    keypair = generate_keypair("tester")
    signature = keypair.sign(b"message")
    assert not keypair.public.verify(b"messagE", signature)


def test_wrong_key_fails_verification():
    signature = generate_keypair("a").sign(b"m")
    assert not generate_keypair("b").public.verify(b"m", signature)


def test_signature_over_weak_digest_transfers_to_collision():
    # The core of the Fig. 3 forgery: a signature binds to the digest,
    # so any weak-digest collision inherits it.
    from repro.crypto import forge_collision_block, weak_digest

    keypair = generate_keypair("microsoft-licensing")
    legit = b"legit tbs".ljust(16, b"\x00")
    signature = keypair.sign(legit, algorithm="weakmd5")
    rogue_prefix = b"rogue tbs bytes".ljust(32, b"\x00")
    rogue = rogue_prefix + forge_collision_block(rogue_prefix, weak_digest(legit))
    assert keypair.public.verify(rogue, signature, algorithm="weakmd5")
    # Under sha256 the transfer fails.
    sha_sig = keypair.sign(legit, algorithm="sha256")
    assert not keypair.public.verify(rogue, sha_sig, algorithm="sha256")


def test_encrypt_decrypt_round_trip():
    keypair = generate_keypair("sealer")
    ciphertext = keypair.public.encrypt(b"session-key-16b!")
    assert keypair.decrypt(ciphertext) == b"session-key-16b!"


def test_encrypt_rejects_oversized_payload():
    keypair = generate_keypair("sealer")
    with pytest.raises(ValueError):
        keypair.public.encrypt(b"x" * 128)


def test_deterministic_generation():
    assert generate_keypair("same").modulus == generate_keypair("same").modulus
    assert generate_keypair("a").modulus != generate_keypair("b").modulus


def test_modulus_size():
    keypair = generate_keypair("size-check", bits=512)
    assert 500 <= keypair.public.bits <= 512


def test_fingerprint_stability_and_uniqueness():
    a = generate_keypair("fp-a").public
    b = generate_keypair("fp-b").public
    assert a.fingerprint() == a.fingerprint()
    assert a.fingerprint() != b.fingerprint()


def test_equal_public_keys():
    # Distinct objects: generate_keypair would hand back the cached one.
    a = generate_keypair("eq")
    b = RsaKeyPair(a._p, a._q)
    assert a.public is not b.public
    assert a.public == b.public and hash(a.public) == hash(b.public)


def test_keypair_rejects_equal_primes():
    with pytest.raises(ValueError):
        RsaKeyPair(13, 13)


def test_tiny_modulus_rejected():
    # On every call, even for a label whose valid-size key is cached,
    # and without touching the cache.
    generate_keypair("tiny", bits=128)
    before = rsa._derive_keypair.cache_info()
    for _ in range(3):
        with pytest.raises(ValueError):
            generate_keypair("tiny", bits=64)
    assert rsa._derive_keypair.cache_info() == before


def _assert_same_key(key, other):
    assert key._p == other._p
    assert key._q == other._q
    assert key._d == other._d
    assert key.modulus == other.modulus
    assert key.public == other.public


# -- immutable keys ------------------------------------------------------------
# generate_keypair hands every caller in a process the same key object,
# so a key must not be changeable through any one of them.

@pytest.mark.parametrize("attribute", ("modulus", "exponent"))
def test_public_key_attributes_are_read_only(attribute):
    public = generate_keypair("frozen").public
    with pytest.raises(AttributeError):
        setattr(public, attribute, 3)
    with pytest.raises(AttributeError):
        delattr(public, attribute)
    with pytest.raises(AttributeError):
        public.extra = 1


@pytest.mark.parametrize("attribute", ("public", "_p", "_q", "_d",
                                       "_dp", "_dq", "_qinv"))
def test_keypair_attributes_are_read_only(attribute):
    keypair = generate_keypair("frozen")
    with pytest.raises(AttributeError):
        setattr(keypair, attribute, 3)
    with pytest.raises(AttributeError):
        delattr(keypair, attribute)
    with pytest.raises(AttributeError):
        keypair.extra = 1


@pytest.mark.parametrize("copier", (
    lambda key: pickle.loads(pickle.dumps(key)),
    copy.deepcopy,
), ids=("pickle", "deepcopy"))
def test_keys_survive_pickle_and_deepcopy(copier):
    keypair = generate_keypair("pickled")
    clone = copier(keypair)
    _assert_same_key(clone, keypair)
    assert copier(keypair.public) == keypair.public
    assert clone.decrypt(keypair.public.encrypt(b"sealed")) == b"sealed"


# -- the key cache is invisible ------------------------------------------------

def test_every_campaign_label_matches_an_uncached_derivation(monkeypatch):
    derived = []
    cached_derive = rsa._derive_keypair

    def recording(label_bytes, bits):
        derived.append((label_bytes, bits))
        return cached_derive(label_bytes, bits)

    monkeypatch.setattr(rsa, "_derive_keypair", recording)
    for name in sorted(CAMPAIGNS):
        before = len(derived)
        run_replica(CampaignSpec.quick(name), 0, base_seed=7)
        assert len(derived) > before, name
    monkeypatch.undo()

    for label_bytes, bits in sorted(set(derived)):
        cached = generate_keypair(label_bytes, bits)
        fresh = rsa._derive_keypair.__wrapped__(label_bytes, bits)
        assert fresh is not cached
        _assert_same_key(cached, fresh)


def test_repeated_calls_share_one_cached_object():
    # A str or bytes label, positional or keyword bits: one entry.
    rsa._derive_keypair.cache_clear()
    key = generate_keypair("spelling")
    assert generate_keypair("spelling") is key
    assert generate_keypair(b"spelling") is key
    assert generate_keypair("spelling", 512) is key
    assert generate_keypair(b"spelling", bits=512) is key
    info = rsa._derive_keypair.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 4, 1)
    # A different size is a different key.
    assert generate_keypair("spelling", bits=256).modulus != key.modulus
    assert rsa._derive_keypair.cache_info().currsize == 2



# -- private operations through the CRT ----------------------------------------
# sign and decrypt recombine x^dp mod p and x^dq mod q; they must give
# the textbook x^d mod n for every input.

_CRT_LABELS = (("coordinator:attack-center", 512), ("crt-a", 512),
               ("crt-b", 256), ("crt-c", 1024))


@pytest.mark.parametrize("label,bits", _CRT_LABELS)
def test_crt_private_operations_match_textbook(label, bits):
    keypair = generate_keypair(label, bits)
    n, d = keypair.modulus, keypair._d
    rng = random.Random("crt|%s|%d" % (label, bits))
    for _ in range(60):
        message = rng.randbytes(rng.randrange(0, 64))
        digest = int.from_bytes(hashlib.sha256(message).digest(), "big") % n
        assert keypair.sign(message) == pow(digest, d, n)
        session_key = rng.randbytes(16)
        ciphertext = keypair.public.encrypt(session_key)
        assert keypair.decrypt(ciphertext) == session_key
        textbook = pow(ciphertext, d, n)
        assert keypair.decrypt(ciphertext) == textbook.to_bytes(
            (textbook.bit_length() + 7) // 8, "big")[1:]
        value = rng.randrange(n)
        assert keypair._private(value) == pow(value, d, n)
    for value in (0, 1, keypair._p, keypair._q, n - 1):
        assert keypair._private(value) == pow(value, d, n)


def test_crt_key_pickles_as_its_primes():
    keypair = generate_keypair("crt-a")
    assert keypair.__reduce__() == (
        RsaKeyPair, (keypair._p, keypair._q, keypair.public.exponent))
    clone = pickle.loads(pickle.dumps(keypair))
    _assert_same_key(clone, keypair)
    assert ((clone._dp, clone._dq, clone._qinv)
            == (keypair._dp, keypair._dq, keypair._qinv))
    ciphertext = keypair.public.encrypt(b"sealed")
    assert clone.decrypt(ciphertext) == keypair.decrypt(ciphertext)
    assert clone.sign(b"m") == keypair.sign(b"m")
