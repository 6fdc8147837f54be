"""Property-based tests: crypto invariants."""

from hypothesis import example, given, settings, strategies as st

from repro.crypto import (
    Rc4Cipher,
    SealedBlob,
    forge_collision_block,
    generate_keypair,
    seal,
    unseal,
    weak_digest,
    xor_decrypt,
    xor_encrypt,
)
from repro.crypto.ciphers import xor_stream
from repro.crypto.padded import Padded, head_of, pad

#: One session-wide key pair: RSA generation dominates test time.
_KEYPAIR = generate_keypair("property-tests")


@given(data=st.binary(max_size=2048),
       key=st.binary(min_size=1, max_size=64))
def test_xor_round_trip(data, key):
    assert xor_decrypt(xor_encrypt(data, key), key) == data


@given(data=st.binary(max_size=4096),
       key=st.binary(min_size=1, max_size=64))
def test_xor_stream_equals_reference(data, key):
    assert xor_stream(data, key) == xor_encrypt(data, key)


@given(data=st.binary(max_size=2048),
       key=st.binary(min_size=1, max_size=64))
def test_rc4_round_trip(data, key):
    assert Rc4Cipher.decrypt(key, Rc4Cipher.encrypt(key, data)) == data


@given(data=st.binary(max_size=1024))
def test_weak_digest_deterministic_and_sized(data):
    assert weak_digest(data) == weak_digest(data)
    assert len(weak_digest(data)) == 16


@given(prefix_blocks=st.integers(min_value=0, max_value=8),
       prefix_fill=st.binary(min_size=16, max_size=16),
       target_source=st.binary(max_size=256))
def test_forged_collision_always_lands(prefix_blocks, prefix_fill,
                                       target_source):
    prefix = prefix_fill * prefix_blocks
    target = weak_digest(target_source)
    block = forge_collision_block(prefix, target)
    assert weak_digest(prefix + block) == target


@settings(max_examples=25, deadline=None)
@given(message=st.binary(min_size=1, max_size=512))
def test_rsa_sign_verify_property(message):
    signature = _KEYPAIR.sign(message)
    assert _KEYPAIR.public.verify(message, signature)
    assert not _KEYPAIR.public.verify(message + b"x", signature)


@settings(max_examples=25, deadline=None)
@given(payload=st.binary(max_size=4096),
       nonce=st.binary(max_size=16))
def test_sealed_blob_round_trip_property(payload, nonce):
    blob = seal(_KEYPAIR.public, payload, nonce=nonce)
    assert unseal(_KEYPAIR, blob) == payload
    wire = blob.to_bytes()
    assert unseal(_KEYPAIR, SealedBlob.from_bytes(wire)) == payload


# -- sealing a head plus a zero run ----------------------------------------------
# A Padded plaintext must seal to the same wire, byte for byte, as the
# head with real zero bytes appended, and unseal back to a count.

_RUNS = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=17, max_value=4096).filter(lambda n: n % 16),
    st.integers(min_value=0, max_value=4096),
)


@settings(max_examples=60, deadline=None)
@given(head=st.binary(max_size=300), run=_RUNS, nonce=st.binary(max_size=16))
@example(head=b'{"kind": "files"}', run=3 * 1024 * 1024 + 7, nonce=b"uid|1")
@example(head=b"", run=5, nonce=b"")
def test_sealed_padded_matches_plain_bytes(head, run, nonce):
    plain = head + bytes(run)
    blob = seal(_KEYPAIR.public, pad(head, run), nonce=nonce)
    reference = seal(_KEYPAIR.public, plain, nonce=nonce)
    wire = blob.to_bytes()
    assert len(wire) == len(reference.to_bytes())
    assert bytes(wire) == reference.to_bytes()
    opened = unseal(_KEYPAIR, SealedBlob.from_bytes(wire))
    assert len(opened) == len(plain)
    assert head_of(opened) == head
    if run:
        assert (opened.run, opened.fill) == (run, b"\x00")
    else:
        assert opened == head


@given(head=st.binary(max_size=40), run=st.integers(min_value=0, max_value=80),
       fill=st.binary(min_size=1, max_size=20),
       start=st.integers(min_value=-150, max_value=150),
       stop=st.integers(min_value=-150, max_value=150),
       prefix=st.binary(max_size=10))
def test_padded_operations_match_bytes(head, run, fill, start, stop, prefix):
    value = pad(head, run, fill)
    whole = bytes(value)
    assert len(value) == len(whole) == len(head) + run
    assert bytes(value[start:stop]) == whole[start:stop]
    assert bytes(prefix + value) == prefix + whole
    if isinstance(value, Padded):
        assert b"".join(value.chunks()) == whole
        assert value.split(b"\x00", 1) == whole.split(b"\x00", 1)
