"""Property-based tests: filesystem and registry invariants."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.winsim import Registry, VirtualFileSystem
from repro.winsim.vfs import VfsError, normalize_path

_name = st.text(alphabet="abcdefgh0123456789", min_size=1, max_size=8)
_path = st.builds(
    lambda parts, name, ext: "c:\\" + "\\".join(parts + [name + "." + ext]),
    st.lists(_name, max_size=3), _name, st.sampled_from(["txt", "docx", "exe"]),
)


@settings(max_examples=60, deadline=None)
@given(entries=st.dictionaries(_path, st.binary(max_size=128), max_size=12))
def test_write_read_consistency(entries):
    vfs = VirtualFileSystem()
    for path, data in entries.items():
        vfs.write(path, data)
    for path, data in entries.items():
        assert vfs.read(path) == data
        assert vfs.exists(path.upper())
    # Walk finds exactly the user files (case-folded paths dedupe).
    canonical = {normalize_path(p) for p in entries}
    user_files = {r.path for r in vfs.walk("c:")
                  if r.origin is None and not r.path.startswith("c:\\windows")}
    assert user_files == {p for p in canonical
                          if not p.startswith("c:\\windows")}


_overwrites = st.lists(
    st.tuples(st.integers(min_value=0, max_value=450),
              st.binary(max_size=64)),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(path=_path, original=st.binary(max_size=200),
       zeros=st.integers(min_value=0, max_value=200),
       overwrites=_overwrites, readonly=st.booleans())
# Head "abcdef" plus a 20-byte zero tail, overwritten inside the head,
# inside the tail, straddling both, past the end, and with no bytes.
@example(path="c:\\a.txt", original=b"abcdef", zeros=20,
         overwrites=[(1, b"XY"), (10, b"tail"), (4, b"straddle"),
                     (40, b"past"), (3, b""), (60, b"")], readonly=False)
@example(path="c:\\a.txt", original=b"abc", zeros=8,
         overwrites=[(5, b"X")], readonly=True)
def test_overwrite_data_length_invariant(path, original, zeros, overwrites,
                                         readonly):
    """A file of ``original`` bytes plus a zero tail matches a bytearray
    model under any sequence of in-place overwrites, and a read-only
    one refuses them and keeps its bytes."""
    vfs = VirtualFileSystem()
    vfs.write(path, original, size=len(original) + zeros)
    model = bytearray(original) + bytearray(zeros)
    if readonly:
        vfs.get(path).attributes.readonly = True
    for offset, patch in overwrites:
        if readonly:
            with pytest.raises(VfsError):
                vfs.overwrite_data(path, patch, offset=offset)
        else:
            vfs.overwrite_data(path, patch, offset=offset)
            end = offset + len(patch)
            model.extend(bytes(max(0, end - len(model))))
            model[offset:end] = patch
        assert vfs.get(path).size == len(model)
        assert vfs.read(path) == model


def test_write_size_below_data_raises():
    vfs = VirtualFileSystem()
    with pytest.raises(VfsError):
        vfs.write("c:\\a.txt", b"abcd", size=3)
    assert not vfs.exists("c:\\a.txt")


@settings(max_examples=40, deadline=None)
@given(paths=st.lists(_path, min_size=1, max_size=8, unique=True))
def test_delete_removes_exactly_one(paths):
    vfs = VirtualFileSystem()
    for path in paths:
        vfs.write(path, b"x")
    canonical = {normalize_path(p) for p in paths}
    victim = sorted(canonical)[0]
    before = vfs.file_count()
    vfs.delete(victim)
    assert vfs.file_count() == before - 1
    assert not vfs.exists(victim)
    for path in canonical - {victim}:
        assert vfs.exists(path)


@settings(max_examples=40, deadline=None)
@given(
    key_parts=st.lists(_name, min_size=1, max_size=3),
    values=st.dictionaries(_name, st.integers(), min_size=1, max_size=6),
)
def test_registry_snapshot_isolation(key_parts, values):
    registry = Registry()
    key = "hklm\\" + "\\".join(key_parts)
    for name, value in values.items():
        registry.set_value(key, name, value)
    snapshot = registry.snapshot()
    for name in values:
        registry.set_value(key, name, "overwritten")
    for name, value in values.items():
        assert snapshot[key.lower()][name.lower()] == value
