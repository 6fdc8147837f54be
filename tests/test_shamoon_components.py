"""Shamoon components: TrkSvr image, wiper, reporter (Fig. 6)."""

import pytest

from repro.malware.shamoon import (
    BURNING_FLAG_JPEG,
    JPEG_FRAGMENT_SIZE,
    RESOURCE_REPORTER,
    RESOURCE_WIPER,
    RESOURCE_X64,
    TRKSVR_SIZE,
    XOR_KEY,
    build_trksvr_image,
    run_wiper,
)
from repro.malware.shamoon.wiper import (
    build_eldos_driver_image,
    collect_target_files,
)
from repro.pe import parse_pe


def test_trksvr_image_shape():
    image = build_trksvr_image()
    assert len(image) == TRKSVR_SIZE  # the characteristic 900 KB
    pe = parse_pe(image)
    assert pe.machine_label == "x86"
    names = [r.name for r in pe.resources]
    assert names == [RESOURCE_WIPER, RESOURCE_REPORTER, RESOURCE_X64]
    assert all(r.encrypted for r in pe.resources)


def test_resources_decrypt_with_simple_xor():
    pe = parse_pe(build_trksvr_image())
    wiper = pe.resource(RESOURCE_WIPER)
    assert wiper.xor_key == XOR_KEY
    assert b"wiper" in wiper.decrypt()
    # The last resource is the 64-bit variant: itself a PE.
    x64 = parse_pe(pe.resource(RESOURCE_X64).decrypt())
    assert x64.machine_label == "x64"


def test_burning_flag_jpeg_structure():
    assert BURNING_FLAG_JPEG[:3] == b"\xff\xd8\xff"
    assert BURNING_FLAG_JPEG.endswith(b"\xff\xd9")
    assert len(BURNING_FLAG_JPEG) > 100 * 1024
    assert JPEG_FRAGMENT_SIZE < len(BURNING_FLAG_JPEG)


def test_burning_flag_jpeg_equals_the_byte_by_byte_generator():
    header = BURNING_FLAG_JPEG[:20]
    body = bytearray()
    seed = 0x5A
    while len(body) < 192 * 1024 - len(header) - 2:
        body.append(seed)
        seed = (seed * 31 + 7) % 251
    assert BURNING_FLAG_JPEG == header + bytes(body) + b"\xff\xd9"
    assert header == (b"\xff\xd8\xff\xe0\x00\x10JFIF\x00\x01\x02"
                      b"\x00\x00\x01\x00\x01\x00\x00")


def _seeded_host(host_factory, name="W-1"):
    host = host_factory(name)
    host.vfs.write("c:\\users\\u\\documents\\report.docx", b"R" * 8000)
    host.vfs.write("c:\\users\\u\\downloads\\setup.zip", b"Z" * 500)
    host.vfs.write("c:\\users\\u\\pictures\\kid.jpg", b"P" * 3000)
    host.vfs.write("c:\\users\\u\\other\\keep.txt", b"K" * 100)
    return host


def test_target_collection_covers_paper_folders(host_factory):
    host = _seeded_host(host_factory)
    f1, f2 = collect_target_files(host)
    targeted = f1 + f2
    assert len(targeted) == 3  # keep.txt is outside the named folders
    assert not any("keep.txt" in p for p in targeted)


def test_wiper_full_pass(host_factory, world):
    host = _seeded_host(host_factory)
    driver = build_eldos_driver_image(world)
    stats = run_wiper(host, driver)
    assert stats["driver_loaded"]
    assert stats["files_overwritten"] == 3
    assert stats["mbr_wiped"]
    assert stats["partition_wiped"]
    assert not host.usable()
    # f1.inf/f2.inf dropped with the target lists.
    f1 = host.vfs.read("c:\\windows\\system32\\f1.inf", raw=True)
    assert b".docx" in f1 or b".zip" in f1 or b".jpg" in f1


def test_wiper_bug_overwrites_only_upper_jpeg_part(host_factory, world):
    host = _seeded_host(host_factory)
    run_wiper(host, build_eldos_driver_image(world))
    data = host.vfs.read("c:\\users\\u\\documents\\report.docx", raw=True)
    assert data[:3] == b"\xff\xd8\xff"            # JPEG header present
    assert data[JPEG_FRAGMENT_SIZE:] == b"R" * (8000 - JPEG_FRAGMENT_SIZE)


def test_wiper_without_bug_fully_overwrites(host_factory, world):
    host = _seeded_host(host_factory)
    stats = run_wiper(host, build_eldos_driver_image(world),
                      faithful_bug=False)
    data = host.vfs.read("c:\\users\\u\\documents\\report.docx", raw=True)
    assert data[:8000] == BURNING_FLAG_JPEG[:8000]  # nothing of the original
    assert stats["bytes_overwritten"] >= stats["bytes_intended"] * 0.99


def test_wiper_blocked_when_driver_refused(host_factory, world):
    host = _seeded_host(host_factory, "HARDENED")
    from repro.certs.wellknown import ELDOS

    cert, _ = world.vendor_credentials(ELDOS)
    host.trust_store.revoke_serial(cert.serial)
    stats = run_wiper(host, build_eldos_driver_image(world))
    assert not stats["driver_loaded"]
    assert not stats["mbr_wiped"]
    assert host.usable()  # files trashed, but the machine still boots
    assert stats["files_overwritten"] == 3


def test_eldos_driver_is_legitimately_signed(world, host_factory):
    host = host_factory("CHECK")
    image = build_eldos_driver_image(world)
    pe = parse_pe(image)
    result = host.trust_store.verify_code_signature(image, pe)
    assert result
    assert result.signer == "EldoS Corporation"
