"""FLASK/JIMMY/MICROBE collectors and adventcfg against real hosts."""

import json

import pytest

from repro.crypto.padded import Padded
from repro.malware.flame import collectors, euphoria
from repro.malware.flame.adventcfg import AdventCfg
from repro.malware.flame.modules import FlameModuleManager
from repro.malware.flame.scripts import FLASK_SOURCE, JIMMY_SOURCE


@pytest.fixture
def modules():
    manager = FlameModuleManager()
    manager.load("flask", FLASK_SOURCE)
    manager.load("jimmy", JIMMY_SOURCE)
    return manager


@pytest.fixture
def victim(host_factory):
    host = host_factory("VICTIM", has_microphone=True)
    host.vfs.write("c:\\users\\u\\documents\\secret-design.docx", b"D" * 500)
    host.vfs.write("c:\\users\\u\\documents\\notes.txt", b"N" * 100)
    host.vfs.write("c:\\users\\u\\pictures\\cat.jpg", b"J" * 200)
    host.vfs.write("c:\\users\\u\\documents\\drawing.dwg", b"W" * 300)
    return host


def test_flask_entry_is_json_sysinfo(modules, victim):
    entry = collectors.run_flask(modules, victim)
    payload = json.loads(entry.decode())
    assert payload["kind"] == "sysinfo"
    assert payload["report"]["computer"] == "VICTIM"


def test_jimmy_metadata_selects_documents_only(modules, victim):
    entry, selected = collectors.run_jimmy_metadata(modules, victim)
    paths = [s["path"] for s in selected]
    assert any("secret-design.docx" in p for p in paths)
    assert any("drawing.dwg" in p for p in paths)
    assert not any("cat.jpg" in p for p in paths)
    payload = json.loads(entry.decode())
    assert payload["kind"] == "metadata"


def test_jimmy_content_pull_pads_to_real_size(victim):
    paths = ["c:\\users\\u\\documents\\secret-design.docx",
             "c:\\users\\u\\documents\\missing.docx"]
    entry, stolen = collectors.run_jimmy_content(victim, paths)
    assert len(stolen) == 1  # the missing one is skipped
    assert stolen[0]["content_size"] == 500
    assert len(entry) >= 500


def test_microbe_requires_microphone(modules, host_factory, victim):
    assert collectors.run_microbe(victim) is not None
    deaf = host_factory("DEAF", has_microphone=False)
    assert collectors.run_microbe(deaf) is None


def test_microbe_entry_scales_with_duration(victim):
    short = collectors.run_microbe(victim, duration_seconds=10)
    long = collectors.run_microbe(victim, duration_seconds=100)
    assert len(long) > len(short)


def test_inventory_falls_back_to_root(host_factory):
    bare = host_factory("BARE")
    records = collectors.inventory_files(bare, root="c:\\users")
    # Falls back to scanning c: when c:\users has no directory entry.
    assert isinstance(records, list)


def test_adventcfg_screenshots_on_av_mention(victim):
    advent = AdventCfg(victim)
    victim.event_log.warning("antivirus",
                             "threat detected in mssecmgr.ocx")
    victim.event_log.info("other", "routine message")
    shots = advent.drain_screenshots()
    assert len(shots) == 1
    payload = json.loads(shots[0].split(b"\x00", 1)[0].decode())
    assert payload["kind"] == "screenshot"
    assert "mssecmgr" in payload["trigger"]
    assert advent.drain_screenshots() == []


def test_adventcfg_risk_governor(victim):
    advent = AdventCfg(victim)
    assert advent.safe_to_act()
    for _ in range(3):
        victim.event_log.warning("antivirus", "flame component flagged")
    assert not advent.safe_to_act()
    assert advent.suppressed_actions == 1
    advent.absorb_update()
    advent.absorb_update()
    assert advent.safe_to_act()


def test_adventcfg_detach_stops_watching(victim):
    advent = AdventCfg(victim)
    advent.detach()
    victim.event_log.warning("antivirus", "flame detected")
    assert advent.pending_screenshots == []


# -- padded entries ------------------------------------------------------------
# Each entry is its JSON head plus the stolen volume as a zero count: the
# same length as the head with real zero bytes appended, and the same
# bytes when built.

def _assert_padded(entry, head, zeros):
    assert isinstance(entry, Padded)
    assert entry.head == head and entry.run == zeros
    assert len(entry) == len(head) + zeros
    assert bytes(entry) == head + b"\x00" * zeros


def test_jimmy_content_entry_is_head_plus_stolen_volume(victim):
    paths = ["c:\\users\\u\\documents\\secret-design.docx",
             "c:\\users\\u\\documents\\drawing.dwg"]
    entry, stolen = collectors.run_jimmy_content(victim, paths)
    head = json.dumps({"kind": "files", "client": "VICTIM",
                       "files": stolen}).encode("utf-8")
    _assert_padded(entry, head, 800)


def test_jimmy_content_without_files_is_plain_bytes(victim):
    entry, stolen = collectors.run_jimmy_content(victim, ["c:\\nope.doc"])
    assert stolen == []
    assert entry == json.dumps({"kind": "files", "client": "VICTIM",
                                "files": []}).encode("utf-8")


def test_microbe_entry_is_head_plus_recording(victim):
    entry = collectors.run_microbe(victim, duration_seconds=10)
    head = json.dumps({"kind": "audio", "client": "VICTIM",
                       "device": "default-microphone",
                       "duration": 10}).encode("utf-8")
    _assert_padded(entry, head, 40_000)


def test_adventcfg_screenshot_is_head_plus_bitmap(victim):
    advent = AdventCfg(victim)
    victim.event_log.warning("antivirus", "threat detected in mssecmgr.ocx")
    (shot,) = advent.drain_screenshots()
    head = json.dumps({"kind": "screenshot", "client": "VICTIM",
                       "trigger": "threat detected in mssecmgr.ocx",
                       "severity": "warning"}).encode("utf-8")
    _assert_padded(shot, head, 40_000)


def test_courier_flush_entry_is_head_plus_documents(victim):
    from repro.usb import HiddenDatabase, UsbDrive

    drive = UsbDrive("courier")
    db = HiddenDatabase.load_or_create(drive)
    db.mark_internet_connected()
    db.store_document("ISLAND", "c:\\a.docx", 1200, "ext=docx")
    db.store_document("ISLAND", "c:\\b.dwg", 34, "ext=dwg")
    documents = db.documents()
    uploaded = []
    assert euphoria.courier_flush(victim, drive, lambda e: uploaded.append(e)
                                  or True) == 2
    head = json.dumps({"kind": "courier", "client": "VICTIM",
                       "documents": documents}).encode("utf-8")
    _assert_padded(uploaded[0], head, 1234)
