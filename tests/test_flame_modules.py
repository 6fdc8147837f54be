"""Flame's Lua module system: loading, calling, hot-swap."""

import pytest

from repro.malware.flame.modules import FlameModuleManager, LuaModule
from repro.malware.flame.scripts import (
    FLASK_SOURCE,
    JIMMY_SOURCE,
    JIMMY_V2_SOURCE,
)


@pytest.fixture
def manager():
    manager = FlameModuleManager()
    manager.load("flask", FLASK_SOURCE)
    manager.load("jimmy", JIMMY_SOURCE)
    return manager


def test_modules_load_and_export(manager):
    assert manager.names() == ["flask", "jimmy"]
    assert manager.get("jimmy").exports("scan")
    assert manager.get("flask").exports("collect")
    assert manager.versions() == {"flask": 1, "jimmy": 1}


def test_jimmy_v1_selects_document_types(manager):
    files = [
        {"path": "c:\\u\\documents\\a.docx", "ext": "docx", "size": 1000},
        {"path": "c:\\u\\documents\\b.exe", "ext": "exe", "size": 1000},
        {"path": "c:\\u\\documents\\c.dwg", "ext": "dwg", "size": 2000},
        {"path": "c:\\u\\huge.pdf", "ext": "pdf", "size": 99_000_000},
    ]
    selected = manager.call("jimmy", "scan", files)
    paths = [s["path"] for s in selected]
    assert "c:\\u\\documents\\a.docx" in paths
    assert "c:\\u\\documents\\c.dwg" in paths
    assert "c:\\u\\documents\\b.exe" not in paths   # wrong type
    assert "c:\\u\\huge.pdf" not in paths           # over the size cap
    assert all("summary" in s for s in selected)


def test_flask_shapes_sysinfo(manager):
    report = manager.call("flask", "collect", {
        "hostname": "V-1", "os": "7", "volumes": ["c:"],
        "tcp_connections": [{"peer": "lan", "port": 445}],
        "cookies": ["mail.example"], "software": ["ie"],
    })
    assert report["computer"] == "V-1"
    assert report["volumes"] == 1
    assert report["open_connections"] == 1


def test_hot_swap_bumps_version_and_changes_behaviour(manager):
    files = [{"path": "c:\\u\\documents\\secret-x.docx", "ext": "docx",
              "size": 10}]
    before = manager.call("jimmy", "scan", files)
    assert "score" not in before[0]
    module = manager.hot_swap("jimmy", JIMMY_V2_SOURCE, at_time=42.0)
    assert module.version == 2
    after = manager.call("jimmy", "scan", files)
    assert after[0]["score"] == 1  # "secret" keyword now scored
    assert manager.update_log == [("jimmy", 1, 2, 42.0)]


def test_hot_swap_rejects_broken_script(manager):
    assert manager.hot_swap("jimmy", "this is not lua ][") is None
    # Old module still loaded and functional.
    assert manager.versions()["jimmy"] == 1
    assert manager.get("jimmy").exports("scan")


def test_hot_swap_rejects_script_with_bad_stdlib_call(manager):
    assert manager.hot_swap("flask", "x = string.rep(nil, 2)") is None
    assert manager.versions()["flask"] == 1
    report = manager.call("flask", "collect", {
        "hostname": "V-1", "os": "7", "volumes": ["c:"],
        "tcp_connections": [], "cookies": [], "software": [],
    })
    assert report["computer"] == "V-1"


def test_hot_swap_can_add_new_module(manager):
    module = manager.hot_swap("microbe2", "function go() return 7 end")
    assert module.version == 1
    assert manager.call("microbe2", "go") == 7


def test_call_unknown_module_raises(manager):
    with pytest.raises(KeyError):
        manager.call("ghost", "run")


def test_invocation_counter():
    module = LuaModule("m", "function f() return 1 end")
    module.call("f")
    module.call("f")
    assert module.invocations == 2
