"""Environment builders."""

import pytest

from repro.core import CampaignWorld, build_natanz_plant, build_office_lan
from repro.core.environments import (
    build_flame_infrastructure,
    place_bluetooth_neighborhood,
    seed_user_documents,
)
from repro.plc import FARARO_PAYA, VACON


def test_campaign_world_wiring():
    world = CampaignWorld(seed=1)
    assert world.internet is not None
    assert world.windows_update is not None
    assert world.internet.reachable("www.msn.com")
    assert world.internet.reachable("www.windowsupdate.com")
    host = world.make_host("H-1", os_version="xp")
    assert host.config.os_version == "xp"


def test_campaign_world_without_internet():
    world = CampaignWorld(seed=1, with_internet=False)
    assert world.internet is None
    assert world.windows_update is None


def test_seed_documents_profile(host_factory, kernel):
    host = host_factory("DOC")
    written = seed_user_documents(host, kernel.rng.fork("d"),
                                  docs_per_user=10)
    assert written == 10
    files = host.vfs.walk("c:\\users")
    assert len(files) == 10
    assert any(f.extension in ("docx", "xlsx", "dwg", "txt", "zip",
                               "jpg", "mp3", "mp4") for f in files)


def test_build_office_lan_shape():
    world = CampaignWorld(seed=2)
    lan, hosts = build_office_lan(world, "ministry", 8, docs_per_host=2,
                                  microphone_fraction=1.0)
    assert len(hosts) == 8
    assert len(lan.hosts()) == 8
    assert all(h.config.has_microphone for h in hosts)
    assert not lan.air_gapped
    assert hosts[0].hostname.startswith("MINISTRY-")


def test_build_office_lan_air_gapped():
    world = CampaignWorld(seed=3)
    lan, hosts = build_office_lan(world, "plant", 2, air_gapped=True,
                                  docs_per_host=0)
    assert lan.air_gapped
    assert len(hosts[0].vfs.walk("c:\\users")) == 0


def test_build_office_lan_deterministic():
    def fingerprint(seed):
        world = CampaignWorld(seed=seed)
        _, hosts = build_office_lan(world, "x", 5, docs_per_host=3)
        return [(h.hostname, h.config.has_bluetooth,
                 len(h.vfs.walk("c:\\users"))) for h in hosts]

    assert fingerprint(7) == fingerprint(7)


def test_build_natanz_plant_matches_stuxnet_fingerprint():
    from repro.malware.stuxnet import plc_matches_target

    world = CampaignWorld(seed=4)
    plant = build_natanz_plant(world, centrifuge_count=100,
                               workstation_count=2)
    assert plc_matches_target(plant["plc"])
    assert sum(len(c) for c in plant["cascades"]) == 100
    assert plant["lan"].air_gapped
    assert "step7" in plant["engineering_host"].installed_software
    assert plant["plc"].running
    vendors = plant["bus"].vendors()
    assert FARARO_PAYA in vendors and VACON in vendors


def test_build_flame_infrastructure_fig4_numbers():
    world = CampaignWorld(seed=5)
    infra = build_flame_infrastructure(world, domain_count=80,
                                       server_count=22)
    assert len(infra["pool"]) == 80
    assert len(infra["servers"]) == 22
    assert len(infra["default_domains"]) == 5
    assert world.internet.site_count() >= 22
    # Every domain resolves to a live server.
    for domain in infra["pool"].domains():
        assert world.internet.reachable(domain)
    # Servers were hardened by the admin automation.
    assert all(not s.logging_enabled for s in infra["servers"])


def test_place_bluetooth_devices():
    world = CampaignWorld(seed=6)
    lan, hosts = build_office_lan(world, "bt", 6, docs_per_host=0,
                                  bluetooth_fraction=1.0)
    devices = place_bluetooth_neighborhood(world, hosts, devices_per_host=2)
    assert len(devices) == 12
    assert world.bluetooth.devices_near(hosts[0], discoverable_only=False)
