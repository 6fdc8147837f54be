"""Integration tests: the three turn-key campaigns (scaled down)."""

import tracemalloc

import pytest

from repro import (
    FlameEspionageCampaign,
    ShamoonWiperCampaign,
    StuxnetNatanzCampaign,
)


@pytest.fixture(scope="module")
def stuxnet_result():
    campaign = StuxnetNatanzCampaign(seed=7, centrifuge_count=200,
                                     workstation_count=2, duration_days=120)
    return campaign.run()


@pytest.fixture(scope="module")
def flame_result():
    campaign = FlameEspionageCampaign(seed=8, victim_count=6,
                                      domain_count=20, server_count=4,
                                      duration_weeks=2, docs_per_host=5)
    return campaign.run(suicide_at_end=True)


@pytest.fixture(scope="module")
def shamoon_result():
    return ShamoonWiperCampaign(seed=9, host_count=60).run()


def test_stuxnet_kill_chain_completes(stuxnet_result):
    r = stuxnet_result
    assert r["infected_hosts"] >= 1
    assert r["payloads_armed"] == 1
    assert r["attack_cycles"] >= 2


def test_stuxnet_destroys_centrifuges_stealthily(stuxnet_result):
    r = stuxnet_result
    assert 0 < r["centrifuges_destroyed"] < r["centrifuges_total"]
    assert not r["safety_tripped"]
    assert r["operator_view_hz"] == pytest.approx(1064.0, abs=2)


def test_stuxnet_plc_rootkit_hides_blocks(stuxnet_result):
    r = stuxnet_result
    assert r["stux_blocks_on_plc"]            # really on the PLC
    assert r["stux_blocks_visible_to_engineer"] == []  # invisible via DLL


def test_flame_infects_lan_via_mitm(flame_result):
    r = flame_result
    assert r["victims_infected"] == 6
    assert "windows-update-mitm" in r["infection_vectors"]
    assert r["domains_registered"] == 20
    assert r["server_count"] == 4


def test_flame_two_phase_exfiltration_works(flame_result):
    r = flame_result
    assert r["stolen_bytes_total"] > 0
    assert r["metadata_reviews"] > 0
    assert r["files_requested"] > 0
    assert r["documents_recovered"] > 0


def test_flame_suicide_clears_fleet(flame_result):
    assert flame_result["active_infections"] == 0
    assert flame_result["footprint_bytes"] == 0


def test_shamoon_full_org_destruction(shamoon_result):
    r = shamoon_result
    assert r["hosts_wiped"] == 60
    assert r["hosts_usable_after"] == 0
    assert r["reports_received"] == 60
    assert r["first_wipe_at"].startswith("2012-08-15T08:08")


def test_shamoon_jpeg_bug_fraction(shamoon_result):
    # Only the upper part of the image lands: far below full coverage.
    assert 0 < shamoon_result["overwrite_fraction"] < 0.6


def test_campaigns_are_reproducible():
    a = ShamoonWiperCampaign(seed=11, host_count=12).run()
    b = ShamoonWiperCampaign(seed=11, host_count=12).run()
    assert a == b


def test_shamoon_zero_filled_documents_cost_no_buffers():
    """Seeded documents and the wiper's partial overwrites keep the zero
    tail as a count: 150 hosts whose documents weigh hundreds of MB
    run in a few MB of traced Python allocations."""
    tracemalloc.start()
    try:
        ShamoonWiperCampaign(seed=7, host_count=150).run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024 * 1024
