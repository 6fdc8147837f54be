"""CncClient domain rotation and the attack-center role separation."""

import pytest

from repro.cnc import AttackCenter, CncClient, CncServer
from repro.crypto.padded import Padded, pad
from repro.netsim import Internet, Lan
from repro.pe.format import PeFormatError


@pytest.fixture
def cnc_world(kernel, host_factory):
    internet = Internet(kernel)
    center = AttackCenter(kernel)
    server = CncServer(kernel, "cnc-01", center.coordinator_public_key,
                       extra_domains=["alt1.com", "alt2.com"])
    center.provision_server(server, internet,
                            ["primary.com", "alt1.com", "alt2.com"])
    lan = Lan(kernel, "victims", internet=internet)
    victim = host_factory("V-1")
    lan.attach(victim)
    return {"internet": internet, "center": center, "server": server,
            "lan": lan, "victim": victim}


def test_get_news_expands_domain_list(cnc_world):
    client = CncClient("uid-v-1", ["primary.com"])
    packages = client.get_news(cnc_world["lan"], cnc_world["victim"])
    assert packages == []
    assert set(client.domains) == {"primary.com", "alt1.com", "alt2.com"}
    assert client.contact_count == 1


def test_client_falls_back_across_dead_domains(cnc_world):
    client = CncClient("uid-v-1", ["dead1.com", "dead2.com", "primary.com"])
    packages = client.get_news(cnc_world["lan"], cnc_world["victim"])
    assert packages is not None
    assert client.failed_contacts == 2


def test_client_returns_none_when_all_domains_dead(cnc_world):
    client = CncClient("uid-v-1", ["dead1.com", "dead2.com"])
    assert client.get_news(cnc_world["lan"], cnc_world["victim"]) is None


def test_sinkholed_domain_rotation_resilience(cnc_world):
    """Takedown of the primary leaves rotation domains working."""
    cnc_world["internet"].dns.sinkhole("primary.com")
    client = CncClient("uid-v-1", ["primary.com", "alt1.com"])
    packages = client.get_news(cnc_world["lan"], cnc_world["victim"])
    assert packages is not None  # alt1 still reaches the real server
    assert client.failed_contacts >= 1


def test_add_entry_flows_to_coordinator_only(cnc_world):
    center = cnc_world["center"]
    client = CncClient("uid-v-1", ["primary.com"])
    assert client.add_entry(cnc_world["lan"], cnc_world["victim"],
                            b"the stolen file", center.coordinator_public_key)
    assert center.harvest() == 1
    # The operator holds sealed bytes only.
    _, _, blob = center.sealed_backlog[0]
    assert b"the stolen file" not in blob
    assert not center.operator_can_read(blob)
    # The coordinator opens them.
    assert center.coordinator_decrypt_backlog() == 1
    assert center.recovered_intelligence[0]["data"] == b"the stolen file"


def test_padded_entry_crosses_the_wire_as_a_count(cnc_world):
    center, server = cnc_world["center"], cnc_world["server"]
    client = CncClient("uid-v-1", ["primary.com"])
    entry = pad(b'{"kind": "files"}', 5_000_000)
    assert client.add_entry(cnc_world["lan"], cnc_world["victim"], entry,
                            center.coordinator_public_key)
    (stored,) = server.folders["newsforyou/entries"].values()
    assert isinstance(stored, Padded)
    assert len(stored) == server.bytes_received == client.bytes_uploaded
    center.harvest()
    center.coordinator_decrypt_backlog()
    opened = center.recovered_intelligence[0]["data"]
    assert (opened.head, opened.run, opened.fill) == (
        b'{"kind": "files"}', 5_000_000, b"\x00")


def test_decrypt_backlog_keeps_order_and_stops_at_a_bad_entry(cnc_world):
    center = cnc_world["center"]
    client = CncClient("uid-v-1", ["primary.com"])
    for index in range(5):
        client.add_entry(cnc_world["lan"], cnc_world["victim"],
                         b"doc-%d" % index, center.coordinator_public_key)
    center.harvest()
    center.sealed_backlog.insert(3, ("cnc-01", "bogus", b"\x00"))
    with pytest.raises(PeFormatError):
        center.coordinator_decrypt_backlog()
    # Entries before the bad one opened, in order; it left the backlog.
    assert [item["data"] for item in center.recovered_intelligence] == [
        b"doc-0", b"doc-1", b"doc-2"]
    assert len(center.sealed_backlog) == 2
    assert center.coordinator_decrypt_backlog() == 2
    assert [item["data"] for item in center.recovered_intelligence] == [
        b"doc-%d" % index for index in range(5)]
    assert center.sealed_backlog == []


def test_push_command_reaches_all_servers(kernel, cnc_world, host_factory):
    center = cnc_world["center"]
    second = CncServer(kernel, "cnc-02", center.coordinator_public_key)
    center.provision_server(second, cnc_world["internet"], ["second.com"])
    center.push_command("hello", b"payload")
    client_a = CncClient("a", ["primary.com"])
    client_b = CncClient("b", ["second.com"])
    pkgs_a = client_a.get_news(cnc_world["lan"], cnc_world["victim"])
    pkgs_b = client_b.get_news(cnc_world["lan"], cnc_world["victim"])
    assert [p["name"] for p in pkgs_a] == ["hello"]
    assert [p["name"] for p in pkgs_b] == ["hello"]


def test_targeted_ad_reaches_only_named_client(cnc_world):
    center = cnc_world["center"]
    center.push_command("steal", b"paths", client_id="uid-target")
    lan, victim = cnc_world["lan"], cnc_world["victim"]
    other = CncClient("uid-other", ["primary.com"])
    target = CncClient("uid-target", ["primary.com"])
    assert other.get_news(lan, victim) == []
    assert [p["name"] for p in target.get_news(lan, victim)] == ["steal"]


def test_suicide_broadcast_and_stats(cnc_world):
    center = cnc_world["center"]
    center.broadcast_suicide()
    client = CncClient("uid-v-1", ["primary.com"])
    packages = client.get_news(cnc_world["lan"], cnc_world["victim"])
    assert [p["name"] for p in packages] == ["SUICIDE"]
    assert center.total_clients() == 1


def test_provision_runs_admin_setup(cnc_world):
    assert not cnc_world["server"].logging_enabled
