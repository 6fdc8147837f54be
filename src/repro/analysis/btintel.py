"""Bluetooth intelligence: what BEETLEJUICE's harvest is *for*.

§III.A: the bluetooth functionality lets the attacker "identify the
victim's social networks" and "identify the victim's physical location".
This module turns the recovered device/beacon data into those two
products: a social graph (victims linked through shared contacts,
built with networkx) and a co-location map (which victims' beacons the
same personal device has witnessed).
"""

import json

import networkx as nx

from repro.crypto.padded import head_of


def decode_bluetooth_entries(recovered_intelligence):
    """Pull the decoded bluetooth harvests out of attack-center intel."""
    harvests = []
    for item in recovered_intelligence:
        head = head_of(item.get("data", b"")).split(b"\x00", 1)[0]
        try:
            payload = json.loads(head.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue
        if payload.get("kind") == "bluetooth":
            harvests.append(payload)
    return harvests


def build_social_graph(harvests):
    """Victims + device owners + contacts as one network.

    Nodes carry a ``kind`` attribute (victim / owner / contact); edges
    record how the link was observed.  Two victims connected through a
    shared contact is exactly the "social network" the paper says the
    attacker can map.
    """
    graph = nx.Graph()
    for harvest in harvests:
        victim = harvest["client"]
        graph.add_node(victim, kind="victim")
        for device in harvest.get("devices", []):
            owner = device.get("owner")
            if owner:
                graph.add_node(owner, kind="owner")
                graph.add_edge(victim, owner, via="device:%s" % device["name"])
            for contact in device.get("address_book", []):
                graph.add_node(contact, kind="contact")
                if owner:
                    graph.add_edge(owner, contact, via="address-book")
                else:
                    graph.add_edge(victim, contact, via="address-book")
    return graph


def victims_linked_through_contacts(graph):
    """Pairs of victims reachable through the harvested social tissue."""
    victims = [n for n, d in graph.nodes(data=True) if d.get("kind") == "victim"]
    linked = []
    for i, a in enumerate(victims):
        for b in victims[i + 1:]:
            if graph.has_node(a) and graph.has_node(b) and nx.has_path(graph, a, b):
                linked.append((a, b, nx.shortest_path_length(graph, a, b)))
    return linked


def colocation_map(neighborhood):
    """Physical-location product: device -> victims it has seen beacon.

    A personal device that witnessed two victims' beacons places those
    victims at the same physical location (within radio range of the
    same phone) — the paper's "identify the victim's physical location".
    """
    sightings = {}
    for address, hostname, time in neighborhood.beacon_sightings:
        sightings.setdefault(address, []).append((hostname, time))
    return sightings


def colocated_victims(neighborhood):
    """Victim pairs placed together by at least one shared witness."""
    pairs = set()
    for witnesses in colocation_map(neighborhood).values():
        hosts = sorted({hostname for hostname, _ in witnesses})
        for i, a in enumerate(hosts):
            for b in hosts[i + 1:]:
                pairs.add((a, b))
    return sorted(pairs)
