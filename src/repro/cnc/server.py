"""One Flame-style C&C server (Fig. 5).

A "Debian Linux virtual machine running under OpenVZ ... a database
(MySQL) and an Apache web server" whose web root hides the
``newsforyou`` dead-drop:

* ``ads``     — commands/updates for one specific client;
* ``news``    — commands/updates for every client;
* ``entries`` — stolen data uploaded by clients, sealed to the
  coordinator's public key.

Clients speak two verbs: ``GET_NEWS`` (fetch packages; also receive the
expanded domain list) and ``ADD_ENTRY`` (upload sealed stolen data).
The server never talks to the attack center directly — "data flows in a
military-like approach: one party uploads files on the server and then
the other party will retrieve those files".
"""

import base64
import json

from repro.cnc.database import MiniDatabase
from repro.netsim.http import HttpResponse, HttpServer
from repro.obs.metrics import BYTE_BUCKETS

NEWSFORYOU = "/newsforyou"
ADS_FOLDER = "newsforyou/ads"
NEWS_FOLDER = "newsforyou/news"
ENTRIES_FOLDER = "newsforyou/entries"

#: "stolen files from the infected machines are cleaned up every 30
#: minutes" (after upload to the attack center).
CLEANUP_INTERVAL = 30 * 60.0

#: The four client types Kaspersky found in the C&C code (§III.B).
CLIENT_TYPES = ("CLIENT_TYPE_FL", "CLIENT_TYPE_SP",
                "CLIENT_TYPE_SPE", "CLIENT_TYPE_IP")


def encode_package(package):
    """Serialise a package dict to wire bytes."""
    safe = dict(package)
    payload = safe.pop("payload", b"")
    safe["payload_b64"] = base64.b64encode(payload).decode("ascii")
    return json.dumps(safe).encode("utf-8")


def decode_package(blob):
    """Inverse of :func:`encode_package`."""
    safe = json.loads(blob.decode("utf-8"))
    safe["payload"] = base64.b64decode(safe.pop("payload_b64", ""))
    return safe


class CncServer:
    """One command-and-control node."""

    PLATFORM = "Debian GNU/Linux (OpenVZ container), Apache, MySQL, PHP"

    def __init__(self, kernel, name, coordinator_public_key, extra_domains=()):
        self.kernel = kernel
        self.name = name
        self.coordinator_public_key = coordinator_public_key
        #: Domains handed to clients on first contact (the 5 -> ~10
        #: rotation the paper describes).
        self.extra_domains = list(extra_domains)
        self.db = MiniDatabase()
        for table in ("clients", "packages", "settings", "panel_users"):
            self.db.create_table(table)
        self.db.insert("settings", key="encryption",
                       value=coordinator_public_key.fingerprint())
        #: Server-local unix filesystem (what LogWiper.sh shreds).
        self.files = {
            "/var/log/syslog": b"boot messages...\n",
            "/var/log/auth.log": b"sshd sessions...\n",
            "/root/LogWiper.sh": b"#!/bin/sh\n# stop loggers, shred logs, rm self\n",
        }
        self.logging_enabled = True
        #: Dead-drop folders: path -> bytes.
        self.folders = {ADS_FOLDER: {}, NEWS_FOLDER: {}, ENTRIES_FOLDER: {}}
        self._entry_counter = 0
        #: Entries collected but not yet shredded: the ``retrieved``
        #: rows of ``packages``, kept here so that no lookup scans it.
        self._retrieved = set()
        self.bytes_received = 0
        self.bytes_served = 0
        self._cleanup_task = None
        self.http = HttpServer("cnc:%s" % name)
        self.http.route(NEWSFORYOU, self._handle_protocol)
        self.http.route("/", lambda request: HttpResponse(200, b"<html>It works!</html>"))
        self.alive = True

    # -- admin-side setup (the automation the paper describes) -------------------

    def admin_setup(self):
        """Run the server-preparation scripts over 'ssh'.

        LogWiper.sh stops the logging daemons, shreds the logs, and
        deletes itself; a scheduled task starts cleaning the entries
        folder every 30 minutes.
        """
        self.logging_enabled = False
        for path in ("/var/log/syslog", "/var/log/auth.log"):
            # shred: overwrite before unlink so nothing is recoverable.
            self.files[path] = b"\x00" * len(self.files[path])
            del self.files[path]
        del self.files["/root/LogWiper.sh"]
        self._cleanup_task = self.kernel.every(
            CLEANUP_INTERVAL, self._cleanup_entries, "cnc-cleanup:%s" % self.name
        )
        self.kernel.trace.record(self.name, "cnc-setup-complete")
        return self

    def _cleanup_entries(self):
        """Delete entry files already retrieved by the attack center."""
        retrieved, self._retrieved = self._retrieved, set()
        if not retrieved:
            return
        for entry_id in retrieved:
            del self.folders[ENTRIES_FOLDER][entry_id]
        self.db.delete_where("packages",
                             lambda row: row["entry_id"] in retrieved)
        self.kernel.metrics.inc("cnc.entries_shredded", len(retrieved))
        self.kernel.trace.record(self.name, "cnc-entries-shredded",
                                 count=len(retrieved))

    def shutdown(self):
        """Take the server dark (suicide or takedown)."""
        self.alive = False
        if self._cleanup_task is not None:
            self._cleanup_task.stop()
        self.folders = {ADS_FOLDER: {}, NEWS_FOLDER: {}, ENTRIES_FOLDER: {}}
        self._retrieved = set()
        self.db.drop_all()

    # -- operator-side dead-drop writes ---------------------------------------------

    def put_ad(self, client_id, package):
        """Queue a package for one specific client."""
        folder = self.folders[ADS_FOLDER].setdefault(client_id, {})
        folder[package["name"]] = encode_package(package)

    def put_news(self, package):
        """Queue a package for every client."""
        self.folders[NEWS_FOLDER][package["name"]] = encode_package(package)

    def collect_entries(self):
        """Attack-center side: download sealed entries, mark retrieved.

        The scheduled cleanup removes them from disk afterwards.
        """
        collected = []
        for entry_id, blob in self.folders[ENTRIES_FOLDER].items():
            if entry_id not in self._retrieved:
                collected.append((entry_id, blob))
                self.db.update("packages", {"entry_id": entry_id},
                               {"retrieved": True})
                self._retrieved.add(entry_id)
        return collected

    def pending_entry_count(self):
        return len(self.folders[ENTRIES_FOLDER])

    # -- the wire protocol ---------------------------------------------------------

    def _handle_protocol(self, request):
        if not self.alive:
            return HttpResponse.error("connection refused")
        command = request.params.get("command")
        if command == "GET_NEWS":
            return self._handle_get_news(request)
        if command == "ADD_ENTRY":
            return self._handle_add_entry(request)
        return HttpResponse(400, "unknown command")

    def _handle_get_news(self, request):
        # One GET_NEWS answered = one full C&C round-trip completed.
        self.kernel.metrics.inc("cnc.round_trips")
        self.kernel.metrics.inc("cnc.get_news")
        client_id = request.params.get("client_id", "anonymous")
        client_type = request.params.get("client_type", "CLIENT_TYPE_FL")
        if self.db.select_one("clients", client_id=client_id) is None:
            self.db.insert("clients", client_id=client_id,
                           client_type=client_type,
                           first_seen=self.kernel.clock.now)
        packages = []
        personal = self.folders[ADS_FOLDER].get(client_id, {})
        for name in sorted(personal):
            packages.append(personal[name].decode("utf-8"))
        del_names = list(personal)
        for name in del_names:
            del personal[name]
        for name in sorted(self.folders[NEWS_FOLDER]):
            packages.append(self.folders[NEWS_FOLDER][name].decode("utf-8"))
        body = json.dumps(
            {"packages": packages, "domains": self.extra_domains}
        ).encode("utf-8")
        self.bytes_served += len(body)
        return HttpResponse(200, body)

    def _handle_add_entry(self, request):
        self.kernel.metrics.inc("cnc.round_trips")
        self.kernel.metrics.inc("cnc.add_entry")
        self.kernel.metrics.observe("cnc.entry_bytes", len(request.body),
                                    buckets=BYTE_BUCKETS)
        client_id = request.params.get("client_id", "anonymous")
        self._entry_counter += 1
        entry_id = "entry-%06d" % self._entry_counter
        self.folders[ENTRIES_FOLDER][entry_id] = request.body
        self.db.insert("packages", entry_id=entry_id, client_id=client_id,
                       size=len(request.body), retrieved=False,
                       uploaded_at=self.kernel.clock.now)
        self.bytes_received += len(request.body)
        return HttpResponse(200, json.dumps({"stored": entry_id}))

    # -- reporting ----------------------------------------------------------------

    def known_clients(self):
        return self.db.select("clients")

    def client_type_histogram(self):
        histogram = {}
        for row in self.db.select("clients"):
            key = row["client_type"]
            histogram[key] = histogram.get(key, 0) + 1
        return histogram

    def __repr__(self):
        return "CncServer(%r, clients=%d, pending_entries=%d)" % (
            self.name, self.db.count("clients"), self.pending_entry_count(),
        )
