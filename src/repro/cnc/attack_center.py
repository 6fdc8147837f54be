"""The attack center: one place steering all C&C servers (Fig. 4).

§III.B: the operator uses a GUI control panel to move data through each
server; "the corresponding private key is only known by the attack
coordinator ... Even the admin and operator do not know the private key
and hence do not have access to the stolen data. This hierarchical
structure at the attack center is another evidence that the attackers
are not typical cyber-criminals or hacktivists."
"""

from repro.crypto.rsa import generate_keypair
from repro.crypto.sealed import SealedBlob, unseal


class AttackCenterRole:
    """One person at the attack center."""

    def __init__(self, name, role):
        self.name = name
        self.role = role  # "admin" | "operator" | "coordinator"

    def __repr__(self):
        return "AttackCenterRole(%r, %s)" % (self.name, self.role)


class AttackCenter:
    """Builds, provisions, and drives a fleet of C&C servers."""

    def __init__(self, kernel, label="attack-center"):
        self.kernel = kernel
        self.label = label
        #: Only the coordinator holds this key pair; servers get only
        #: the public half.
        self._coordinator_keypair = generate_keypair("coordinator:%s" % label)
        self.admin = AttackCenterRole("admin-1", "admin")
        self.operator = AttackCenterRole("operator-1", "operator")
        self.coordinator = AttackCenterRole("coordinator-1", "coordinator")
        self.servers = []
        #: Decrypted stolen documents, keyed by (server, entry id).
        self.recovered_intelligence = []
        self.sealed_backlog = []

    @property
    def coordinator_public_key(self):
        return self._coordinator_keypair.public

    # -- fleet management ------------------------------------------------------

    def provision_server(self, server, internet, domains, server_ip=None):
        """Put a C&C server online behind a set of domains.

        Registers every domain at the same address (one server, many
        aliases), runs the admin setup automation, and remembers the
        server for fleet-wide commands.
        """
        address = internet.register_site(domains[0], server.http, address=server_ip)
        for domain in domains[1:]:
            internet.register_site(domain, server.http, address=address)
        server.admin_setup()
        self.servers.append(server)
        return address

    # -- operator actions (GUI control panel) --------------------------------------

    def push_command(self, name, payload=b"", client_id=None, kind="command",
                     client_type=None):
        """Queue a package on every server (news) or for one client (ads).

        ``client_type`` scopes a broadcast to one of the four client
        families (§III.B) — clients of other types ignore the package.
        """
        package = {"name": name, "kind": kind, "payload": payload}
        if client_type is not None:
            package["client_type"] = client_type
        for server in self.servers:
            if client_id is None:
                server.put_news(package)
            else:
                server.put_ad(client_id, package)
        return package

    def push_module_update(self, module_name, lua_source, client_id=None):
        """Ship a (Lua) module update — Flame's self-extension mechanism."""
        return self.push_command(module_name, lua_source.encode("utf-8"),
                                 client_id=client_id, kind="module")

    def broadcast_suicide(self, client_type=None):
        """The kill switch: clients must remove themselves completely.

        The real May-2012 broadcast targeted the Flame clients proper;
        "CLIENT_TYPE_SP, CLIENT_TYPE_SPE, and CLIENT_TYPE_IP" variants
        stayed deployable (§III.B) — pass ``client_type`` to reproduce
        that scoping, or None to kill everything.
        """
        self.kernel.trace.record(self.label, "suicide-broadcast",
                                 client_type=client_type)
        return self.push_command("SUICIDE", kind="command",
                                 client_type=client_type)

    def harvest(self):
        """Operator pass: pull sealed entries off every server.

        The operator cannot read them — they stack up for the
        coordinator.
        Returns the number of entries pulled.
        """
        pulled = 0
        for server in self.servers:
            for entry_id, blob in server.collect_entries():
                self.sealed_backlog.append((server.name, entry_id, blob))
                pulled += 1
        return pulled

    # -- coordinator actions ---------------------------------------------------------

    def coordinator_decrypt_backlog(self):
        """Open every sealed entry with the coordinator's private key."""
        backlog = self.sealed_backlog
        taken = 0
        try:
            for server_name, entry_id, blob in backlog:
                taken += 1
                plaintext = unseal(self._coordinator_keypair,
                                   SealedBlob.from_bytes(blob))
                self.recovered_intelligence.append(
                    {"server": server_name, "entry": entry_id,
                     "data": plaintext}
                )
        finally:
            # An entry that fails to open leaves the backlog too.
            del backlog[:taken]
        return taken

    def operator_can_read(self, blob):
        """Demonstrably False: the operator lacks the private key."""
        return False

    # -- reporting ---------------------------------------------------------------------

    def total_clients(self):
        seen = set()
        for server in self.servers:
            for row in server.known_clients():
                seen.add(row["client_id"])
        return len(seen)

    def __repr__(self):
        return "AttackCenter(%d servers, %d clients, %d intel items)" % (
            len(self.servers), self.total_clients(),
            len(self.recovered_intelligence),
        )
