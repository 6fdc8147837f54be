"""Builders for the worlds the campaigns run in."""

from repro.bluetooth import BluetoothDevice, BluetoothNeighborhood
from repro.certs import PkiWorld
from repro.cnc import AttackCenter, CncServer, DomainPool
from repro.netsim import Internet, Lan, WindowsUpdateService
from repro.netsim.http import HttpResponse, HttpServer
from repro.netsim.windowsupdate import UpdateRegistry
from repro.plc import (
    CentrifugeCascade,
    DigitalSafetySystem,
    FARARO_PAYA,
    FrequencyConverterDrive,
    ProfibusBus,
    ProgrammableLogicController,
    Step7Application,
    VACON,
)
from repro.sim import Kernel
from repro.winsim import HostConfig, WindowsHost

#: Document templates used to seed victim machines: (folder, name
#: pattern, extension, size).  Names containing operator keywords are
#: the "juicy" ones Flame's two-phase exfil is supposed to find.
_DOC_TEMPLATES = (
    ("documents", "meeting-notes-%d", "txt", 2_000),
    ("documents", "budget-%d", "xlsx", 40_000),
    ("documents", "secret-design-%d", "docx", 120_000),
    ("documents", "network-diagram-%d", "dwg", 300_000),
    ("downloads", "setup-%d", "zip", 800_000),
    ("pictures", "holiday-%d", "jpg", 250_000),
    ("desktop", "todo-%d", "txt", 500),
    ("music", "track-%d", "mp3", 3_000_000),
    ("videos", "clip-%d", "mp4", 8_000_000),
)


def seed_user_documents(host, rng, users=1, docs_per_user=6):
    """Populate a host with a believable user file corpus.

    Returns the number of files written.  Contents are zero-filled at
    template-scaled sizes; what matters to every experiment is names,
    extensions, folders, and byte counts.  Each document is written
    with ``size=`` and no bytes, so it costs a count, not a buffer, and
    org-scale scenarios (30,000 hosts) keep their full sizes.
    """
    written = 0
    for user_index in range(users):
        user_root = "c:\\users\\user%02d" % user_index
        for doc_index in range(docs_per_user):
            folder, pattern, ext, size = rng.choice(list(_DOC_TEMPLATES))
            size = int(size * rng.uniform(0.5, 1.5))
            path = "%s\\%s\\%s.%s" % (
                user_root, folder, pattern % (written,), ext,
            )
            host.vfs.write(path, size=size, origin="user")
            written += 1
    return written


class CampaignWorld:
    """The shared stage: kernel, PKI, internet, Windows Update.

    One of these per scenario; every other builder takes it as input.
    """

    def __init__(self, seed=0, with_internet=True):
        self.kernel = Kernel(seed=seed)
        self.pki = PkiWorld()
        self.internet = Internet(self.kernel) if with_internet else None
        self.update_registry = UpdateRegistry()
        self.windows_update = None
        if self.internet is not None:
            self.windows_update = WindowsUpdateService(self.pki, self.internet)
            # The msn.com probe target Stuxnet checks (§II.A).
            msn = HttpServer("msn")
            msn.route("/", lambda request: HttpResponse(200, b"<html>msn</html>"))
            self.internet.register_site("www.msn.com", msn)
        self.bluetooth = BluetoothNeighborhood(self.kernel)

    def make_host(self, hostname, **config_kwargs):
        return WindowsHost(self.kernel, hostname,
                           self.pki.make_trust_store(),
                           HostConfig(**config_kwargs))


def build_office_lan(world, name, host_count, os_version="7",
                     file_and_print_sharing=True, air_gapped=False,
                     docs_per_host=6, microphone_fraction=0.2,
                     bluetooth_fraction=0.2, hostname_prefix=None):
    """A typical organisation LAN of ``host_count`` seeded machines."""
    prefix = hostname_prefix or name.upper()
    lan = Lan(world.kernel, name,
              internet=None if air_gapped else world.internet,
              domain_name="%s.local" % name.lower())
    rng = world.kernel.rng.fork("lan:%s" % name)
    hosts = []
    for index in range(host_count):
        host = world.make_host(
            "%s-%04d" % (prefix, index),
            os_version=os_version,
            file_and_print_sharing=file_and_print_sharing,
            has_microphone=rng.chance(microphone_fraction),
            has_bluetooth=rng.chance(bluetooth_fraction),
        )
        lan.attach(host)
        if docs_per_host:
            seed_user_documents(host, rng.fork("docs:%d" % index),
                                docs_per_user=docs_per_host)
        hosts.append(host)
    return lan, hosts


def place_bluetooth_neighborhood(world, hosts, devices_per_host=2,
                                 internet_connected_fraction=0.3):
    """Scatter personal devices near hosts that have bluetooth."""
    rng = world.kernel.rng.fork("bluetooth")
    placed = []
    for host in hosts:
        if not host.config.has_bluetooth:
            continue
        for index in range(devices_per_host):
            device = BluetoothDevice(
                "%s-phone-%d" % (host.hostname.lower(), index),
                kind=rng.choice(["phone", "phone", "laptop", "headset"]),
                owner="owner-of-%s" % host.hostname.lower(),
                internet_connected=rng.chance(internet_connected_fraction),
                address_book=["contact-%d" % i for i in range(rng.randint(3, 12))],
                sms_messages=["msg-%d" % i for i in range(rng.randint(0, 5))],
            )
            world.bluetooth.place_device(host, device)
            placed.append(device)
    return placed


def build_natanz_plant(world, centrifuge_count=984, workstation_count=3,
                       cascade_count=2):
    """The §II target: an air-gapped plant with a matching PLC setup.

    Returns a dict with the LAN, hosts, Step 7 app, PLC, bus, cascades,
    and safety system.  Drive vendors alternate Fararo Paya / Vacon so
    the Stuxnet fingerprint matches, as at the only site with reported
    damage.
    """
    kernel = world.kernel
    lan = Lan(kernel, "natanz-plant", internet=None,
              domain_name="plant.local")
    hosts = []
    for index in range(workstation_count):
        host = world.make_host("ENG-%02d" % index, os_version="xp",
                               file_and_print_sharing=True)
        lan.attach(host)
        hosts.append(host)
    engineering = hosts[0]
    step7 = Step7Application(engineering)
    project = step7.create_project("cascade-a24", "c:\\projects\\cascade-a24")

    bus = ProfibusBus()
    cascades = []
    per_cascade = centrifuge_count // cascade_count
    vendors = (FARARO_PAYA, VACON)
    for index in range(cascade_count):
        count = per_cascade if index < cascade_count - 1 else (
            centrifuge_count - per_cascade * (cascade_count - 1))
        cascade = CentrifugeCascade("A24-%d" % index, count,
                                    rng=kernel.rng.fork("cascade:%d" % index))
        bus.attach(FrequencyConverterDrive(
            "drv-%d" % index, vendors[index % len(vendors)], cascade,
            kernel.clock,
        ))
        cascades.append(cascade)
    plc = ProgrammableLogicController(kernel, "PLC-A24", bus).power_on()
    safety = DigitalSafetySystem(kernel, plc).arm()
    return {
        "lan": lan,
        "hosts": hosts,
        "engineering_host": engineering,
        "step7": step7,
        "project": project,
        "bus": bus,
        "cascades": cascades,
        "plc": plc,
        "safety": safety,
    }


def build_flame_infrastructure(world, domain_count=80, server_count=22,
                               default_domain_count=5):
    """The Fig. 4 platform: domains -> servers -> one attack center.

    Returns a dict with the attack center, domain pool, servers, and the
    default domain list a fresh client ships with.
    """
    kernel = world.kernel
    center = AttackCenter(kernel)
    pool = DomainPool(kernel.rng.fork("flame-domains"))
    server_ips = [world.internet.allocate_ip() for _ in range(server_count)]
    pool.register_many(domain_count, server_ips)
    servers = []
    for index, ip in enumerate(server_ips):
        domains = pool.domains_for_server(ip)
        server = CncServer(kernel, "cnc-%02d" % index,
                           center.coordinator_public_key,
                           extra_domains=domains[1:])
        center.provision_server(server, world.internet, domains, server_ip=ip)
        servers.append(server)
    default_domains = pool.domains()[:default_domain_count]
    return {
        "center": center,
        "pool": pool,
        "servers": servers,
        "default_domains": default_domains,
    }
