"""Turn-key campaigns: the scenarios behind the paper's three sections."""

from datetime import datetime, timedelta, timezone

from repro.core.environments import (
    CampaignWorld,
    build_flame_infrastructure,
    build_natanz_plant,
    build_office_lan,
    place_bluetooth_neighborhood,
)
from repro.malware.flame import Flame, FlameConfig, FlameOperatorConsole
from repro.malware.shamoon import Shamoon, ShamoonConfig, ShamoonReportSink
from repro.malware.stuxnet import (
    STUXNET_DOMAINS,
    Stuxnet,
    StuxnetCncService,
    StuxnetConfig,
)
from repro.netsim import run_windows_update
from repro.usb import UsbDrive

SECONDS_PER_DAY = 86400.0


class StuxnetNatanzCampaign:
    """§II / Fig. 1: USB seeding → Windows → Step 7 → PLC → centrifuges."""

    def __init__(self, seed=2010, centrifuge_count=984, workstation_count=3,
                 duration_days=365, stuxnet_config=None):
        self.world = CampaignWorld(seed=seed)
        self.plant = build_natanz_plant(self.world,
                                        centrifuge_count=centrifuge_count,
                                        workstation_count=workstation_count)
        self.cnc = StuxnetCncService(self.world.internet)
        self.stuxnet = Stuxnet(self.world.kernel, self.world.pki,
                               cnc_service=self.cnc, config=stuxnet_config)
        self.duration_days = duration_days
        self.result = None

    def cnc_domains(self):
        """The campaign's C&C domains, for fault-profile targeting."""
        return list(STUXNET_DOMAINS)

    def fault_epoch(self):
        """Virtual time at which the campaign's action begins."""
        return 0.0

    def run(self, settle_days=2):
        """Execute the whole kill chain and return the measurements.

        Each stage runs inside a named kernel span, so the exported
        trace shows the Fig. 1 kill chain as a tree of intervals.
        """
        kernel = self.world.kernel
        plant = self.plant
        with kernel.span("stuxnet.campaign", days=self.duration_days):
            # Let the plant reach steady state first.
            with kernel.span("stuxnet.settle", days=settle_days):
                kernel.run_for(settle_days * SECONDS_PER_DAY)
            baseline_freq = plant["plc"].actual_frequency()

            # Initial vector: a contractor's weaponised USB stick (§V.E).
            with kernel.span("stuxnet.usb_entry"):
                stick = self.stuxnet.weaponize_drive(
                    UsbDrive("contractor-stick"))
                plant["engineering_host"].insert_usb(stick)

            # The engineer's routine: open the project, program, monitor.
            step7 = plant["step7"]
            with kernel.span("stuxnet.step7_infect"):
                step7.open_project(plant["project"].folder)
                step7.download_project(plant["project"], plant["plc"])
                step7.monitor_frequency(plant["plc"])

            with kernel.span("stuxnet.operation",
                             days=self.duration_days):
                kernel.run_for(self.duration_days * SECONDS_PER_DAY)
                plant["bus"].sync_all()

        cascades = plant["cascades"]
        total = sum(len(c) for c in cascades)
        destroyed = sum(c.destroyed_count() for c in cascades)
        payloads = self.stuxnet.armed_plc_payloads()
        operator_view = step7.monitor_frequency(plant["plc"])
        blocks_visible = step7.list_plc_blocks(plant["plc"])
        self.result = {
            "baseline_frequency": baseline_freq,
            "infected_hosts": self.stuxnet.infection_count,
            "infection_vectors": self.stuxnet.infections_by_vector(),
            "payloads_armed": len(payloads),
            "attack_cycles": payloads[0].cycles_completed if payloads else 0,
            "centrifuges_total": total,
            "centrifuges_destroyed": destroyed,
            "destruction_fraction": destroyed / total if total else 0.0,
            "enrichment_output": sum(c.total_enrichment() for c in cascades),
            "safety_tripped": plant["safety"].tripped,
            "operator_view_hz": operator_view,
            "stux_blocks_visible_to_engineer": [
                b for b in blocks_visible if "STUX" in b.upper()],
            "stux_blocks_on_plc": [
                b for b in plant["plc"].block_names() if "STUX" in b.upper()],
        }
        return self.result


class FlameEspionageCampaign:
    """§III / Figs. 2-5: MITM spread, two-phase exfil, C&C, suicide."""

    def __init__(self, seed=2012, victim_count=12, domain_count=80,
                 server_count=22, duration_weeks=4, flame_config=None,
                 docs_per_host=8):
        self.world = CampaignWorld(seed=seed)
        self.infra = build_flame_infrastructure(self.world,
                                                domain_count=domain_count,
                                                server_count=server_count)
        self.lan, self.hosts = build_office_lan(
            self.world, "ministry", victim_count,
            docs_per_host=docs_per_host, microphone_fraction=0.3,
            bluetooth_fraction=0.3,
        )
        place_bluetooth_neighborhood(self.world, self.hosts)
        self.flame = Flame(
            self.world.kernel, self.world.pki,
            default_domains=self.infra["default_domains"],
            update_registry=self.world.update_registry,
            coordinator_public_key=self.infra["center"].coordinator_public_key,
            bluetooth_neighborhood=self.world.bluetooth,
            config=flame_config,
        )
        self.console = FlameOperatorConsole(self.infra["center"])
        self.duration_weeks = duration_weeks
        self.result = None

    def cnc_domains(self):
        """The campaign's C&C domains, for fault-profile targeting."""
        return list(self.infra["default_domains"])

    def fault_epoch(self):
        """Virtual time at which the campaign's action begins."""
        return 0.0

    def run(self, suicide_at_end=False):
        kernel = self.world.kernel
        with kernel.span("flame.campaign", weeks=self.duration_weeks):
            # Week one: patient zero collects alone.
            with kernel.span("flame.patient_zero"):
                self.flame.infect(self.hosts[0], via="initial")
                kernel.run_for(7 * SECONDS_PER_DAY)
            # The rest of the LAN catches the fake Windows update (Fig. 2).
            with kernel.span("flame.wu_spread",
                             hosts=len(self.hosts) - 1):
                for host in self.hosts[1:]:
                    self.lan.browser_start(host)
                    run_windows_update(host, self.lan,
                                       self.world.update_registry)
            # Remaining weeks: daily operator review cycles.
            remaining_days = max(self.duration_weeks * 7 - 7, 1)
            with kernel.span("flame.operations", days=remaining_days):
                for _ in range(remaining_days):
                    kernel.run_for(SECONDS_PER_DAY)
                    self.console.review_cycle()
            if suicide_at_end:
                with kernel.span("flame.suicide_broadcast"):
                    self.infra["center"].broadcast_suicide()
                    kernel.run_for(2 * SECONDS_PER_DAY)
        servers = self.infra["servers"]
        center = self.infra["center"]
        self.result = {
            "victims_infected": len(self.flame.infection_log),
            "infection_vectors": self.flame.infections_by_vector(),
            "domains_registered": len(self.infra["pool"]),
            "server_count": len(servers),
            "stolen_bytes_total": sum(s.bytes_received for s in servers),
            "stolen_bytes_per_week": (
                sum(s.bytes_received for s in servers)
                / max(self.duration_weeks, 1)),
            "entries_uploaded": self.flame.stats["entries_uploaded"],
            "metadata_reviews": self.console.metadata_reviewed,
            "files_requested": self.console.files_requested,
            "documents_recovered": self.console.documents_recovered,
            "module_updates_applied": self.flame.stats["updates_applied"],
            "active_infections": len(self.flame.active_infections()),
            "footprint_bytes": (
                self.flame.footprint_bytes(self.hosts[0])
                if self.hosts[0].is_infected_by("flame") else 0),
        }
        return self.result


class ShamoonWiperCampaign:
    """§IV / Fig. 6: the date-fused wiper sweeping an organisation."""

    #: The paper's infection count at Saudi Aramco.
    ARAMCO_SCALE = 30_000

    def __init__(self, seed=2012, host_count=2_000, docs_per_host=3,
                 start=datetime(2012, 8, 1, tzinfo=timezone.utc),
                 end=datetime(2012, 8, 20, tzinfo=timezone.utc),
                 shamoon_config=None):
        self.world = CampaignWorld(seed=seed)
        self.sink = ShamoonReportSink()
        self.world.internet.register_site("home.attacker.net", self.sink.server)
        self.lan, self.hosts = build_office_lan(
            self.world, "aramco", host_count, docs_per_host=docs_per_host,
            microphone_fraction=0.0, bluetooth_fraction=0.0,
        )
        config = shamoon_config or ShamoonConfig(
            report_domain="home.attacker.net")
        self.shamoon = Shamoon(self.world.kernel, self.world.pki,
                               self.lan.domain_admin_credential, config)
        self.start = start
        self.end = end
        self.result = None

    def cnc_domains(self):
        """The campaign's C&C domains, for fault-profile targeting."""
        domain = self.shamoon.config.report_domain
        return [domain] if domain else []

    def fault_epoch(self):
        """Virtual time at which the campaign's action begins.

        Shamoon idles until the patient-zero date, so faults anchored
        to t=0 would expire years before the wiper moves.
        """
        return self.world.kernel.clock.to_seconds(self.start)

    def run(self):
        kernel = self.world.kernel
        with kernel.span("shamoon.campaign", hosts=len(self.hosts)):
            # The wiper idles until the operators strike (§IV).
            with kernel.span("shamoon.dormant"):
                kernel.run(until=kernel.clock.to_seconds(self.start))
            with kernel.span("shamoon.patient_zero"):
                self.shamoon.infect(self.hosts[0], via="initial")
            with kernel.span("shamoon.operation"):
                kernel.run(until=kernel.clock.to_seconds(self.end))
        summary = self.shamoon.destruction_summary()
        usable = sum(1 for h in self.hosts if h.usable())
        first_wipe = kernel.trace.first(actor="shamoon", action="host-wiped")
        self.result = dict(summary)
        self.result.update({
            "host_count": len(self.hosts),
            "hosts_usable_after": usable,
            "infected_hosts": self.shamoon.infection_count,
            "reports_received": len(self.sink.reports),
            "files_reported": self.sink.total_files_reported(),
            "first_wipe_at": (
                (kernel.clock.epoch
                 + timedelta(seconds=first_wipe.time)).isoformat()
                if first_wipe else None),
            "overwrite_fraction": (
                summary["bytes_overwritten"] / summary["bytes_intended"]
                if summary["bytes_intended"] else 0.0),
        })
        return self.result
