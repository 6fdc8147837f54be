"""A signature-driven antivirus vendor and endpoint product.

Models the arms race §V.D describes: a vendor that ships a new rule some
days after first seeing a sample, and endpoints that scan on a schedule.
Because endpoints scan through the API view, rootkit-hidden files evade
them; and because rules match concrete bytes/names, a malware that
*updates itself* (Flame's module churn) resets the vendor's clock —
which is exactly what the modularity ablation measures.
"""

from repro.winsim.eventlog import EventLogEntry
from repro.analysis.signatures import Signature, SignatureEngine


class AvVendor:
    """Builds detection rules with a realistic lag after sample capture."""

    def __init__(self, kernel, response_days=14.0):
        self.kernel = kernel
        self.response_lag = response_days * 86400.0
        self.engine = SignatureEngine()
        #: pattern bytes -> time first submitted.
        self._submissions = {}

    def submit_sample(self, family, pattern, name_hint=None):
        """A sample reached the vendor; a rule ships after the lag.

        Returns the Signature that will become active.
        """
        key = bytes(pattern)
        if key in self._submissions:
            return None
        now = self.kernel.clock.now
        self._submissions[key] = now
        signature = Signature(
            "%s-auto-%d" % (family, len(self._submissions)), family,
            byte_patterns=[key],
            name_patterns=[name_hint] if name_hint else (),
            released_at=now + self.response_lag,
        )
        self.engine.add(signature)
        return signature

    def rules_active_now(self):
        return self.engine.active_rules(self.kernel.clock.now)


class AntivirusProduct:
    """The endpoint agent: periodic scans through the API view."""

    def __init__(self, kernel, host, vendor, scan_interval=86400.0):
        self.kernel = kernel
        self.host = host
        self.vendor = vendor
        self.detections = []
        self._task = kernel.every(scan_interval, self.scan_now,
                                  "av-scan:%s" % host.hostname)

    def stop(self):
        self._task.stop()

    def scan_now(self):
        """One scan pass.  Detections land in the Windows event log —
        the very channel Flame's adventcfg watches."""
        findings = self.vendor.engine.scan_host(
            self.host, at_time=self.kernel.clock.now, raw=False
        )
        for signature, path in findings:
            if (signature.name, path) in self.detections:
                continue
            self.detections.append((signature.name, path))
            self.host.event_log.warning(
                "antivirus",
                "threat %s detected in %s" % (signature.name, path),
            )
        return findings

    @property
    def alert_count(self):
        return len([e for e in self.host.event_log.entries(
            severity=EventLogEntry.WARNING, source="antivirus")])
