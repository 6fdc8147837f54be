"""A YARA-like signature engine.

Rules match byte patterns (or path fragments) against file contents and
names; the stock rule set covers the artefacts the three families drop.
"""


class Signature:
    """One detection rule."""

    def __init__(self, name, family, byte_patterns=(), name_patterns=(),
                 require_all=False, released_at=0.0):
        if not byte_patterns and not name_patterns:
            raise ValueError("signature %r matches nothing" % name)
        self.name = name
        self.family = family
        self.byte_patterns = [p if isinstance(p, bytes) else p.encode("utf-8")
                              for p in byte_patterns]
        self.name_patterns = [p.lower() for p in name_patterns]
        self.require_all = require_all
        #: Virtual time the AV vendor shipped this rule (0 = always had).
        self.released_at = released_at

    def matches_bytes(self, data):
        if not self.byte_patterns:
            return False
        hits = [pattern in data for pattern in self.byte_patterns]
        return all(hits) if self.require_all else any(hits)

    def matches_name(self, path):
        lowered = path.lower()
        return any(pattern in lowered for pattern in self.name_patterns)

    def matches_file(self, path, data):
        return self.matches_name(path) or self.matches_bytes(data)

    def __repr__(self):
        return "Signature(%r, family=%s)" % (self.name, self.family)


class SignatureEngine:
    """Scan bytes, files, or entire hosts with a rule set."""

    def __init__(self, signatures=()):
        self.signatures = list(signatures)

    def add(self, signature):
        self.signatures.append(signature)

    def active_rules(self, at_time=None):
        if at_time is None:
            return list(self.signatures)
        return [s for s in self.signatures if s.released_at <= at_time]

    def scan_bytes(self, data, at_time=None):
        return [s for s in self.active_rules(at_time) if s.matches_bytes(data)]

    def scan_host(self, host, at_time=None, raw=True):
        """Scan every file on a host.

        ``raw=True`` is a forensic scan (sees rootkit-hidden files);
        ``raw=False`` is what a live AV sees *through* the rootkit —
        comparing the two is how an analyst proves hiding happened.
        """
        findings = []
        rules = self.active_rules(at_time)
        for record in host.vfs.walk("c:", raw=raw):
            data = record.data
            for signature in rules:
                if signature.matches_file(record.path, data):
                    findings.append((signature, record.path))
        return findings

    def families_found(self, findings):
        return sorted({signature.family for signature, _ in findings})


def default_signatures():
    """The stock rules for the campaign's three families."""
    return [
        Signature("stuxnet-dropper", "stuxnet",
                  byte_patterns=[b"stuxnet dropper"],
                  name_patterns=["winsta.exe", "oem7a.pnf"]),
        Signature("stuxnet-rootkit-drivers", "stuxnet",
                  byte_patterns=[b"stuxnet loader driver",
                                 b"stuxnet hider driver"],
                  name_patterns=["mrxcls.sys", "mrxnet.sys"]),
        Signature("stuxnet-fake-s7-dll", "stuxnet",
                  byte_patterns=[b"stuxnet compromised s7 library"],
                  name_patterns=["s7otbxsx.dll"]),
        Signature("flame-main-module", "flame",
                  name_patterns=["mssecmgr.ocx", "advnetcfg.ocx",
                                 "msglu32.ocx", "soapr32.ocx"]),
        Signature("shamoon-disttrack", "shamoon",
                  byte_patterns=[b"shamoon dropper logic",
                                 b"shamoon wiper", b"shamoon reporter"],
                  name_patterns=["trksvr.exe", "netinit.exe",
                                 "f1.inf", "f2.inf"]),
        Signature("shamoon-eldos-abuse", "shamoon",
                  byte_patterns=[b"eldos rawdisk kernel driver"],
                  name_patterns=["drdisk.sys"]),
    ]
