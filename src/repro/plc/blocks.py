"""PLC code blocks (the S7 OB/FC/DB model).

A block's ``logic`` is a python callable ``logic(plc)`` — the
simulation's stand-in for MC7 bytecode — executed on each scan cycle for
organisation blocks.  Data blocks carry a dict instead.

An organisation block may also carry ``idle(plc)``: true when running
``logic`` now would change nothing.  A scan in which every OB's
predicate holds is idle, and the kernel may skip it (see
:class:`repro.sim.PeriodicTask`); an OB with logic but no predicate
makes every scan run.
"""


class CodeBlock:
    """One S7 block: organisation (OB), function (FC), or data (DB)."""

    KINDS = ("OB", "FC", "DB")

    def __init__(self, name, kind, logic=None, data=None, origin="engineer",
                 idle=None):
        if kind not in self.KINDS:
            raise ValueError("unknown block kind: %r" % kind)
        self.name = name
        self.kind = kind
        self.logic = logic
        self.idle = idle
        self.data = dict(data) if data else {}
        #: Provenance: "engineer" for legitimate blocks, a malware label
        #: for injected ones.  Forensics keys on this; the PLC rootkit's
        #: job is to keep infected origins invisible over the normal
        #: read channel.
        self.origin = origin

    def copy(self):
        return CodeBlock(self.name, self.kind, self.logic, dict(self.data),
                         origin=self.origin, idle=self.idle)

    def __repr__(self):
        return "CodeBlock(%s %s, origin=%s)" % (self.kind, self.name, self.origin)
