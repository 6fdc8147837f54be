"""Profibus: the field bus between the PLC and its drives.

§II.C footnote: "Profibus is a standard industrial network bus used for
distributed I/O ... a standard to link PLC to the physical devices."
Stuxnet fires only when the PLC talks through a Profibus communications
processor, so the bus carries an identifying CP model string.
"""

#: The communications-processor model Stuxnet fingerprints.
PROFIBUS_CP_MODEL = "CP 342-5"


class ProfibusError(Exception):
    """Raised when the bus topology is misconfigured."""


class ProfibusBus:
    """Message bus connecting one PLC to its frequency-converter drives."""

    def __init__(self, cp_model=PROFIBUS_CP_MODEL):
        self.cp_model = cp_model
        self._devices = {}
        #: Drives in ident order, rebuilt by :meth:`attach` (the only
        #: mutator) so the per-scan loops never re-sort.
        self._drives = ()
        #: (command, device, value) log — what bus monitoring sees.
        self.message_log = []

    def attach(self, drive):
        """Connect a drive; raises :class:`ProfibusError` if its
        ``ident`` is already on this bus."""
        if drive.ident in self._devices:
            raise ProfibusError(
                "device ident already on bus: %r" % (drive.ident,))
        self._devices[drive.ident] = drive
        self._drives = tuple(
            self._devices[k] for k in sorted(self._devices))
        return drive

    def devices(self):
        """The attached drives in ident order, as an immutable tuple."""
        return self._drives

    def device(self, ident):
        return self._devices.get(ident)

    def vendors(self):
        """Distinct drive vendors on the bus — the trigger fingerprint."""
        return sorted({d.vendor for d in self._devices.values()})

    def command_frequency(self, ident, frequency):
        """PLC-side write: set one drive's frequency."""
        drive = self._devices.get(ident)
        if drive is None:
            raise KeyError("no device %r on bus" % ident)
        actual = drive.set_frequency(frequency)
        self.message_log.append(("set-frequency", ident, actual))
        return actual

    def command_all(self, frequency):
        """Set every drive on the bus to the same frequency."""
        for drive in self._drives:
            self.command_frequency(drive.ident, frequency)

    def read_frequency(self, ident):
        """PLC-side read: one drive's present output frequency."""
        drive = self._devices.get(ident)
        if drive is None:
            raise KeyError("no device %r on bus" % ident)
        value = drive.read_frequency()
        self.message_log.append(("read-frequency", ident, value))
        return value

    def sync_all(self):
        """Bring every cascade's physics up to the current time."""
        for drive in self._drives:
            drive.sync()
