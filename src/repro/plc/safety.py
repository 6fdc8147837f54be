"""The digital safety system.

§II.C footnote: "Digital safety systems are needed when a human operator
cannot act quick enough in critical situations."  The system polls the
PLC's *reported* frequency — which is the point: Stuxnet "records
previous and normal operating frequencies and then feeds them to the PLC
operator as well as the digital safety system", so a replay at the
reporting layer blinds both.
"""


class DigitalSafetySystem:
    """Trips the cascade when the monitored frequency leaves the safe band."""

    #: How often the safety controller samples (virtual seconds).
    POLL_INTERVAL = 30.0

    def __init__(self, kernel, plc, safe_band=(700.0, 1300.0)):
        self.kernel = kernel
        self.plc = plc
        self.safe_band = safe_band
        self.tripped = False
        self.trip_time = None
        self.samples_taken = 0
        self._task = None

    def arm(self):
        """Start polling."""
        if self._task is None:
            self._task = self.kernel.every(
                self.POLL_INTERVAL, self._poll,
                "safety-poll:%s" % self.plc.name,
                idle=self._poll_idle, skipped=self._polls_skipped,
            )
        return self

    def disarm(self):
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _poll(self):
        if self.tripped:
            return
        self.samples_taken += 1
        frequency = self.plc.reported_frequency()
        low, high = self.safe_band
        if frequency != 0.0 and not low <= frequency <= high:
            self.trip()

    def _poll_idle(self):
        """Whether a poll now would change nothing but :attr:`samples_taken`."""
        if self.tripped:
            return True
        frequency = self.plc.reported_frequency()
        low, high = self.safe_band
        return frequency == 0.0 or low <= frequency <= high

    def _polls_skipped(self, count):
        if not self.tripped:
            self.samples_taken += count

    def trip(self):
        """Emergency shutdown: command every drive to zero."""
        self.tripped = True
        self.trip_time = self.kernel.clock.now
        self.plc.bus.command_all(0.0)
        self.kernel.trace.record(
            "safety-system", "emergency-trip", self.plc.name,
            reported_frequency=self.plc.reported_frequency(),
        )

    def __repr__(self):
        return "DigitalSafetySystem(%s, tripped=%s)" % (self.plc.name, self.tripped)
