"""Frequency-converter drives.

§II.C: "Stuxnet will only launch the damaging payload if the PLC is
using one of two frequency converter drives: one manufactured by an
Iranian company and one by a Finnish company."  The vendor constants
below are that fingerprint.
"""

import math

#: The Iranian drive vendor the Stuxnet payload fingerprints.
FARARO_PAYA = "Fararo Paya"
#: The Finnish drive vendor the Stuxnet payload fingerprints.
VACON = "Vacon"


class FrequencyConverterDrive:
    """One drive: commands a cascade of centrifuges at a frequency.

    Integration is lazy: the drive remembers when the frequency last
    changed and applies the elapsed interval to its cascade on the next
    change or explicit :meth:`sync`.  This keeps month-long simulations
    cheap while remaining exact for piecewise-constant frequencies.
    """

    def __init__(self, ident, vendor, cascade, clock, max_frequency=1500.0):
        self.ident = ident
        self.vendor = vendor
        self.cascade = cascade
        self._clock = clock
        self.max_frequency = max_frequency
        self.frequency = 0.0
        self._last_update = clock.now
        #: (time, frequency) command history — the bus forensics surface.
        self.command_history = [(clock.now, 0.0)]

    def sync(self):
        """Integrate cascade physics up to the current virtual time."""
        now = self._clock.now
        elapsed = now - self._last_update
        if elapsed > 0:
            self.cascade.integrate(self.frequency, elapsed, now=now)
            self._last_update = now

    def set_frequency(self, frequency):
        """Command a new output frequency (clamped to the drive's ceiling).

        NaN has no place to clamp to — ``min``/``max`` would quietly
        turn it into a 0 Hz command — so it raises ``ValueError``.
        """
        frequency = float(frequency)
        if math.isnan(frequency):
            raise ValueError("drive %r cannot be commanded to a NaN "
                             "frequency" % (self.ident,))
        self.sync()
        frequency = max(0.0, min(frequency, self.max_frequency))
        self.frequency = frequency
        self.command_history.append((self._clock.now, frequency))
        return frequency

    def read_frequency(self):
        """Actual output frequency right now."""
        return self.frequency

    def __repr__(self):
        return "FrequencyConverterDrive(%r, %s, %.0f Hz)" % (
            self.ident, self.vendor, self.frequency,
        )
