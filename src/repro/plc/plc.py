"""The programmable logic controller.

"PLC is a small computer system that operates in real time and plays the
role of interface between the software application (Step 7) and the
industrial physical machines ... Once the PLC is configured, the Windows
computer can be unplugged and PLC will function by itself." (§II.A)

The PLC owns a Profibus bus, stores code blocks, and runs a scan cycle on
the simulation kernel.  Monitoring reads (what the HMI and the digital
safety system consume) go through :meth:`reported_frequency`, which
infected blocks can override — the PLC-rootkit replay trick.
"""

from repro.plc.blocks import CodeBlock
from repro.plc.centrifuge import NOMINAL_FREQUENCY


class ProgrammableLogicController:
    """One S7-315-like controller."""

    #: Scan interval in virtual seconds.  Real scan cycles are
    #: milliseconds; the simulation only needs decisions at the cadence
    #: the physics changes, and the attack phases last minutes-to-hours.
    SCAN_INTERVAL = 60.0

    def __init__(self, kernel, name, bus):
        self.kernel = kernel
        self.name = name
        self.bus = bus
        self._blocks = {}
        #: Blocks in name order, rebuilt by :meth:`store_block` and
        #: :meth:`delete_block` so a scan never re-sorts.
        self._block_order = ()
        self._scan_task = None
        self.scan_count = 0
        #: Setpoint the legitimate control program maintains.
        self.setpoint = NOMINAL_FREQUENCY
        #: When set, monitoring reads return this instead of the bus
        #: truth (the Stuxnet replay-to-operator trick).
        self.reported_frequency_override = None
        #: When True the legitimate control program stands down — an
        #: injected block that runs first has taken over the drives.
        self.control_suppressed = False
        self._install_default_program()

    # -- program -------------------------------------------------------------

    def _install_default_program(self):
        def ob1_logic(plc):
            # Maintain the enrichment setpoint on every drive.
            if plc.control_suppressed:
                return
            for drive in plc.bus.devices():
                if abs(drive.read_frequency() - plc.setpoint) > 0.5:
                    plc.bus.command_frequency(drive.ident, plc.setpoint)

        def ob1_idle(plc):
            # ob1_logic would command no drive.
            return plc.control_suppressed or not any(
                abs(drive.read_frequency() - plc.setpoint) > 0.5
                for drive in plc.bus.devices())

        self.store_block(CodeBlock("OB1", "OB", logic=ob1_logic,
                                   origin="engineer", idle=ob1_idle))

    def store_block(self, block):
        """Write a block into PLC memory (the raw, unhooked path)."""
        self._blocks[block.name.upper()] = block
        self._reorder_blocks()
        return block

    def read_block(self, name):
        """Read a block from PLC memory (raw path); None when absent."""
        return self._blocks.get(name.upper())

    def delete_block(self, name):
        if self._blocks.pop(name.upper(), None) is None:
            return False
        self._reorder_blocks()
        return True

    def _reorder_blocks(self):
        self._block_order = tuple(
            self._blocks[name] for name in sorted(self._blocks))

    def block_names(self):
        return sorted(self._blocks)

    def blocks_with_origin(self, origin):
        return [b for b in self._blocks.values() if b.origin == origin]

    # -- scan cycle -----------------------------------------------------------

    def power_on(self):
        """Start the scan cycle on the kernel."""
        if self._scan_task is None:
            self._scan_task = self.kernel.every(
                self.SCAN_INTERVAL, self._scan, "plc-scan:%s" % self.name,
                idle=self._scan_idle, skipped=self._scans_skipped,
            )
        return self

    def power_off(self):
        if self._scan_task is not None:
            self._scan_task.stop()
            self._scan_task = None

    @property
    def running(self):
        return self._scan_task is not None

    def _scan(self):
        self.scan_count += 1
        # Organisation blocks execute each scan, in name order, which
        # puts an injected "OB0" ahead of the legitimate OB1 — mirroring
        # how Stuxnet's code runs before the original program.  Blocks
        # stored or deleted by a running block take effect next scan.
        for block in self._block_order:
            if block.kind == "OB" and block.logic is not None:
                block.logic(self)

    def _scan_idle(self):
        """Whether a scan now would change nothing but :attr:`scan_count`."""
        for block in self._block_order:
            if block.kind == "OB" and block.logic is not None and (
                    block.idle is None or not block.idle(self)):
                return False
        return True

    def _scans_skipped(self, count):
        self.scan_count += count

    # -- monitoring (what HMI and safety systems read) ---------------------------

    def actual_frequency(self):
        """Ground truth: mean of the drives' real output frequencies."""
        drives = self.bus.devices()
        if not drives:
            return 0.0
        return sum([d.read_frequency() for d in drives]) / len(drives)

    def reported_frequency(self):
        """What monitoring consumers are told (rootkit can override)."""
        if self.reported_frequency_override is not None:
            return self.reported_frequency_override
        return self.actual_frequency()

    def __repr__(self):
        return "PLC(%r, blocks=%s, running=%s)" % (
            self.name, self.block_names(), self.running,
        )
