"""PLC, Profibus, Step 7, the trojanised DLL, and the safety system."""

import pytest

from repro.plc import (
    CentrifugeCascade,
    DigitalSafetySystem,
    FARARO_PAYA,
    FrequencyConverterDrive,
    ProfibusBus,
    ProfibusError,
    ProgrammableLogicController,
    Step7Application,
    TrojanizedS7Library,
    VACON,
)
from repro.plc.blocks import CodeBlock
from repro.plc.centrifuge import NOMINAL_FREQUENCY


@pytest.fixture
def rig(kernel):
    bus = ProfibusBus()
    cascade_a = CentrifugeCascade("A", 10, rng=kernel.rng.fork("a"))
    cascade_b = CentrifugeCascade("B", 10, rng=kernel.rng.fork("b"))
    bus.attach(FrequencyConverterDrive("drv-a", FARARO_PAYA, cascade_a,
                                       kernel.clock))
    bus.attach(FrequencyConverterDrive("drv-b", VACON, cascade_b,
                                       kernel.clock))
    plc = ProgrammableLogicController(kernel, "PLC-1", bus)
    return {"bus": bus, "plc": plc,
            "cascades": (cascade_a, cascade_b)}


def test_code_block_kinds_validated():
    with pytest.raises(ValueError):
        CodeBlock("X", "ZZ")


def test_bus_vendors_and_devices(rig):
    assert rig["bus"].vendors() == sorted([FARARO_PAYA, VACON])
    assert len(rig["bus"].devices()) == 2
    with pytest.raises(KeyError):
        rig["bus"].command_frequency("ghost", 100)
    with pytest.raises(KeyError):
        rig["bus"].read_frequency("ghost")


def test_scan_cycle_drives_to_setpoint(kernel, rig):
    plc = rig["plc"].power_on()
    kernel.run_for(300.0)
    assert abs(plc.actual_frequency() - NOMINAL_FREQUENCY) < 1.0
    assert plc.scan_count >= 4
    plc.power_off()
    assert not plc.running


def test_control_suppression_stops_ob1(kernel, rig):
    plc = rig["plc"].power_on()
    kernel.run_for(120.0)
    plc.control_suppressed = True
    rig["bus"].command_all(1410.0)
    kernel.run_for(300.0)
    assert plc.actual_frequency() == 1410.0  # OB1 stood down


def test_reported_frequency_override(rig):
    plc = rig["plc"]
    rig["bus"].command_all(1410.0)
    assert plc.actual_frequency() == 1410.0
    plc.reported_frequency_override = NOMINAL_FREQUENCY
    assert plc.reported_frequency() == NOMINAL_FREQUENCY
    plc.reported_frequency_override = None
    assert plc.reported_frequency() == 1410.0


def test_block_storage_and_origins(rig):
    plc = rig["plc"]
    plc.store_block(CodeBlock("FC100", "FC", origin="engineer"))
    plc.store_block(CodeBlock("OB0_EVIL", "OB", origin="malware"))
    assert set(plc.block_names()) == {"FC100", "OB0_EVIL", "OB1"}
    assert [b.name for b in plc.blocks_with_origin("malware")] == ["OB0_EVIL"]
    assert plc.delete_block("FC100")
    assert not plc.delete_block("FC100")


def test_injected_ob_runs_before_ob1(kernel, rig):
    order = []
    plc = rig["plc"]
    plc.store_block(CodeBlock("OB0_FIRST", "OB",
                              logic=lambda p: order.append("injected")))
    plc.read_block("OB1").logic = lambda p: order.append("ob1")
    plc.power_on()
    kernel.run_for(61.0)
    assert order[:2] == ["injected", "ob1"]


def test_block_changes_take_effect_on_the_next_scan(kernel, rig):
    order = []
    plc = rig["plc"]
    plc.read_block("OB1").logic = lambda p: order.append("ob1")
    plc.power_on()
    kernel.run_for(61.0)
    assert order == ["ob1"]
    plc.store_block(CodeBlock("OB0_LATE", "OB",
                              logic=lambda p: order.append("late")))
    kernel.run_for(60.0)
    assert order == ["ob1", "late", "ob1"]
    assert plc.delete_block("OB0_LATE")
    kernel.run_for(60.0)
    assert order == ["ob1", "late", "ob1", "ob1"]


def test_drive_attached_after_power_on_is_controlled(kernel, rig):
    bus, plc = rig["bus"], rig["plc"].power_on()
    kernel.run_for(61.0)
    assert plc.actual_frequency() == NOMINAL_FREQUENCY
    cascade_c = CentrifugeCascade("C", 10, rng=kernel.rng.fork("c"))
    late = bus.attach(FrequencyConverterDrive("drv-c", VACON, cascade_c,
                                              kernel.clock))
    assert bus.devices()[-1] is late
    assert plc.actual_frequency() == pytest.approx(2 * NOMINAL_FREQUENCY / 3)
    bus.command_all(500.0)
    assert late.read_frequency() == 500.0
    kernel.run_for(60.0)  # OB1 brings the new drive to the setpoint too
    assert plc.actual_frequency() == NOMINAL_FREQUENCY


def test_bus_devices_cannot_change_the_bus(rig):
    bus = rig["bus"]
    listed = bus.devices()
    # A tuple: callers can iterate and index it, but not reorder or
    # drop the bus's drives through it.
    assert isinstance(listed, tuple)
    assert bus.devices() is listed
    assert [drive.ident for drive in listed] == ["drv-a", "drv-b"]


def test_bus_rejects_duplicate_ident(kernel, rig):
    bus = rig["bus"]
    original = bus.device("drv-a")
    impostor = FrequencyConverterDrive(
        "drv-a", VACON, CentrifugeCascade("X", 5, rng=kernel.rng.fork("x")),
        kernel.clock)
    with pytest.raises(ProfibusError, match="drv-a"):
        bus.attach(impostor)
    assert bus.device("drv-a") is original
    assert bus.devices() == (original, bus.device("drv-b"))


def test_safety_system_trips_on_real_overspeed(kernel, rig):
    plc = rig["plc"]
    safety = DigitalSafetySystem(kernel, plc).arm()
    rig["bus"].command_all(1410.0)
    kernel.run_for(60.0)
    assert safety.tripped
    assert plc.actual_frequency() == 0.0  # emergency shutdown


def test_safety_system_blinded_by_replay(kernel, rig):
    plc = rig["plc"]
    safety = DigitalSafetySystem(kernel, plc).arm()
    plc.reported_frequency_override = NOMINAL_FREQUENCY
    rig["bus"].command_all(1410.0)
    kernel.run_for(3600.0)
    assert not safety.tripped
    assert safety.samples_taken > 0


def test_safety_ignores_powered_down_cascade(kernel, rig):
    safety = DigitalSafetySystem(kernel, rig["plc"]).arm()
    kernel.run_for(600.0)  # frequency 0.0 the whole time
    assert not safety.tripped
    safety.disarm()


def test_step7_roundtrip_and_hookability(kernel, host_factory, rig):
    host = host_factory("ENG", os_version="xp")
    step7 = Step7Application(host)
    assert "step7" in host.installed_software
    assert host.step7 is step7
    plc = rig["plc"]
    step7.write_block(plc, "FC7", kind="FC")
    assert "FC7" in step7.list_plc_blocks(plc)
    uploaded = step7.upload_block(plc, "FC7")
    assert uploaded.name == "FC7"
    assert uploaded is not plc.read_block("FC7")  # snapshot copy
    assert step7.monitor_frequency(plc) == plc.reported_frequency()


def test_step7_projects(host_factory):
    host = host_factory("ENG2", os_version="xp")
    step7 = Step7Application(host)
    project = step7.create_project("cascade", "c:\\projects\\cascade")
    assert step7.open_project("c:\\projects\\cascade") is project
    with pytest.raises(KeyError):
        step7.open_project("c:\\projects\\ghost")


def test_trojanized_library_hides_and_protects(rig):
    from repro.plc.s7otbx import S7CommunicationLibrary

    plc = rig["plc"]
    plc.store_block(CodeBlock("OB0_STUX", "OB", origin="stuxnet"))
    intercepts = []
    trojan = TrojanizedS7Library(S7CommunicationLibrary(), "stuxnet",
                                 on_intercept=lambda op, n: intercepts.append((op, n)))
    assert "OB0_STUX" not in trojan.list_blocks(plc)
    assert trojan.read_block(plc, "OB0_STUX") is None
    assert not trojan.delete_block(plc, "OB0_STUX")
    replacement = CodeBlock("OB0_STUX", "OB", origin="engineer")
    trojan.write_block(plc, replacement)
    assert plc.read_block("OB0_STUX").origin == "stuxnet"  # write swallowed
    assert {op for op, _ in intercepts} == {"list", "read", "delete", "write"}
    # Non-protected blocks pass through untouched.
    trojan.write_block(plc, CodeBlock("FC1", "FC"))
    assert trojan.read_block(plc, "FC1").name == "FC1"


# -- idle scans and polls: skipped by the kernel, counted exactly ----------------

def _count_calls(owner, name):
    """Replace a bound method on ``owner`` with a call-counting one."""
    calls = []
    method = getattr(owner, name)

    def counted():
        calls.append(owner.kernel.now)
        method()

    setattr(owner, name, counted)
    return calls


def test_idle_day_counts_every_scan_and_poll(kernel, rig):
    plc = rig["plc"]
    safety = DigitalSafetySystem(kernel, plc)
    scans = _count_calls(plc, "_scan")
    polls = _count_calls(safety, "_poll")
    plc.power_on()
    safety.arm()
    kernel.run_for(86400.0)
    assert plc.scan_count == 1440
    assert safety.samples_taken == 2880
    assert kernel.dispatched_events == 1440 + 2880
    assert kernel.now == 86400.0
    # Only the first scan commands the drives; every later scan and
    # every poll is idle and is advanced without a callback.
    assert scans == [60.0]
    assert polls == []


def test_out_of_band_command_mid_window_trips_at_the_next_poll(kernel, rig):
    plc = rig["plc"]
    safety = DigitalSafetySystem(kernel, plc)
    plc.power_on()
    safety.arm()
    kernel.call_at(10_035.0, lambda: rig["bus"].command_all(1410.0),
                   "overspeed")
    kernel.run_for(86400.0)
    assert safety.tripped
    assert safety.trip_time == 10_050.0
    assert safety.samples_taken == 335
    assert plc.scan_count == 1440


def test_ob_without_idle_predicate_makes_every_scan_run(kernel, rig):
    plc = rig["plc"]
    runs = []
    plc.store_block(CodeBlock("OB2", "OB",
                              logic=lambda p: runs.append(kernel.now)))
    scans = _count_calls(plc, "_scan")
    plc.power_on()
    kernel.run_for(86400.0)
    assert plc.scan_count == len(scans) == len(runs) == 1440


def test_code_block_copy_keeps_idle_predicate(rig):
    ob1 = rig["plc"].read_block("OB1")
    assert ob1.idle is not None
    assert ob1.copy().idle is ob1.idle
