"""Regression tests for the robustness-PR satellite fixes."""

import json

import pytest

from repro.malware.shamoon.reporter import REPORT_PATH, ShamoonReportSink
from repro.netsim import Lan, NetworkError
from repro.netsim.http import HttpRequest
from repro.sim import Kernel, SimulationError
from repro.sim.events import EventQueue
from repro.usb.drive import UsbDrive
from repro.usb.hidden_db import HIDDEN_DB_FILENAME, HiddenDatabase


# -- Kernel.run event budget ---------------------------------------------------

def test_run_dispatches_exactly_max_events_before_raising():
    kernel = Kernel()
    dispatched = []

    def reschedule():
        dispatched.append(kernel.now)
        kernel.call_later(0.1, reschedule)

    kernel.call_later(0.1, reschedule)
    with pytest.raises(SimulationError):
        kernel.run(max_events=100)
    assert len(dispatched) == 100
    assert kernel.dispatched_events == 100


def test_run_finishing_at_exactly_max_events_does_not_raise():
    kernel = Kernel()
    for index in range(100):
        kernel.call_later(float(index), lambda: None)
    assert kernel.run(max_events=100) == 100


# -- EventQueue live counter ---------------------------------------------------

def test_len_tracks_cancellations_incrementally():
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None, "e%d" % i) for i in range(5)]
    assert len(queue) == 5
    events[2].cancel()
    assert len(queue) == 4
    events[2].cancel()  # double-cancel must not decrement twice
    assert len(queue) == 4
    popped = queue.pop()
    assert popped is events[0]
    assert len(queue) == 3
    popped.cancel()  # cancelling a dispatched event is a no-op for the queue
    assert len(queue) == 3
    while queue.pop() is not None:
        pass
    assert len(queue) == 0


def test_pending_events_property_matches():
    kernel = Kernel()
    handles = [kernel.call_later(1.0, lambda: None) for _ in range(3)]
    assert kernel.pending_events == 3
    handles[0].cancel()
    assert kernel.pending_events == 2


# -- ShamoonReportSink defensive parsing ---------------------------------------

def _report_request(uid):
    return HttpRequest("GET", "http://sink%s" % REPORT_PATH, client="victim",
                       params={"mydata": "org.com", "uid": uid,
                               "state": "10.0.0.5"},
                       body=b"f1 contents")


def test_sink_survives_non_numeric_uid():
    sink = ShamoonReportSink()
    response = sink.server.handle(_report_request("not-a-number"))
    assert response.ok
    assert sink.malformed_reports == 1
    assert len(sink.reports) == 1
    assert sink.reports[0]["malformed"]
    assert sink.total_files_reported() == 0


def test_sink_still_counts_well_formed_reports():
    sink = ShamoonReportSink()
    sink.server.handle(_report_request("12"))
    sink.server.handle(_report_request("garbage"))
    sink.server.handle(_report_request("30"))
    assert sink.total_files_reported() == 42
    assert sink.malformed_reports == 1


# -- Lan.attach hostname collision ---------------------------------------------

def test_attach_rejects_duplicate_hostname(kernel, host_factory):
    lan = Lan(kernel, "office")
    first = host_factory("SAME")
    impostor = host_factory("same")  # hostnames are case-insensitive
    lan.attach(first)
    with pytest.raises(NetworkError):
        lan.attach(impostor)
    # The first host is untouched and the impostor got no address.
    assert lan.host_by_name("SAME") is first
    assert impostor.nic is None
    assert len(lan.hosts()) == 1
    # detach still works cleanly afterwards.
    assert lan.detach(first)
    assert lan.hosts() == []


# -- HiddenDatabase corruption recovery ----------------------------------------

@pytest.mark.parametrize("blob", [
    b"\xff\xfe not json at all",
    b'{"seen_internet": true, "documents": ',      # truncated mid-write
    b'"just a string"',
    b'[1, 2, 3]',
    b'{"seen_internet": "yes", "documents": [], "beacons": []}',
    b'{"documents": []}',                           # keys missing
])
def test_corrupt_hidden_db_is_recreated(blob):
    drive = UsbDrive("stick")
    drive.write(HIDDEN_DB_FILENAME, blob, hidden=True)
    db = HiddenDatabase.load_or_create(drive)
    assert db.documents() == []
    assert not db._state["seen_internet"]
    # The recreated blob on the drive is valid again.
    stored = drive.get(HIDDEN_DB_FILENAME)
    assert json.loads(stored.data.decode("utf-8"))["documents"] == []
    # And the database is fully functional.
    assert db.store_document("HOST", "c:\\x.docx", 10, "doc")
    assert len(HiddenDatabase(drive).documents()) == 1


def test_intact_hidden_db_still_loads():
    drive = UsbDrive("stick")
    db = HiddenDatabase.load_or_create(drive)
    db.mark_internet_connected()
    db.store_document("HOST", "c:\\x.docx", 10, "doc")
    reloaded = HiddenDatabase(drive)
    assert reloaded.seen_internet
    assert len(reloaded.documents()) == 1


# -- Kernel.run_for duration validation ----------------------------------------

def test_run_for_rejects_negative_duration():
    kernel = Kernel()
    with pytest.raises(ValueError, match="non-negative"):
        kernel.run_for(-1.0)


def test_run_for_rejects_nan_duration():
    kernel = Kernel()
    with pytest.raises(ValueError, match="non-negative"):
        kernel.run_for(float("nan"))


def test_run_for_and_run_reject_infinite_bounds():
    """Regression: ``run_for(inf)`` on a drained kernel set the clock to
    infinity, after which ``now_dt`` overflowed and ``call_later``
    scheduled at infinity."""
    kernel = Kernel()
    for bad in (float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            kernel.run_for(bad)
        with pytest.raises(ValueError, match="finite"):
            kernel.run(until=bad)
    with pytest.raises(ValueError, match="finite"):
        kernel.run(until=float("nan"))
    assert kernel.now == 0.0
    assert kernel.now_dt == kernel.clock.epoch
    assert kernel.call_later(1.0, lambda: None).time == 1.0


def test_run_for_zero_dispatches_only_events_due_now():
    kernel = Kernel()
    fired = []
    kernel.call_later(0.0, lambda: fired.append("now"))
    kernel.call_later(1.0, lambda: fired.append("later"))
    kernel.run_for(0.0)
    assert fired == ["now"]
    assert kernel.now == 0.0


def test_run_for_rejects_bad_durations_without_moving_the_clock():
    kernel = Kernel()
    kernel.call_later(5.0, lambda: None)
    for bad in (-0.5, float("nan")):
        with pytest.raises(ValueError):
            kernel.run_for(bad)
    assert kernel.now == 0.0
    assert kernel.pending_events == 1
