"""Centrifuge physics and drive integration."""

import pytest

from repro.plc import CentrifugeCascade, FrequencyConverterDrive, FARARO_PAYA
from repro.plc.centrifuge import (
    Centrifuge,
    NOMINAL_FREQUENCY,
    OVERSPEED_LIMIT,
    RESONANCE_LIMIT,
)


def test_nominal_operation_enriches_without_stress():
    machine = Centrifuge("c-1")
    machine.integrate(NOMINAL_FREQUENCY, 86400.0)
    assert machine.accumulated_stress == 0.0
    assert machine.enrichment_output == 86400.0
    assert not machine.destroyed


def test_overspeed_accumulates_stress_proportionally():
    mild = Centrifuge("mild")
    harsh = Centrifuge("harsh")
    mild.integrate(OVERSPEED_LIMIT + 10, 100.0)
    harsh.integrate(OVERSPEED_LIMIT + 110, 100.0)
    assert 0 < mild.accumulated_stress < harsh.accumulated_stress


def test_resonance_crawl_accumulates_stress():
    machine = Centrifuge("c")
    machine.integrate(2.0, 1000.0)
    assert machine.accumulated_stress > 0
    assert machine.enrichment_output == 0


def test_stopped_rotor_accrues_nothing():
    machine = Centrifuge("c")
    machine.integrate(0.0, 1e6)
    assert machine.accumulated_stress == 0.0


def test_band_edges_safe():
    machine = Centrifuge("c")
    machine.integrate(OVERSPEED_LIMIT, 1000.0)
    machine.integrate(RESONANCE_LIMIT, 1000.0)
    assert machine.accumulated_stress == 0.0


def test_destruction_at_capacity_and_permanence():
    machine = Centrifuge("c", stress_capacity=10.0)
    machine.integrate(1410.0, 10_000.0, now=5.0)
    assert machine.destroyed
    assert machine.destroyed_at == 5.0
    produced = machine.enrichment_output
    machine.integrate(NOMINAL_FREQUENCY, 86400.0)
    assert machine.enrichment_output == produced  # dead rotors produce nothing


def test_full_attack_cycle_destroys_weak_rotor():
    machine = Centrifuge("weak", stress_capacity=100.0)
    machine.integrate(1410.0, 900.0)    # overspeed phase
    machine.integrate(2.0, 3000.0)      # crawl phase
    machine.integrate(NOMINAL_FREQUENCY, 60.0)
    assert machine.destroyed


def test_cascade_capacity_spread_is_deterministic(kernel):
    a = CentrifugeCascade("A", 50, rng=kernel.rng.fork("x"))
    b = CentrifugeCascade("B", 50, rng=kernel.rng.fork("x"))
    assert [m.stress_capacity for m in a.centrifuges] == \
           [m.stress_capacity for m in b.centrifuges]


def test_cascade_without_rng_uses_fixed_spread():
    cascade = CentrifugeCascade("A", 10)
    capacities = [m.stress_capacity for m in cascade.centrifuges]
    assert len(set(capacities)) > 1


def test_cascade_aggregates():
    cascade = CentrifugeCascade("A", 10)
    cascade.integrate(NOMINAL_FREQUENCY, 100.0)
    assert cascade.total_enrichment() == 1000.0
    assert cascade.destroyed_count() == 0
    assert cascade.intact_count() == 10
    assert cascade.destruction_fraction() == 0.0
    assert len(cascade) == 10


def test_drive_lazy_integration_is_exact(kernel):
    cascade = CentrifugeCascade("A", 1)
    drive = FrequencyConverterDrive("d", FARARO_PAYA, cascade, kernel.clock)
    drive.set_frequency(NOMINAL_FREQUENCY)
    kernel.clock.advance_to(1000.0)
    drive.set_frequency(0.0)  # integrates the elapsed 1000 s first
    assert cascade.total_enrichment() == 1000.0


def test_drive_clamps_to_max_frequency(kernel):
    cascade = CentrifugeCascade("A", 1)
    drive = FrequencyConverterDrive("d", FARARO_PAYA, cascade, kernel.clock,
                                    max_frequency=1500.0)
    assert drive.set_frequency(9999.0) == 1500.0
    assert drive.set_frequency(-5.0) == 0.0


def test_drive_rejects_nan_frequency(kernel):
    """Regression: clamping NaN with min/max silently commanded 0 Hz
    and logged it as a real command."""
    cascade = CentrifugeCascade("A", 1)
    drive = FrequencyConverterDrive("d", FARARO_PAYA, cascade, kernel.clock)
    drive.set_frequency(1064.0)
    with pytest.raises(ValueError, match="NaN"):
        drive.set_frequency(float("nan"))
    assert drive.frequency == 1064.0
    assert drive.command_history == [(0.0, 0.0), (0.0, 1064.0)]


def test_drive_command_history(kernel):
    cascade = CentrifugeCascade("A", 1)
    drive = FrequencyConverterDrive("d", FARARO_PAYA, cascade, kernel.clock)
    drive.set_frequency(1064.0)
    kernel.clock.advance_to(10.0)
    drive.set_frequency(1410.0)
    assert [f for _, f in drive.command_history] == [0.0, 1064.0, 1410.0]
