"""Industrial control substrate: Step 7, PLC, Profibus, drives, centrifuges.

Everything Stuxnet's third compromise level (§II.C, Fig. 1) needs to
actually happen in simulation: a PLC with code blocks and a scan cycle, a
Profibus link to frequency-converter drives (one Iranian-vendor, one
Finnish-vendor — the fingerprint Stuxnet triggers on), centrifuges with a
stress/failure physical model, the Step 7 engineering application whose
``s7otbxdx.dll`` is the man-in-the-middle position, a digital safety
system, and an operator HMI view.
"""

from repro.plc.centrifuge import Centrifuge, CentrifugeCascade
from repro.plc.drives import (
    FARARO_PAYA,
    FrequencyConverterDrive,
    VACON,
)
from repro.plc.profibus import ProfibusBus, ProfibusError, PROFIBUS_CP_MODEL
from repro.plc.blocks import CodeBlock
from repro.plc.plc import ProgrammableLogicController
from repro.plc.s7otbx import S7CommunicationLibrary, TrojanizedS7Library
from repro.plc.step7 import Step7Application, Step7Project
from repro.plc.safety import DigitalSafetySystem

__all__ = [
    "Centrifuge",
    "CentrifugeCascade",
    "CodeBlock",
    "DigitalSafetySystem",
    "FARARO_PAYA",
    "FrequencyConverterDrive",
    "PROFIBUS_CP_MODEL",
    "ProfibusBus",
    "ProfibusError",
    "ProgrammableLogicController",
    "S7CommunicationLibrary",
    "Step7Application",
    "Step7Project",
    "TrojanizedS7Library",
    "VACON",
]
