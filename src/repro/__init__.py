"""repro: an executable reproduction of "The Middle East under Malware
Attack: Dissecting Cyber Weapons" (Zhioua, ICDCS 2013).

A self-contained cyber-range simulator — Windows hosts, networks, PKI,
an enrichment plant, C&C infrastructure — with behavioural models of
Stuxnet, Flame, and Shamoon, and the analysis toolkit to dissect them.
Everything runs on in-memory simulated substrates; nothing in this
package can interact with a real machine, network, or file beyond this
process's own memory.

Quickstart::

    from repro import StuxnetNatanzCampaign

    result = StuxnetNatanzCampaign(seed=7, duration_days=180).run()
    print(result["centrifuges_destroyed"], "centrifuges destroyed,",
          "operator saw", result["operator_view_hz"], "Hz")
"""

from repro.core import (
    CampaignSpec,
    CampaignWorld,
    CheckpointStore,
    FlameEspionageCampaign,
    ShamoonWiperCampaign,
    StuxnetNatanzCampaign,
    build_flame_infrastructure,
    build_natanz_plant,
    build_office_lan,
    comparison_table,
    ensemble_table,
    resume_checkpointed,
    run_checkpointed,
    seed_user_documents,
)
from repro.epidemic import (
    EpidemicModel,
    FlameEpidemicCampaign,
    FullFidelityEpidemic,
    HostPool,
    StuxnetEpidemicCampaign,
    TransmissionProfile,
)
from repro.obs import (
    MetricsRegistry,
    SpanRecorder,
    export_digest,
    merge_snapshots,
    prometheus_text,
    write_jsonl,
)
from repro.sim import (
    CheckpointError,
    Kernel,
    SweepConfig,
    run_sweep,
)

__version__ = "1.0.0"

__all__ = [
    "CampaignSpec",
    "CampaignWorld",
    "CheckpointError",
    "CheckpointStore",
    "EpidemicModel",
    "FlameEpidemicCampaign",
    "FlameEspionageCampaign",
    "FullFidelityEpidemic",
    "HostPool",
    "Kernel",
    "MetricsRegistry",
    "StuxnetEpidemicCampaign",
    "ShamoonWiperCampaign",
    "SpanRecorder",
    "StuxnetNatanzCampaign",
    "SweepConfig",
    "__version__",
    "build_flame_infrastructure",
    "build_natanz_plant",
    "build_office_lan",
    "comparison_table",
    "ensemble_table",
    "export_digest",
    "merge_snapshots",
    "prometheus_text",
    "resume_checkpointed",
    "run_checkpointed",
    "run_sweep",
    "seed_user_documents",
    "write_jsonl",
]
