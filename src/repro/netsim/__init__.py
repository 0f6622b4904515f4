"""Network simulation substrate: discrete-event engine, lossy links,
simplified TCP, library-accurate HTTP clients, and the IR runtime that
manifests NPD symptoms."""

from .energy import (
    CELLULAR_3G,
    EnergyEstimate,
    RadioProfile,
    WIFI_RADIO,
    energy_per_hour_mj,
    estimate_energy,
)
from .events import EventLoop
from .http import (
    HttpClientSim,
    RequestPolicy,
    RequestResult,
    download_success_rate,
)
from .link import (
    EDGE,
    LTE,
    LinkProfile,
    LinkSchedule,
    OFFLINE,
    THREE_G,
    THREE_G_CLEAN,
    THREE_G_LOSSY,
    WIFI,
)
from .scenarios import POOR_3G, SCENARIOS
from .runtime import (
    BudgetExceeded,
    RunReport,
    Runtime,
    SimObject,
    SimulatedIOException,
    SimulatedNullPointer,
)
from .tcp import MSS, TransferOutcome, connect, transfer

__all__ = [
    "BudgetExceeded",
    "CELLULAR_3G",
    "EnergyEstimate",
    "RadioProfile",
    "WIFI_RADIO",
    "energy_per_hour_mj",
    "estimate_energy",
    "EDGE",
    "EventLoop",
    "HttpClientSim",
    "LTE",
    "LinkProfile",
    "LinkSchedule",
    "MSS",
    "OFFLINE",
    "POOR_3G",
    "SCENARIOS",
    "RequestPolicy",
    "RequestResult",
    "RunReport",
    "Runtime",
    "SimObject",
    "SimulatedIOException",
    "SimulatedNullPointer",
    "THREE_G",
    "THREE_G_CLEAN",
    "THREE_G_LOSSY",
    "TransferOutcome",
    "WIFI",
    "connect",
    "download_success_rate",
    "transfer",
]
