"""Source-preserving UDP broadcast relay for Channel Access name resolution,
with a deterministic virtual-network harness for reproducing broadcast-domain
delivery behavior and benchmarking relay architectures."""

from .bench import (
    Scenario,
    ScenarioReport,
    emit_report,
    run_benchmark,
    run_scenario,
    scenario_a,
    scenario_b,
    scenario_c,
)
from .ca_wire import SearchRequest, SearchResponse, ValueExchange
from .endpoints import CaClient, ChannelTimeout, ClientQueryConfig, IocSim, RealCaClient
from .netsim import VirtualNetwork, VirtualTopology
from .packet import Cidr, Ipv4UdpPacket, checksum16, decode, encode
from .relay import (
    Relay,
    RelayConfig,
    RelayCounters,
    RelayMode,
    classify,
    rewrite_spoof,
)

__version__ = "0.1.0"

__all__ = [
    "CaClient",
    "ChannelTimeout",
    "Cidr",
    "ClientQueryConfig",
    "IocSim",
    "Ipv4UdpPacket",
    "RealCaClient",
    "Relay",
    "RelayConfig",
    "RelayCounters",
    "RelayMode",
    "Scenario",
    "ScenarioReport",
    "SearchRequest",
    "SearchResponse",
    "ValueExchange",
    "VirtualNetwork",
    "VirtualTopology",
    "checksum16",
    "classify",
    "decode",
    "emit_report",
    "encode",
    "rewrite_spoof",
    "run_benchmark",
    "run_scenario",
    "scenario_a",
    "scenario_b",
    "scenario_c",
]
