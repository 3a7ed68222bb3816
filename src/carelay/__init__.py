"""Source-preserving UDP broadcast relay for Channel Access name resolution,
with a deterministic virtual-network harness for reproducing broadcast-domain
delivery behavior and benchmarking relay architectures."""

import importlib

# Each module and the names re-exported from it, imported on first use (PEP
# 562), so that importing carelay.relay imports no simulator or benchmark.
_EXPORTS = {
    "bench": (
        "Scenario", "ScenarioReport", "emit_report", "run_benchmark", "run_scenario",
        "scenario_a", "scenario_b", "scenario_c",
    ),
    "ca_wire": ("SearchRequest", "SearchResponse", "ValueExchange"),
    "endpoints": ("CaClient", "ChannelTimeout", "ClientQueryConfig", "IocSim", "RealCaClient"),
    "netsim": ("VirtualNetwork", "VirtualTopology"),
    "packet": ("Cidr", "Ipv4UdpPacket", "checksum16", "decode", "encode"),
    "relay": ("Relay", "RelayConfig", "RelayCounters", "RelayMode", "classify", "rewrite_spoof"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
