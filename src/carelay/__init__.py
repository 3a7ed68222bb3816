"""Source-preserving UDP broadcast relay for Channel Access name resolution,
with a deterministic virtual-network harness for reproducing broadcast-domain
delivery behavior and benchmarking relay architectures.

The package imports no module of its own, so importing carelay.relay imports
no simulator or benchmark; import each name from its module."""

__version__ = "0.1.0"
