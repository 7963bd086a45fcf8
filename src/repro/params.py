"""Machine and network cost parameters.

The paper (Section 4.1) evaluates on simulated machines with:

* a peak computation speed of **33 MFLOPS** per processor,
* a local memory bandwidth of **400 MB/s**,
* a **square mesh torus** network where each data-sharing hop takes
  **200 ns**, and
* **1 gigabit/sec** point-to-point fibre links.

:class:`MachineParams` captures those constants and converts abstract work
amounts (floating-point operations, bytes) into simulated seconds.  All
timing in the library flows through this one object so experiments can vary
the cost model in a single place.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ExperimentError

#: Number of bits in a byte, used to convert link bandwidth.
_BITS_PER_BYTE = 8.0

#: Size in bytes of one sharing/control packet header.  The paper's
#: hardware shares individual variable values; we model a word of header
#: (routing, sequencing, group id) to which each variable's declared
#: payload size is added on the wire.
DEFAULT_PACKET_BYTES = 16


@dataclass(frozen=True, slots=True)
class MachineParams:
    """Cost model for processors, memories, and the interconnect.

    Attributes:
        cpu_flops: Peak processor speed in floating-point ops per second.
        memory_bandwidth: Local memory bandwidth in bytes per second.
        hop_latency: Switching/propagation latency per network hop, seconds.
        link_bandwidth_bits: Point-to-point link bandwidth in bits/second.
        packet_bytes: Size of one sharing packet in bytes.
    """

    cpu_flops: float = 33e6
    memory_bandwidth: float = 400e6
    hop_latency: float = 200e-9
    link_bandwidth_bits: float = 1e9
    packet_bytes: int = DEFAULT_PACKET_BYTES
    #: Per-message processing time at a node's sharing interface.  The
    #: default 0 models the paper's infinitely fast interface hardware;
    #: setting it positive serializes each node's inbound traffic, which
    #: is what makes an overloaded global root measurable ("combining
    #: overlapping groups into one global group can prevent scaling in
    #: large networks by overloading the global root").
    interface_service_time: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu_flops <= 0:
            raise ExperimentError(f"cpu_flops must be positive: {self.cpu_flops}")
        if self.memory_bandwidth <= 0:
            raise ExperimentError(
                f"memory_bandwidth must be positive: {self.memory_bandwidth}"
            )
        if self.hop_latency < 0:
            raise ExperimentError(f"hop_latency must be >= 0: {self.hop_latency}")
        if self.link_bandwidth_bits <= 0:
            raise ExperimentError(
                f"link_bandwidth_bits must be positive: {self.link_bandwidth_bits}"
            )
        if self.packet_bytes <= 0:
            raise ExperimentError(f"packet_bytes must be positive: {self.packet_bytes}")
        if self.interface_service_time < 0:
            raise ExperimentError(
                f"interface_service_time must be >= 0: {self.interface_service_time}"
            )

    @property
    def link_bandwidth(self) -> float:
        """Link bandwidth in bytes per second."""
        return self.link_bandwidth_bits / _BITS_PER_BYTE

    def compute_time(self, flops: float) -> float:
        """Simulated seconds to execute ``flops`` floating-point operations."""
        if flops < 0:
            raise ExperimentError(f"flops must be >= 0: {flops}")
        return flops / self.cpu_flops

    def memory_time(self, nbytes: float) -> float:
        """Simulated seconds to move ``nbytes`` through local memory."""
        if nbytes < 0:
            raise ExperimentError(f"nbytes must be >= 0: {nbytes}")
        return nbytes / self.memory_bandwidth

    def wire_time(self, nbytes: float, hops: int) -> float:
        """Simulated seconds for ``nbytes`` to cross ``hops`` network hops.

        The cost is the per-hop switching latency for every hop plus the
        serialization time of the payload on one link (cut-through routing:
        the payload is only serialized once, while header latency is paid
        per hop, which is how the paper's 200 ns/hop figure composes with a
        1 Gb/s link).
        """
        if hops < 0:
            raise ExperimentError(f"hops must be >= 0: {hops}")
        if nbytes < 0:
            raise ExperimentError(f"nbytes must be >= 0: {nbytes}")
        return hops * self.hop_latency + nbytes / self.link_bandwidth

    def packet_time(self, hops: int) -> float:
        """Simulated seconds for one sharing packet to cross ``hops`` hops."""
        return self.wire_time(self.packet_bytes, hops)

    def nack_timeout(self, diameter: int) -> float:
        """The recovery unit: comfortably above one diameter crossing.

        A machine with reliability armed waits this long before it NACKs
        a sequence gap; fault campaigns scale their plans in it so one
        profile stresses any topology equally.
        """
        return max(
            4.0 * diameter * self.hop_latency
            + 16.0 * self.packet_bytes / self.link_bandwidth,
            2e-6,
        )

    def zero_delay(self) -> "MachineParams":
        """A copy of these parameters with all network delays removed.

        Used to compute the paper's "maximum speedup possible if network
        delays were zero" reference lines (tops of Figures 2 and 8).
        """
        return replace(
            self,
            hop_latency=0.0,
            link_bandwidth_bits=float("inf"),
        )


#: The parameter set used throughout the paper's evaluation.
PAPER_PARAMS = MachineParams()
