"""Storage device models: RAM, SSD, and HDD."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["DeviceKind", "StorageDevice", "DEVICE_DEFAULTS"]


class DeviceKind(enum.Enum):
    RAM = "ram"
    SSD = "ssd"
    HDD = "hdd"

    # Identity hash instead of Enum's Python-level ``hash(self._name_)``:
    # members key per-tier hit counters on the chunk-read path, where the
    # interpreted __hash__ frame is measurable.  Enum equality is already
    # identity, so dict semantics are unchanged.
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True)
class DeviceParams:
    """Latency/bandwidth envelope for a device class."""

    read_latency: float
    write_latency: float
    read_bandwidth: float
    write_bandwidth: float


#: Representative device envelopes: DRAM ~100ns/20GBps, NVMe SSD ~80us/2GBps,
#: 7200rpm HDD ~8ms seek/180MBps streaming.
DEVICE_DEFAULTS: dict[DeviceKind, DeviceParams] = {
    DeviceKind.RAM: DeviceParams(100e-9, 100e-9, 20e9, 20e9),
    DeviceKind.SSD: DeviceParams(80e-6, 20e-6, 2e9, 1e9),
    DeviceKind.HDD: DeviceParams(8e-3, 8e-3, 180e6, 160e6),
}


@dataclass
class StorageDevice:
    """One device: a capacity plus an access-time model and counters."""

    kind: DeviceKind
    capacity_bytes: float
    params: DeviceParams | None = None
    bytes_read: float = field(default=0.0, init=False)
    bytes_written: float = field(default=0.0, init=False)
    reads: int = field(default=0, init=False)
    writes: int = field(default=0, init=False)
    slowdown: float = field(default=1.0, init=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if self.params is None:
            self.params = DEVICE_DEFAULTS[self.kind]

    def degrade(self, factor: float) -> None:
        """Multiply access times by ``factor`` (fault injection: a sick disk).

        The factor must be finite so a stalled device still makes progress --
        an infinite stall would deadlock the simulation.
        """
        if not factor >= 1.0 or factor == float("inf"):
            raise ValueError(f"slowdown factor must be finite and >= 1, got {factor}")
        self.slowdown = factor

    def restore(self) -> None:
        self.slowdown = 1.0

    def read_time(self, nbytes: float) -> float:
        """Seconds to read ``nbytes`` (latency + transfer); counts traffic.

        Charged once per chunk by both the per-chunk reader and the batched
        read planner (:mod:`repro.storage.reader`), in the same order --
        traffic counters are therefore identical across readers.
        ``TieredStore.read_planned`` inlines this body on its cache-hit
        paths; keep the two in step.  The undegraded path skips the
        slowdown multiply: ``x * 1.0 == x`` bitwise for finite positive
        times.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.bytes_read += nbytes
        self.reads += 1
        time = self.params.read_latency + nbytes / self.params.read_bandwidth
        slowdown = self.slowdown
        return time if slowdown == 1.0 else slowdown * time

    def write_time(self, nbytes: float) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.bytes_written += nbytes
        self.writes += 1
        time = self.params.write_latency + nbytes / self.params.write_bandwidth
        slowdown = self.slowdown
        return time if slowdown == 1.0 else slowdown * time
