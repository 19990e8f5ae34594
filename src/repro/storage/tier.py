"""Tiered storage: RAM and SSD caches over an HDD backing store.

Section 3's system-balance story in executable form: "platforms use large
amounts of RAM for read caches and write buffers to minimize expensive
accesses to disaggregated storage" and "employ SSD caches to minimize
accesses to HDDs".  The tier sizes are set from the Table 1 ratios by the
platform provisioning code; hit rates and device traffic then follow from
the access stream.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.storage.device import DeviceKind, StorageDevice

__all__ = ["LruCache", "TierStats", "TieredStore"]

# Module-level member aliases: attribute access on an Enum class goes through
# a descriptor on every lookup, which is measurable on the per-chunk read path.
_RAM = DeviceKind.RAM
_SSD = DeviceKind.SSD
_HDD = DeviceKind.HDD


class LruCache:
    """Byte-capacity LRU over item keys."""

    def __init__(self, capacity_bytes: float):
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[str, float] = OrderedDict()
        self._used = 0.0

    @property
    def used_bytes(self) -> float:
        return self._used

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def touch(self, key: str) -> bool:
        """Mark ``key`` most-recently-used; returns hit/miss."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return True
        return False

    def insert(self, key: str, nbytes: float) -> list[str]:
        """Add (or refresh) an entry, evicting LRU items to fit.

        Returns the evicted keys.  Items larger than the whole cache are
        not admitted.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        evicted: list[str] = []
        entries = self._entries
        capacity = self.capacity_bytes
        if key in entries:
            self._used -= entries.pop(key)
        if nbytes > capacity:
            return evicted
        used = self._used
        while used + nbytes > capacity and entries:
            old_key, old_size = entries.popitem(last=False)
            used -= old_size
            evicted.append(old_key)
        entries[key] = nbytes
        self._used = used + nbytes
        return evicted

    def remove(self, key: str) -> None:
        if key in self._entries:
            self._used -= self._entries.pop(key)


@dataclass
class TierStats:
    """Per-tier hit/traffic counters."""

    hits: dict[DeviceKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in DeviceKind}
    )
    accesses: int = 0

    def hit_rate(self, kind: DeviceKind) -> float:
        return self.hits[kind] / self.accesses if self.accesses else 0.0


class TieredStore:
    """RAM cache -> SSD cache -> HDD backing store for one storage server.

    ``read`` returns the access latency and the tier that served it, and
    promotes the item into the caches.  ``write`` lands in the RAM write
    buffer and charges an asynchronous HDD write (write-back).
    """

    def __init__(
        self,
        ram_bytes: float,
        ssd_bytes: float,
        hdd_bytes: float,
        *,
        ssd_admission=None,
    ):
        self.ram = StorageDevice(DeviceKind.RAM, ram_bytes)
        self.ssd = StorageDevice(DeviceKind.SSD, ssd_bytes)
        self.hdd = StorageDevice(DeviceKind.HDD, hdd_bytes)
        self._ram_cache = LruCache(ram_bytes)
        self._ssd_cache = LruCache(ssd_bytes)
        #: Optional SSD admission policy (see repro.storage.placement);
        #: None means admit every miss (LRU baseline).
        self.ssd_admission = ssd_admission
        self.stats = TierStats()

    @property
    def devices(self) -> tuple[StorageDevice, StorageDevice, StorageDevice]:
        return (self.ram, self.ssd, self.hdd)

    def degrade(self, factor: float, kinds: tuple[DeviceKind, ...] = (DeviceKind.SSD, DeviceKind.HDD)) -> None:
        """Slow the persistent devices of this store (fault injection)."""
        for device in self.devices:
            if device.kind in kinds:
                device.degrade(factor)

    def restore(self) -> None:
        for device in self.devices:
            device.restore()

    def capacity(self, kind: DeviceKind) -> float:
        return {
            DeviceKind.RAM: self.ram.capacity_bytes,
            DeviceKind.SSD: self.ssd.capacity_bytes,
            DeviceKind.HDD: self.hdd.capacity_bytes,
        }[kind]

    def read(self, key: str, nbytes: float) -> tuple[float, DeviceKind]:
        """Latency and serving tier for a read; promotes into caches."""
        stats = self.stats
        stats.accesses += 1
        latency, tier = self.read_planned(key, nbytes)
        stats.hits[tier] += 1
        return latency, tier

    def read_planned(self, key: str, nbytes: float) -> tuple[float, DeviceKind]:
        """:meth:`read` minus the :class:`TierStats` tally.

        The batched DFS read planner walks every chunk of a multi-chunk
        read at plan time: cache state (LRU order, promotions, admission)
        and device counters must advance eagerly so later chunks of the
        same plan see them, but the hit/access tallies are returned to the
        caller and applied at the plan's leg boundaries -- the simulated
        times the per-chunk reader would have reached them -- so a
        mid-read observability scrape reads the same progression.
        """
        # LruCache.touch and StorageDevice.read_time inlined on the cache-hit
        # paths (same operands, same order): this is the hottest storage
        # call in the simulation and the extra frames are measurable.
        ram_entries = self._ram_cache._entries
        if key in ram_entries:
            ram_entries.move_to_end(key)
            if self.ssd_admission is not None:
                self.ssd_admission.on_access(key, hit=True)
            if nbytes < 0:
                raise ValueError("nbytes must be non-negative")
            device = self.ram
            tier = _RAM
        elif key in self._ssd_cache._entries:
            self._ssd_cache._entries.move_to_end(key)
            if self.ssd_admission is not None:
                self.ssd_admission.on_access(key, hit=True)
            # insert() rejects a negative size before any counter moves.
            self._ram_cache.insert(key, nbytes)
            self.ram.write_time(nbytes)
            device = self.ssd
            tier = _SSD
        else:
            latency = self.hdd.read_time(nbytes)
            # Fill the cache levels (exclusive of the HDD read cost), subject
            # to the admission policy.
            admit = True
            if self.ssd_admission is not None:
                self.ssd_admission.on_access(key, hit=False)
                admit = self.ssd_admission.should_admit(key, nbytes)
            if admit:
                self._ssd_cache.insert(key, nbytes)
                self.ssd.write_time(nbytes)
                self._ram_cache.insert(key, nbytes)
                self.ram.write_time(nbytes)
            return latency, _HDD
        device.bytes_read += nbytes
        device.reads += 1
        params = device.params
        time = params.read_latency + nbytes / params.read_bandwidth
        slowdown = device.slowdown
        return (time if slowdown == 1.0 else slowdown * time), tier

    def write(self, key: str, nbytes: float) -> float:
        """Buffered write: RAM write-buffer latency; data flows down later."""
        self._ram_cache.insert(key, nbytes)
        latency = self.ram.write_time(nbytes)
        # Write-back accounting: the bytes eventually land on SSD and HDD.
        self._ssd_cache.insert(key, nbytes)
        self.ssd.write_time(nbytes)
        self.hdd.write_time(nbytes)
        return latency

    def invalidate(self, key: str) -> None:
        self._ram_cache.remove(key)
        self._ssd_cache.remove(key)
