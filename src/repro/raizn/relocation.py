"""Relocated stripe units (§5.2, Figure 1).

After an unrecoverable partial stripe write, RAIZN rolls the logical zone
write pointer back to hide the corrupted stripe unit(s).  The stale data
already persisted at higher PBAs cannot be overwritten, so future writes
to those LBAs are redirected ("relocated") to the affected device's
metadata zone.  Relocations are uncommon, so relocated stripe units are
cached in memory in addition to being persisted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class RelocatedUnit:
    """The in-memory cache of one relocated stripe unit."""

    __slots__ = ("su_lba", "device", "su_size", "buffer", "extents")

    def __init__(self, su_lba: int, device: int, su_size: int):
        self.su_lba = su_lba
        self.device = device
        self.su_size = su_size
        self.buffer = bytearray(su_size)
        #: Sorted, disjoint (start, end) byte intervals, SU-relative.
        self.extents: List[Tuple[int, int]] = []

    def write(self, lba: int, data: bytes) -> None:
        """Absorb a redirected write covering ``[lba, lba+len)``."""
        offset = lba - self.su_lba
        end = offset + len(data)
        if offset < 0 or end > self.su_size:
            raise ValueError("write outside the relocated stripe unit")
        self.buffer[offset:end] = data
        self._add_extent(offset, end)

    def _add_extent(self, start: int, end: int) -> None:
        merged = []
        for lo, hi in self.extents:
            if hi < start or lo > end:
                merged.append((lo, hi))
            else:
                start, end = min(start, lo), max(end, hi)
        merged.append((start, end))
        merged.sort()
        self.extents = merged

    def covers(self, lba: int, length: int) -> bool:
        """True when ``[lba, lba+length)`` lies within one written extent."""
        offset = lba - self.su_lba
        end = offset + length
        return any(lo <= offset and end <= hi for lo, hi in self.extents)

    def read(self, lba: int, length: int) -> bytes:
        """Bytes of a covered range (call :meth:`covers` first)."""
        offset = lba - self.su_lba
        return bytes(self.buffer[offset:offset + length])

    def overlaps(self, lba: int, length: int) -> List[Tuple[int, int]]:
        """Written intervals intersecting ``[lba, lba+length)``.

        Returned as (start, end) offsets *relative to the queried range* —
        used by the read path to stitch relocated bytes together with
        still-valid on-device bytes when a read straddles the two.
        """
        offset = lba - self.su_lba
        end = offset + length
        out = []
        for lo, hi in self.extents:
            inter_lo, inter_hi = max(lo, offset), min(hi, end)
            if inter_lo < inter_hi:
                out.append((inter_lo - offset, inter_hi - offset))
        return out


class RelocationStore:
    """All relocated stripe units of the volume, keyed by SU start LBA."""

    def __init__(self, su_size: int):
        self.su_size = su_size
        self._units: Dict[int, RelocatedUnit] = {}
        #: Relocations per (device, physical zone), for the rebuild
        #: threshold of §5.2.
        self.per_phys_zone: Dict[Tuple[int, int], int] = {}

    def unit_for(self, su_lba: int, device: int,
                 phys_zone: int) -> RelocatedUnit:
        """The unit for ``su_lba``, creating (and counting) it if new."""
        unit = self._units.get(su_lba)
        if unit is None:
            unit = RelocatedUnit(su_lba, device, self.su_size)
            self._units[su_lba] = unit
            key = (device, phys_zone)
            self.per_phys_zone[key] = self.per_phys_zone.get(key, 0) + 1
        return unit

    def lookup(self, su_lba: int) -> Optional[RelocatedUnit]:
        return self._units.get(su_lba)

    def span_in(self, lba_lo: int, lba_hi: int) -> Optional[Tuple[int, int]]:
        """``(lowest, highest)`` relocated SU start in ``[lba_lo, lba_hi)``,
        or None when the range holds no relocated SU."""
        inside = [lba for lba in self._units if lba_lo <= lba < lba_hi]
        if not inside:
            return None
        return min(inside), max(inside)

    def units(self) -> List[RelocatedUnit]:
        return [self._units[k] for k in sorted(self._units)]

    def units_on_device(self, device: int) -> List[RelocatedUnit]:
        return [u for u in self.units() if u.device == device]

    def drop_zone(self, zone_start_lba: int, zone_capacity: int) -> None:
        """Forget relocations inside a logical zone (after its reset).

        The volume must call :meth:`rebuild_counters` afterwards to refresh
        the per-physical-zone relocation counts; resets are rare enough
        that recomputing from scratch is fine.
        """
        doomed = [lba for lba in self._units
                  if zone_start_lba <= lba < zone_start_lba + zone_capacity]
        for lba in doomed:
            del self._units[lba]

    def rebuild_counters(self, phys_zone_of) -> None:
        """Recompute per-physical-zone counters; ``phys_zone_of(unit)->int``."""
        self.per_phys_zone.clear()
        for unit in self._units.values():
            key = (unit.device, phys_zone_of(unit))
            self.per_phys_zone[key] = self.per_phys_zone.get(key, 0) + 1

    def __len__(self) -> int:
        return len(self._units)
