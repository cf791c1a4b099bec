"""In-memory logical and physical zone descriptors (Table 1).

The volume keeps a descriptor per logical zone (state, write pointer,
persistence bitmap, stripe buffer pool, relocation flag) and mirrors each
physical zone's write pointer so sub-IOs can be ordered and conflicting
writes detected without querying the devices.
"""

from __future__ import annotations

from typing import List, Optional

from ..zns.spec import ZoneState
from .stripebuf import StripeBufferPool


class PersistenceBitmap:
    """One bit per stripe unit: has this SU been flushed to media? (§5.3)

    ``frontier`` is the paper's optimization: all SUs below it are known
    persisted, so FUA handling only inspects bits from the stripe
    immediately preceding the write.
    """

    def __init__(self, num_su: int):
        self.bits = [False] * num_su
        self.frontier = 0  # SU index below which everything is persisted

    def mark_persisted(self, su_index: int) -> None:
        """Mark one SU persisted and advance the frontier if possible."""
        if su_index >= len(self.bits):
            return
        self.bits[su_index] = True
        while self.frontier < len(self.bits) and self.bits[self.frontier]:
            self.frontier += 1

    def mark_up_to(self, su_end: int) -> None:
        """Mark SUs [0, su_end) persisted."""
        bits = self.bits
        n = len(bits)
        if su_end > n:
            su_end = n
        frontier = self.frontier
        if su_end <= frontier:
            # Steady-state FUA traffic: the frontier already covers the
            # write; nothing to mark and nothing to rescan.
            return
        bits[frontier:su_end] = [True] * (su_end - frontier)
        frontier = su_end
        while frontier < n and bits[frontier]:
            frontier += 1
        self.frontier = frontier

    def is_persisted(self, su_index: int) -> bool:
        return su_index < self.frontier or self.bits[su_index]

    def unpersisted_in(self, su_start: int, su_end: int) -> List[int]:
        """SU indices in [su_start, su_end) that are not persisted."""
        lo = self.frontier
        if su_start > lo:
            lo = su_start
        if lo >= su_end:
            return []
        bits = self.bits
        return [i for i in range(lo, su_end) if not bits[i]]

    def reset(self) -> None:
        self.bits = [False] * len(self.bits)
        self.frontier = 0


class LogicalZoneDesc:
    """Mutable state of one logical zone."""

    def __init__(self, zone: int, start_lba: int, capacity: int,
                 num_data: int, su: int, stripe_buffers: int):
        self.zone = zone
        self.start_lba = start_lba
        self.capacity = capacity
        self.num_data = num_data
        self.su = su
        self.state = ZoneState.EMPTY
        #: Next writable LBA.
        self.write_pointer = start_lba
        #: Simulated time of the last write (LRU for logical auto-close).
        self.last_write_time = 0.0
        #: Last written LBA at the time a reset request was received (§4.3).
        self.reset_pointer: Optional[int] = None
        #: True while a logical zone reset is blocking IO to this zone.
        self.reset_in_progress = False
        #: True when at least one stripe unit of this zone is relocated,
        #: enabling the relocation-map lookup on reads (§5.2).
        self.has_relocations = False
        num_su = (capacity // su)
        self.persistence = PersistenceBitmap(num_su)
        self.buffers = StripeBufferPool(zone, num_data, su, stripe_buffers)

    @property
    def writable_end(self) -> int:
        return self.start_lba + self.capacity

    @property
    def written_bytes(self) -> int:
        return self.write_pointer - self.start_lba

    @property
    def stripe_width(self) -> int:
        return self.num_data * self.su

    def su_index_of(self, lba: int) -> int:
        """Persistence-bitmap index of the SU containing ``lba``."""
        return (lba - self.start_lba) // self.su

    def reset(self) -> None:
        """Return the descriptor to the EMPTY state."""
        self.state = ZoneState.EMPTY
        self.write_pointer = self.start_lba
        self.reset_pointer = None
        self.reset_in_progress = False
        self.has_relocations = False
        self.persistence.reset()
        self.buffers.clear()


class PhysicalZoneDesc:
    """The volume's mirror of one physical zone on one device."""

    __slots__ = ("device", "zone", "write_pointer", "state")

    def __init__(self, device: int, zone: int, start: int,
                 state: ZoneState = ZoneState.EMPTY):
        self.device = device
        self.zone = zone
        self.write_pointer = start
        self.state = state
