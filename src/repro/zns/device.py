"""Simulated NVMe ZNS SSD.

Enforces the full interface contract RAIZN depends on (paper §2.1):

* sequential-write-only zones with a queryable write pointer,
* zone append returning the placement address,
* the zone state machine with an open-zone limit (14 on the ZN540),
* a volatile write cache with flush / FUA / preflush semantics and
  per-zone *prefix* persistence order,
* power-loss behaviour where an arbitrary whole number of atomic write
  units from each zone's unflushed tail survives.

Data is byte-backed: reads return exactly the bytes written, so parity
and recovery logic upstack is verified against real content.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..errors import (
    InvalidAddressError,
    MediaError,
    OpenZoneLimitError,
    ReadUnwrittenError,
    WritePointerViolation,
    ZoneStateError,
)
from ..block.bio import _FUA as _BIO_FUA
from ..block.bio import _PREFLUSH as _BIO_PREFLUSH
from ..block.bio import Bio, Op
from ..block.device import BlockDevice
from ..block.timing import ServiceTimeModel, zns_zn540_model
from ..sim import Simulator
from ..units import SECTOR_SIZE
from .spec import (
    DEFAULT_MAX_ACTIVE_ZONES,
    DEFAULT_MAX_OPEN_ZONES,
    ZoneInfo,
    ZoneState,
)
from .zone import Zone


class ZNSDevice(BlockDevice):
    """A zoned-namespace SSD with byte-backed media."""

    #: ZNS service spans carry their own layer tag so the attribution
    #: report separates zone-command service time from generic block IO.
    trace_layer = "zns"

    def __init__(
        self,
        sim: Simulator,
        name: str = "zns0",
        num_zones: int = 32,
        zone_capacity: int = 4 * 1024 * 1024,
        zone_size: Optional[int] = None,
        model: Optional[ServiceTimeModel] = None,
        max_open_zones: int = DEFAULT_MAX_OPEN_ZONES,
        max_active_zones: int = DEFAULT_MAX_ACTIVE_ZONES,
        atomic_write_bytes: int = SECTOR_SIZE,
        zone_reset_limit: Optional[int] = None,
        seed: int = 0,
    ):
        if zone_size is None:
            zone_size = zone_capacity
        if zone_capacity % SECTOR_SIZE or zone_size % SECTOR_SIZE:
            raise InvalidAddressError("zone geometry must be sector aligned")
        if atomic_write_bytes % SECTOR_SIZE:
            raise InvalidAddressError("atomic write unit must be sector aligned")
        super().__init__(sim, name, zone_size * num_zones,
                         model or zns_zn540_model(), seed=seed)
        self.num_zones = num_zones
        self.zone_size = zone_size
        self.zone_capacity = zone_capacity
        self.max_open_zones = max_open_zones
        self.max_active_zones = max_active_zones
        self.atomic_write_bytes = atomic_write_bytes
        self.zones: List[Zone] = [
            Zone(i, i * zone_size, zone_size, zone_capacity)
            for i in range(num_zones)
        ]
        self._media = bytearray(self.size_bytes)
        self._open_count = 0
        self._active_count = 0
        #: Zones whose write pointer is ahead of their durable pointer —
        #: i.e. holding data only in the write cache.  Kept exact so flush
        #: snapshots are O(dirty zones) instead of O(all zones).
        self._dirty_zones: Set[int] = set()
        #: Latent-error (UNC) extents per zone index, as ``(start, end)``
        #: absolute byte spans.  Reads intersecting one raise MediaError;
        #: the empty dict costs nothing on the read hot path beyond one
        #: dict lookup.
        self._bad_extents: Dict[int, List[Tuple[int, int]]] = {}
        #: Finite erase endurance: each zone reset consumes one
        #: program/erase cycle from that zone's budget.  ``None`` models
        #: an unlimited device (the default); with a limit, the reset
        #: that spends the last cycle still succeeds but leaves the zone
        #: READ_ONLY — the §2.1 end-of-life transition — and further
        #: resets of that zone are rejected.
        self.zone_reset_limit = zone_reset_limit
        #: Lifetime reset count per zone index (sparse; absent == 0).
        self._reset_counts: Dict[int, int] = {}

    # -- address helpers --------------------------------------------------------

    def zone_index(self, offset: int) -> int:
        """Zone number containing byte ``offset``."""
        if not 0 <= offset < self.size_bytes:
            raise InvalidAddressError(
                f"{self.name}: offset {offset:#x} outside device")
        return offset // self.zone_size

    def zone_at(self, offset: int) -> Zone:
        """The ``Zone`` containing byte ``offset``."""
        return self.zones[self.zone_index(offset)]

    def report_zones(self) -> List[ZoneInfo]:
        """Snapshot of every zone (the NVMe Zone Management Receive report)."""
        return [zone.info() for zone in self.zones]

    def zone_info(self, index: int) -> ZoneInfo:
        """Snapshot of zone ``index``."""
        return self.zones[index].info()

    def zone_fill_fraction(self, index: int) -> float:
        """Written fraction of zone ``index``'s capacity, in [0, 1].

        Zone-state characterization studies show per-command latency on
        real ZNS devices growing with how full the target zone is (the
        device does more internal housekeeping near zone capacity); the
        fail-slow injector uses this to couple its ramp to zone state.
        """
        zone = self.zones[index]
        if self.zone_capacity == 0:
            return 0.0
        return (zone.write_pointer - zone.start) / self.zone_capacity

    @property
    def open_zone_count(self) -> int:
        return self._open_count

    @property
    def active_zone_count(self) -> int:
        return self._active_count

    # -- state machine ------------------------------------------------------------

    def _transition(self, zone: Zone, new_state: ZoneState) -> None:
        old = zone.state
        if old is new_state:
            return
        self._open_count += int(new_state.is_open) - int(old.is_open)
        self._active_count += int(new_state.is_active) - int(old.is_active)
        zone.state = new_state

    def _make_open(self, zone: Zone, explicit: bool) -> None:
        """Open ``zone``, honouring the open/active limits (§2.1)."""
        target = ZoneState.EXPLICIT_OPEN if explicit else ZoneState.IMPLICIT_OPEN
        if zone.state.is_open:
            if explicit and zone.state is ZoneState.IMPLICIT_OPEN:
                self._transition(zone, target)
            return
        if not zone.state.is_writable:
            raise ZoneStateError(
                f"{self.name}: zone {zone.index} not writable "
                f"(state={zone.state.value})")
        if not zone.state.is_active and self._active_count >= self.max_active_zones:
            raise OpenZoneLimitError(
                f"{self.name}: active zone limit {self.max_active_zones} reached")
        if self._open_count >= self.max_open_zones:
            self._auto_close_one()
        self._transition(zone, target)

    def _auto_close_one(self) -> None:
        """Close the least-recently-written implicitly-open zone.

        Real devices do this transparently for implicitly-open zones; if
        every open zone is explicitly open the command fails, which is what
        the limit in the paper refers to.
        """
        candidates = [z for z in self.zones
                      if z.state is ZoneState.IMPLICIT_OPEN]
        if not candidates:
            raise OpenZoneLimitError(
                f"{self.name}: open zone limit {self.max_open_zones} reached "
                "and no implicitly-open zone to evict")
        victim = min(candidates, key=lambda z: z.last_write_time)
        self._transition(victim, ZoneState.CLOSED)

    # -- command application ---------------------------------------------------------

    def _apply(self, bio: Bio) -> float:
        # Identity-compare the hot ops in frequency order; this runs once
        # per command, and a per-call dispatch dict showed up in profiles.
        op = bio.op
        if op is Op.WRITE:
            # ``_apply_write``'s healthy fast path inlined: this dispatch
            # plus the write run once per data command, and the extra
            # frame showed up in profiles.  Any miss (preflush flag,
            # state, pointer, capacity) takes the full method below.
            if not bio.flags & _BIO_PREFLUSH:
                offset = bio.offset
                index = offset // self.zone_size
                zones = self.zones
                if 0 <= index < len(zones):
                    zone = zones[index]
                    state = zone.state
                    if ((state is ZoneState.IMPLICIT_OPEN
                         or state is ZoneState.EXPLICIT_OPEN)
                            and offset == zone.write_pointer):
                        end = offset + bio.length
                        cap_end = zone.start + zone.capacity
                        if end <= cap_end:
                            self._media[offset:end] = bio.data
                            zone.write_pointer = end
                            zone.last_write_time = self.sim.now
                            self._dirty_zones.add(index)
                            if end == cap_end:
                                self._note_full(zone)
                            return 0.0
            return self._apply_write(bio)
        if op is Op.READ:
            return self._apply_read(bio)
        if op is Op.ZONE_APPEND:
            # Mirror of the WRITE fast path for appends.
            offset = bio.offset
            if not offset % self.zone_size and \
                    not bio.flags & _BIO_PREFLUSH:
                index = offset // self.zone_size
                zones = self.zones
                if 0 <= index < len(zones):
                    zone = zones[index]
                    state = zone.state
                    if (state is ZoneState.IMPLICIT_OPEN
                            or state is ZoneState.EXPLICIT_OPEN):
                        placed_at = zone.write_pointer
                        end = placed_at + bio.length
                        cap_end = zone.start + zone.capacity
                        if end <= cap_end:
                            self._media[placed_at:end] = bio.data
                            zone.write_pointer = end
                            zone.last_write_time = self.sim.now
                            self._dirty_zones.add(index)
                            if end == cap_end:
                                self._note_full(zone)
                            bio.result = placed_at
                            return 0.0
            return self._apply_append(bio)
        if op is Op.FLUSH:
            return self._apply_flush(bio)
        if op is Op.ZONE_RESET:
            return self._apply_reset(bio)
        if op is Op.ZONE_FINISH:
            return self._apply_finish(bio)
        if op is Op.ZONE_OPEN:
            return self._apply_open(bio)
        if op is Op.ZONE_CLOSE:
            return self._apply_close(bio)
        raise ZoneStateError(f"{self.name}: unsupported op {bio.op}")

    def _apply_read(self, bio: Bio) -> float:
        zone = self.zone_at(bio.offset)
        if bio.end_offset > zone.start + self.zone_size:
            raise InvalidAddressError(
                f"{self.name}: read crosses zone boundary at {bio.offset:#x}")
        if zone.state is ZoneState.OFFLINE:
            raise ZoneStateError(f"{self.name}: zone {zone.index} is offline")
        if bio.end_offset > zone.write_pointer:
            raise ReadUnwrittenError(
                f"{self.name}: read [{bio.offset:#x},{bio.end_offset:#x}) "
                f"beyond write pointer {zone.write_pointer:#x} "
                f"of zone {zone.index}")
        # Zero-copy: the result is a view of the media.  Safe because zones
        # are sequential-write — already-written bytes cannot be overwritten
        # without a zone reset — and consumers materialize ``bytes`` at the
        # user-visible boundary (RaiznVolume joins pieces into bytes).
        bio.result = memoryview(self._media)[bio.offset:bio.end_offset]
        extents = self._bad_extents.get(zone.index)
        if extents:
            for start, end in extents:
                if start < bio.end_offset and bio.offset < end:
                    # The corrupt view stays in ``bio.result`` so harnesses
                    # can show what an unprotected read would have returned.
                    raise MediaError(
                        f"{self.name}: unrecoverable media error in "
                        f"[{start:#x},{end:#x}) of zone {zone.index}",
                        device=self.name, offset=start, length=end - start)
        return 0.0

    def _check_write(self, bio: Bio) -> Zone:
        zone = self.zone_at(bio.offset)
        if not zone.state.is_writable:
            raise ZoneStateError(
                f"{self.name}: zone {zone.index} not writable "
                f"(state={zone.state.value})")
        if bio.offset != zone.write_pointer:
            raise WritePointerViolation(
                f"{self.name}: write at {bio.offset:#x} != write pointer "
                f"{zone.write_pointer:#x} of zone {zone.index}")
        if bio.end_offset > zone.writable_end:
            raise InvalidAddressError(
                f"{self.name}: write past zone {zone.index} capacity")
        return zone

    def _apply_write(self, bio: Bio) -> float:
        if bio.flags & _BIO_PREFLUSH:
            self._snapshot_flush(bio)
        zone = self._check_write(bio)
        self._make_open(zone, explicit=False)
        assert bio.data is not None
        self._media[bio.offset:bio.end_offset] = bio.data
        zone.advance(bio.length, self.sim.now)
        self._dirty_zones.add(zone.index)
        if zone.state is ZoneState.FULL:
            self._note_full(zone)
        return 0.0

    def _apply_append(self, bio: Bio) -> float:
        offset = bio.offset
        if offset % self.zone_size:
            raise InvalidAddressError(
                f"{self.name}: zone append offset {offset:#x} is not "
                "a zone start")
        if bio.flags & _BIO_PREFLUSH:
            self._snapshot_flush(bio)
        zone = self.zone_at(offset)
        if not zone.state.is_writable:
            raise ZoneStateError(
                f"{self.name}: zone {zone.index} not writable "
                f"(state={zone.state.value})")
        if bio.length > zone.remaining:
            raise ZoneStateError(
                f"{self.name}: append of {bio.length} bytes exceeds zone "
                f"{zone.index} remaining capacity {zone.remaining}")
        self._make_open(zone, explicit=False)
        placed_at = zone.write_pointer
        assert bio.data is not None
        self._media[placed_at:placed_at + bio.length] = bio.data
        zone.advance(bio.length, self.sim.now)
        self._dirty_zones.add(zone.index)
        if zone.state is ZoneState.FULL:
            self._note_full(zone)
        bio.result = placed_at
        return 0.0

    def _note_full(self, zone: Zone) -> None:
        # advance() set state directly; fix the open/active accounting.
        zone.state = ZoneState.IMPLICIT_OPEN  # undo for bookkeeping
        self._transition(zone, ZoneState.FULL)

    def _apply_flush(self, bio: Bio) -> float:
        self._snapshot_flush(bio)
        return 0.0

    def _snapshot_flush(self, bio: Bio) -> None:
        """Record, per zone, the write pointer the flush must persist to.

        Only dirty zones are visited; on a large device almost all zones
        are clean at any moment, so walking all of them per flush dominated
        flush-heavy workloads.
        """
        zones = self.zones
        bio.aux = {index: zones[index].write_pointer
                   for index in self._dirty_zones}

    def _apply_reset(self, bio: Bio) -> float:
        if bio.offset % self.zone_size:
            raise InvalidAddressError(
                f"{self.name}: zone reset offset {bio.offset:#x} is not "
                "a zone start")
        zone = self.zone_at(bio.offset)
        if self.zone_reset_limit is not None and \
                self._reset_counts.get(zone.index, 0) >= \
                self.zone_reset_limit:
            # The erase budget is spent: the zone is end-of-life and a
            # reset (an erase) is exactly what it can no longer do.
            raise ZoneStateError(
                f"{self.name}: zone {zone.index} is worn out "
                f"({self.zone_reset_limit} resets); cannot reset")
        old_state = zone.state
        zone.reset()
        zone.state = old_state          # let _transition do the accounting
        self._transition(zone, ZoneState.EMPTY)
        # The stale media bytes are left in place: reads past the write
        # pointer are rejected, rewrites overwrite [0, wp) before it is
        # readable again, and the power-loss settle zeroes only spans it
        # rolls back — so nothing can observe them, and zero-filling the
        # whole zone dominated reset-heavy workloads.
        self._dirty_zones.discard(zone.index)
        # An erase block rewrite clears grown media defects for our model:
        # a reset zone starts over with clean media.
        self._bad_extents.pop(zone.index, None)
        spent = self._reset_counts.get(zone.index, 0) + 1
        self._reset_counts[zone.index] = spent
        if self.zone_reset_limit is not None and \
                spent >= self.zone_reset_limit:
            # Last erase cycle: the reset itself succeeded, but the
            # zone comes back read-only (empty and unwritable).
            self._transition(zone, ZoneState.READ_ONLY)
        return 0.0

    def _apply_finish(self, bio: Bio) -> float:
        zone = self.zone_at(bio.offset)
        if zone.state is ZoneState.FULL:
            return 0.0
        # The NVMe state machine only admits ZONE_FINISH from a writable
        # state; enforce it here so READ_ONLY/OFFLINE zones reject the
        # command with the device-level error every other op produces.
        if not zone.state.is_writable:
            raise ZoneStateError(
                f"{self.name}: cannot finish zone {zone.index} from "
                f"{zone.state.value}")
        old_state = zone.state
        zone.finish()
        zone.state = old_state
        self._transition(zone, ZoneState.FULL)
        return 0.0

    def _apply_open(self, bio: Bio) -> float:
        zone = self.zone_at(bio.offset)
        self._make_open(zone, explicit=True)
        return 0.0

    def _apply_close(self, bio: Bio) -> float:
        zone = self.zone_at(bio.offset)
        if zone.state is ZoneState.CLOSED:
            return 0.0
        if not zone.state.is_open:
            raise ZoneStateError(
                f"{self.name}: cannot close zone {zone.index} from "
                f"{zone.state.value}")
        if zone.write_pointer == zone.start:
            self._transition(zone, ZoneState.EMPTY)
        else:
            self._transition(zone, ZoneState.CLOSED)
        return 0.0

    # -- durability ------------------------------------------------------------------

    def _persist(self, bio: Bio) -> None:
        if bio.aux is not None:  # flush or preflush snapshot
            zones = self.zones
            discard = self._dirty_zones.discard
            for index, wp in bio.aux.items():
                zone = zones[index]
                dp = wp if wp < zone.write_pointer else zone.write_pointer
                if dp > zone.durable_pointer:
                    zone.durable_pointer = dp
                if zone.durable_pointer >= zone.write_pointer:
                    discard(index)
        if bio.flags & _BIO_FUA and \
                (bio.op is Op.WRITE or bio.op is Op.ZONE_APPEND):
            zone = self.zones[bio.offset // self.zone_size]
            # ZNS persistence is prefix-ordered within a zone: a durable
            # write implies everything before it in the zone is durable.
            if bio.op is Op.WRITE:
                end = bio.offset + bio.length
            else:
                # A FUA append's durable end is derived from the placement
                # address; a missing result must fail loudly — falling back
                # to 0 would silently persist a wrong (device-absolute-0
                # based) prefix instead of the appended bytes.
                assert bio.result is not None, (
                    f"{self.name}: FUA zone append completed without a "
                    "placement result")
                end = bio.result + bio.length
            wp = zone.write_pointer
            dp = end if end < wp else wp
            if dp > zone.durable_pointer:
                zone.durable_pointer = dp
            if zone.durable_pointer >= wp:
                self._dirty_zones.discard(zone.index)

    # -- fault injection ----------------------------------------------------------------

    def power_fail(self, loss_rng: Optional[random.Random] = None) -> None:
        """Cut power, losing an arbitrary suffix of each zone's cached data.

        For every zone, a random whole number of atomic write units from
        the unflushed tail survives (sequential-persistence guarantee);
        the rest is erased from media.  Open zones come back CLOSED, as
        real devices close zones across power cycles.
        """
        rng = loss_rng or self._rng
        self.power_off()
        for zone in self.zones:
            self._settle_zone_after_power_loss(zone, rng)

    def zone_survivor_states(self, index: int) -> List[int]:
        """Every legal post-power-loss write pointer for zone ``index``.

        The ZNS persistence contract (paper §2.1) lets any whole number of
        atomic write units of the unflushed tail survive a power cut, in
        prefix order: the legal survivors are ``durable_pointer + k * AWU``
        for ``k`` up to the cached unit count, plus the sub-unit tail when
        one exists.  A clean zone has exactly one survivor state: its
        current write pointer.
        """
        zone = self.zones[index]
        cached = zone.write_pointer - zone.durable_pointer
        if cached <= 0:
            return [zone.write_pointer]
        units = cached // self.atomic_write_bytes
        tail = cached % self.atomic_write_bytes
        states = [zone.durable_pointer + k * self.atomic_write_bytes
                  for k in range(units + 1)]
        if tail:
            states.append(zone.write_pointer)
        return states

    def survivor_state_space(self) -> Dict[int, List[int]]:
        """Per-dirty-zone survivor choices (clean zones have no choice)."""
        return {index: self.zone_survivor_states(index)
                for index in sorted(self._dirty_zones)}

    def power_fail_to(self, survivors: Mapping[int, int]) -> None:
        """Deterministic power cut: settle each zone to a chosen survivor.

        ``survivors`` maps zone index to the durable write pointer that
        zone keeps; it must be one of :meth:`zone_survivor_states` for the
        zone.  Zones not named settle to their durable pointer (the
        minimum legal survivor — for clean zones that is a no-op).  Used
        by the crash-point explorer to enumerate crash states instead of
        sampling them randomly.
        """
        for index, survivor in survivors.items():
            if survivor not in self.zone_survivor_states(index):
                raise InvalidAddressError(
                    f"{self.name}: {survivor:#x} is not a legal survivor "
                    f"state for zone {index}")
        self.power_off()
        for zone in self.zones:
            self._settle_zone_to(
                zone, survivors.get(zone.index, zone.durable_pointer))

    def _settle_zone_after_power_loss(self, zone: Zone,
                                      rng: random.Random) -> None:
        survivor = zone.durable_pointer
        cached = zone.write_pointer - zone.durable_pointer
        if cached > 0:
            units = cached // self.atomic_write_bytes
            tail = cached % self.atomic_write_bytes
            kept_units = rng.randint(0, units)
            kept = kept_units * self.atomic_write_bytes
            if kept_units == units and tail and rng.random() < 0.5:
                kept += tail
            survivor = zone.durable_pointer + kept
        self._settle_zone_to(zone, survivor)

    def _settle_zone_to(self, zone: Zone, survivor: int) -> None:
        """Apply one zone's post-power-loss state: keep ``[start, survivor)``."""
        if survivor < zone.write_pointer:
            self._media[survivor:zone.write_pointer] = bytes(
                zone.write_pointer - survivor)
            zone.write_pointer = survivor
            extents = self._bad_extents.get(zone.index)
            if extents:
                # Rolled-back spans were zeroed above; only the surviving
                # prefix of each defect remains corrupt media.
                clipped = [(s, min(e, survivor))
                           for s, e in extents if s < survivor]
                if clipped:
                    self._bad_extents[zone.index] = clipped
                else:
                    del self._bad_extents[zone.index]
        zone.durable_pointer = survivor
        self._dirty_zones.discard(zone.index)
        if zone.state in (ZoneState.READ_ONLY, ZoneState.OFFLINE):
            return
        if zone.state is ZoneState.FULL and not zone.finished_by_command \
                and zone.write_pointer == zone.writable_end:
            return
        zone.finished_by_command = False
        if zone.write_pointer == zone.start:
            self._transition(zone, ZoneState.EMPTY)
        elif zone.write_pointer == zone.writable_end:
            self._transition(zone, ZoneState.FULL)
        else:
            self._transition(zone, ZoneState.CLOSED)

    # -- crash snapshots ----------------------------------------------------------------

    def crash_snapshot(self) -> Tuple:
        """Opaque copy of all crash-relevant device state.

        Captures each zone's written media prefix plus the zone table,
        open/active accounting, the dirty set, power state, and the
        service-time RNG, so a crash-state explorer can try many survivor
        states / recovery runs from the same instant.  Only ``[start,
        write_pointer)`` is saved per zone: bytes past the write pointer
        are unobservable (reads are rejected, writes overwrite, the
        power-loss settle zeroes what it rolls back), which keeps a
        snapshot proportional to written data, not device size.
        """
        return (
            [(z.state, z.write_pointer, z.durable_pointer,
              z.last_write_time, z.finished_by_command,
              bytes(self._media[z.start:z.write_pointer]))
             for z in self.zones],
            self._open_count,
            self._active_count,
            set(self._dirty_zones),
            self.powered,
            self.failed,
            self._rng.getstate(),
            {index: list(extents)
             for index, extents in self._bad_extents.items()},
            dict(self._reset_counts),
        )

    def restore_crash_snapshot(self, snapshot: Tuple) -> None:
        """Restore state captured by :meth:`crash_snapshot` (quiescent IO)."""
        zones, open_count, active_count, dirty, powered, failed, rng_state = \
            snapshot[:7]
        # Snapshots predating latent-error / endurance support carry no
        # extent map / reset counters.
        bad = snapshot[7] if len(snapshot) > 7 else {}
        resets = snapshot[8] if len(snapshot) > 8 else {}
        for zone, (state, wp, dp, lwt, fbc, prefix) in zip(self.zones, zones):
            zone.state = state
            zone.write_pointer = wp
            zone.durable_pointer = dp
            zone.last_write_time = lwt
            zone.finished_by_command = fbc
            self._media[zone.start:zone.start + len(prefix)] = prefix
        self._open_count = open_count
        self._active_count = active_count
        self._dirty_zones = set(dirty)
        self.powered = powered
        self.failed = failed
        self._rng.setstate(rng_state)
        self._bad_extents = {index: list(extents)
                             for index, extents in bad.items()}
        self._reset_counts = dict(resets)
        # A drained event loop leaves no channel holders; reset defensively
        # so a restored device never inherits a stale grant.
        self.channels.in_use = 0
        self.channels._waiters.clear()
        self._channel_queue.clear()

    def mark_bad(self, offset: int, length: int) -> None:
        """Inject a latent (UNC) media error over ``[offset, offset+length)``.

        The span must stay inside one zone.  The stored bytes are bit
        flipped — so a consumer that ignores the error status observably
        reads *wrong* data, not just an error — and every subsequent read
        intersecting the span raises :class:`MediaError` until the zone is
        reset (or the span is rolled back by a power cut).
        """
        if length <= 0:
            raise InvalidAddressError("bad extent needs a positive length")
        zone = self.zone_at(offset)
        if offset + length > zone.start + self.zone_size:
            raise InvalidAddressError(
                f"{self.name}: bad extent crosses zone boundary at "
                f"{offset:#x}")
        span = memoryview(self._media)[offset:offset + length]
        for i in range(len(span)):
            span[i] ^= 0xFF
        self._bad_extents.setdefault(zone.index, []).append(
            (offset, offset + length))

    def bad_extents(self, index: int) -> List[Tuple[int, int]]:
        """The injected UNC spans currently live in zone ``index``."""
        return list(self._bad_extents.get(index, ()))

    def zone_reset_count(self, index: int) -> int:
        """Lifetime erase (reset) cycles consumed by zone ``index``."""
        return self._reset_counts.get(index, 0)

    def worn_zones(self) -> List[int]:
        """Zones whose erase budget is exhausted (empty if unlimited)."""
        if self.zone_reset_limit is None:
            return []
        return sorted(index for index, spent in self._reset_counts.items()
                      if spent >= self.zone_reset_limit)

    def endurance_report(self) -> dict:
        """Wear summary: total resets, per-zone peak, worn-out zones."""
        return {
            "reset_limit": self.zone_reset_limit,
            "total_resets": sum(self._reset_counts.values()),
            "max_zone_resets": max(self._reset_counts.values(), default=0),
            "worn_zones": self.worn_zones(),
        }

    def set_zone_read_only(self, index: int) -> None:
        """Inject an end-of-life READ_ONLY transition for zone ``index``."""
        self._transition(self.zones[index], ZoneState.READ_ONLY)

    def set_zone_offline(self, index: int) -> None:
        """Inject an end-of-life OFFLINE transition for zone ``index``."""
        self._transition(self.zones[index], ZoneState.OFFLINE)
