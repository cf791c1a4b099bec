"""Metadata zone management with swap-zone garbage collection (§4.3).

Each device reserves one zone for partial parity logs (isolated because
they are written on every non-stripe-aligned write), one for all other
metadata, and at least one swap zone.  When a metadata zone fills, the
garbage collector designates a swap zone as its replacement, immediately
redirects new log entries there, checkpoints the valid in-memory metadata
(flagged so recovery can tell checkpoints from normal updates), and resets
the old zone to serve as the next swap zone — Figure 4.

All log writes use zone appends, "ensuring high throughput even in the
presence of many concurrent metadata log writes".
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List

from ..block.bio import _FUA as _BIO_FUA
from ..block.bio import Bio, BioFlags
from ..block.device import BlockDevice
from ..errors import MetadataError
from ..sim import Event, Lock, Simulator
from ..sim.engine import InlineProcess
from .metadata import MetadataEntry


class MetadataRole(enum.Enum):
    """Which log stream a metadata zone currently serves."""

    PARTIAL_PARITY = "partial_parity"
    GENERAL = "general"

    # Identity hash: role-keyed dict lookups (locks, zone map, usage) sit
    # on the append hot path and Enum's default ``__hash__`` is a Python-
    # level call.  Identity is consistent with Enum equality (members are
    # singletons), and no role is ever iterated out of a set — the only
    # role collections are insertion-ordered dicts and literal tuples — so
    # per-process id variation cannot reorder events.
    __hash__ = object.__hash__  # type: ignore[assignment]


#: ``checkpoint_provider(role, device_index)`` returns the live in-memory
#: metadata entries to checkpoint into a fresh zone during GC.
CheckpointProvider = Callable[[MetadataRole, int], List[MetadataEntry]]


class DeviceMetadataZones:
    """The metadata zones of one array device."""

    def __init__(
        self,
        sim: Simulator,
        device: BlockDevice,
        device_index: int,
        zone_indices: List[int],
        zone_size: int,
        zone_capacity: int,
        checkpoint_provider: CheckpointProvider,
    ):
        if len(zone_indices) < 3:
            raise MetadataError("need >= 3 metadata zones per device")
        self.sim = sim
        self.device = device
        self.device_index = device_index
        self.zone_size = zone_size
        self.zone_capacity = zone_capacity
        self.checkpoint_provider = checkpoint_provider
        self.role_zone: Dict[MetadataRole, int] = {
            MetadataRole.PARTIAL_PARITY: zone_indices[0],
            MetadataRole.GENERAL: zone_indices[1],
        }
        self.swap_zones: List[int] = list(zone_indices[2:])
        #: Zones (besides the role zone) holding the live checkpoint of a
        #: role whose last GC spilled past one zone.  They stay out of the
        #: swap pool — they hold the only durable copy of that metadata —
        #: until the next rotation re-checkpoints them.
        self.checkpoint_spill: Dict[MetadataRole, List[int]] = {
            role: [] for role in MetadataRole}
        #: Mirror of bytes appended per metadata zone index.
        self.used: Dict[int, int] = {index: 0 for index in zone_indices}
        self._locks: Dict[MetadataRole, Lock] = {
            role: Lock(sim) for role in MetadataRole}
        #: Interned per-role trace-site ids, keyed by role value (valid
        #: for one sink; the volume resets this when it attaches a
        #: tracer).
        self._tr_sites: Dict[str, int] = {}
        #: Lifetime counters for Table 1 / ablation reporting.
        self.appended_bytes = 0
        self.gc_cycles = 0

    # -- append ------------------------------------------------------------------

    def append(self, role: MetadataRole, entry: MetadataEntry,
               fua: bool = False):
        """Process-style append; returns the PBA where the entry landed.

        Rotates to a swap zone first when the entry does not fit.  The
        per-role lock covers only space reservation and rotation — the
        appends themselves run concurrently ("metadata is written using
        zone appends, ensuring high throughput even in the presence of
        many concurrent metadata log writes", §4.3).
        """
        encoded = entry.encode()
        if len(encoded) > self.zone_capacity:
            raise MetadataError(
                f"metadata entry of {len(encoded)} bytes exceeds the "
                f"metadata zone capacity {self.zone_capacity}")
        yield self._locks[role].request()
        try:
            if self.used[self.role_zone[role]] + len(encoded) > self.zone_capacity:
                yield from self._rotate(role)
            zone_index = self.role_zone[role]
            self.used[zone_index] += len(encoded)
            flags = BioFlags.FUA if fua else BioFlags.NONE
            # Submission (synchronous) reserves the placement; completion
            # is awaited outside the lock so appends pipeline.
            event = self.device.submit(
                Bio.zone_append(zone_index * self.zone_size, encoded, flags))
        finally:
            self._locks[role].release()
        bio = yield event
        self.appended_bytes += len(encoded)
        return bio.result

    def append_async(self, role: MetadataRole, entry: MetadataEntry,
                     fua: bool = False, batch: list = None) -> Event:
        """Callback-style :meth:`append`; succeeds with the landing PBA.

        Semantically identical to ``sim.process(mdz.append(...))`` but
        without a generator per log entry — the RAIZN write path appends
        metadata on every partial-stripe write, so the process machinery
        dominated wall time.  Each step is queued exactly where the
        process version's resumptions fell, keeping fixed-seed event
        ordering (and with it every RNG draw) byte-identical.

        When ``batch`` is given, the start hop is appended to it as a
        ``(fn, args)`` call instead of being scheduled — the caller owns
        one ``schedule_batch`` entry covering a whole stripe's appends.
        """
        return self.append_encoded_async(role, entry, fua, batch,
                                         self._append_start)

    def append_encoded_async(self, role: MetadataRole, encoded: bytes,
                             fua: bool = False, batch: list = None,
                             start=None) -> Event:
        """:meth:`append_async` for a caller that already holds the encoded
        bytes (the write path's partial-parity entries are produced by
        :func:`repro.raizn.metadata.encode_partial_parity_bytes`).  The
        hop structure is identical — encoding an entry is pure
        computation, so moving it before hop 1 changes no event order.

        ``start`` is the hop-1 step; :meth:`append_async` passes
        :meth:`_append_start` so an entry is encoded there (an encode
        error then fails the returned event, as the process version's
        did).
        """
        sim = self.sim
        # ``sim.event()`` inlined: one call per metadata append.
        free = sim._event_free
        if free:
            done = free.pop()
            done.triggered = False
            done.ok = True
        else:
            done = Event(sim)
        tracer = self.device.tracer
        if tracer is not None:
            # The md span covers lock wait, any log rotation, and the
            # device append; it parents under the logical bio whose
            # synchronous fan-out issued this append (if any).  The span
            # doubles as the completion callback (see repro.trace).
            sites = self._tr_sites
            rolename = role._value_  # str key: Enum.__hash__ is Python-level
            try:
                site = sites[rolename]
            except KeyError:
                site = sites[rolename] = tracer.site("md", role,
                                                     self.device.name)
            done.add_callback(tracer.begin_at(site))
        if start is None:
            start = self._append_start_encoded
        # Hop 1 stands in for the deferred process start.
        if batch is not None:
            batch.append((start, (role, encoded, fua, done)))
        else:
            sim.schedule(0.0, start, role, encoded, fua, done)
        return done

    def _append_start(self, role: MetadataRole, entry: MetadataEntry,
                      fua: bool, done: Event) -> None:
        try:
            encoded = entry.encode()
        except MetadataError as exc:
            done.fail(exc)
            return
        self._append_start_encoded(role, encoded, fua, done)

    def _append_start_encoded(self, role: MetadataRole, encoded: bytes,
                              fua: bool, done: Event) -> None:
        if len(encoded) > self.zone_capacity:
            done.fail(MetadataError(
                f"metadata entry of {len(encoded)} bytes exceeds the "
                f"metadata zone capacity {self.zone_capacity}"))
            return
        lock = self._locks[role]
        if lock.in_use < lock.capacity:
            # Uncontended: take the lock and queue the next step, matching
            # the process version's hop through its triggered-yield path.
            # (Running the locked step inline here reorders md submissions
            # relative to interleaved same-tick work and shifts the fixed
            # seed digests — measured, not hypothetical.)
            lock.in_use += 1
            self.sim._now_queue.append(
                (self._append_locked, (role, encoded, fua, done)))
        else:
            waiter = Event(self.sim)
            waiter.add_callback(
                lambda _ev: self._append_locked(role, encoded, fua, done))
            lock._waiters.append(waiter)

    def _append_locked(self, role: MetadataRole, encoded: bytes,
                       fua: bool, done: Event) -> None:
        lock = self._locks[role]
        nbytes = len(encoded)
        zone_index = self.role_zone[role]
        if self.used[zone_index] + nbytes > self.zone_capacity:
            # Rare slow path: zone rotation involves multi-step GC, so hand
            # off to generator code.  InlineProcess starts in this frame —
            # exactly where the process version would have kept running.
            InlineProcess(self.sim,
                          self._append_rotating(role, encoded, fua, done))
            return
        try:
            self.used[zone_index] += nbytes
            event = self.device.submit(
                Bio.fast_append(zone_index * self.zone_size, encoded,
                                _BIO_FUA if fua else 0))
        except BaseException as exc:  # noqa: BLE001 - mirror process failure
            lock.release()
            done.fail(exc)
            return
        lock.release()
        event.add_callback(
            lambda ev, n=nbytes, d=done: self._append_done(ev, n, d))

    def _append_rotating(self, role: MetadataRole, encoded: bytes,
                         fua: bool, done: Event):
        """Generator tail of :meth:`append_async` when GC must run first."""
        try:
            try:
                yield from self._rotate(role)
                zone_index = self.role_zone[role]
                self.used[zone_index] += len(encoded)
                flags = BioFlags.FUA if fua else BioFlags.NONE
                event = self.device.submit(Bio.zone_append(
                    zone_index * self.zone_size, encoded, flags))
            finally:
                self._locks[role].release()
            bio = yield event
        except BaseException as exc:  # noqa: BLE001 - deliver, don't unwind
            done.fail(exc)
            return
        self.appended_bytes += len(encoded)
        done.succeed(bio.result)

    def _append_done(self, event: Event, nbytes: int, done: Event) -> None:
        value = event.value
        if event.ok:
            # The submit event is exclusively ours and fully drained (the
            # succeed fast path cleared its callback slot) — return it to
            # the simulator's freelist instead of leaving it to the GC.
            self.sim.recycle(event)
            self.appended_bytes += nbytes
            done.succeed(value.result)
        else:
            done.fail(value)

    def remaining(self, role: MetadataRole) -> int:
        """Bytes left in the role's current zone."""
        return self.zone_capacity - self.used[self.role_zone[role]]

    # -- garbage collection (Figure 4) ----------------------------------------------

    def _rotate(self, role: MetadataRole):
        """Swap in a fresh zone, checkpoint live metadata, reset old zones.

        A checkpoint larger than one zone — e.g. after heavy read-repair
        relocated whole stripe units into the general log — spills into
        further swap zones.  The spilled zones are tracked in
        :attr:`checkpoint_spill` and reclaimed at the next rotation.
        """
        if not self.swap_zones:
            raise MetadataError(
                f"dev {self.device_index}: no swap zone available for "
                f"metadata GC of {role.value}")
        reclaim = [self.role_zone[role]] + self.checkpoint_spill[role]
        self.checkpoint_spill[role] = []
        # Redirect new entries first so logging continues uninterrupted.
        self.role_zone[role] = self.swap_zones.pop(0)
        # Checkpoint valid in-memory metadata into the new zone(s), flagged.
        for entry in self.checkpoint_provider(role, self.device_index):
            entry.checkpoint = True
            encoded = entry.encode()
            if self.used[self.role_zone[role]] + len(encoded) > \
                    self.zone_capacity:
                if not self.swap_zones:
                    raise MetadataError(
                        f"dev {self.device_index}: checkpoint of "
                        f"{role.value} does not fit in the available swap "
                        "zones; metadata zones are too small")
                self.checkpoint_spill[role].append(self.role_zone[role])
                self.role_zone[role] = self.swap_zones.pop(0)
            zone_index = self.role_zone[role]
            self.used[zone_index] += len(encoded)
            yield self.device.submit(
                Bio.zone_append(zone_index * self.zone_size, encoded))
        # Make the checkpoint durable before destroying the old logs: a
        # crash between the reset and an unflushed checkpoint would lose
        # metadata that existed nowhere else.
        yield self.device.submit(Bio.flush())
        # The old zones' logs are now redundant; reset them into swap zones.
        for old_zone in reclaim:
            yield self.device.submit(
                Bio.zone_reset(old_zone * self.zone_size))
            self.used[old_zone] = 0
            self.swap_zones.append(old_zone)
        self.gc_cycles += 1

    def force_gc(self, role: MetadataRole):
        """Trigger a rotation immediately (maintenance / tests)."""
        yield self._locks[role].request()
        try:
            yield from self._rotate(role)
        finally:
            self._locks[role].release()

    # -- recovery support ---------------------------------------------------------------

    def scan_zone(self, zone_index: int):
        """Process-style: parse every entry currently in one metadata zone."""
        info = self.device.zone_info(zone_index)  # type: ignore[attr-defined]
        written = info.write_pointer - info.start
        if written == 0:
            return []
        bio = yield self.device.submit(Bio.read(info.start, written))
        return MetadataEntry.scan(bio.result)

    def scan_all(self):
        """Process-style: entries from every metadata zone of this device.

        Recovery ingests logs from *all* metadata zones — including swap
        zones that may hold a partially-completed checkpoint — and relies
        on generation counters to discard stale duplicates (§4.3).
        """
        entries: List[MetadataEntry] = []
        for zone_index in self.all_zone_indices():
            entries.extend((yield from self.scan_zone(zone_index)))
        return entries

    def all_zone_indices(self) -> List[int]:
        ordered = [self.role_zone[MetadataRole.PARTIAL_PARITY],
                   self.role_zone[MetadataRole.GENERAL]]
        for zones in (self.checkpoint_spill[MetadataRole.PARTIAL_PARITY],
                      self.checkpoint_spill[MetadataRole.GENERAL],
                      self.swap_zones):
            ordered.extend(z for z in zones if z not in ordered)
        # ``used`` keys every metadata zone this device owns; the final
        # sweep covers mid-rotation limbo states.
        ordered.extend(z for z in self.used if z not in ordered)
        return ordered

    def reset_all(self):
        """Process-style: reset every metadata zone (maintenance, §4.3)."""
        for zone_index in self.all_zone_indices():
            yield self.device.submit(Bio.zone_reset(zone_index * self.zone_size))
            self.used[zone_index] = 0

    def recovery_compact(self):
        """Mount-time compaction: rewrite all live metadata, reclaim zones.

        A crash during metadata GC can leave every metadata zone non-empty
        (the old zone is only reset after the checkpoint completes), so the
        normal swap-rotation cannot run.  Recovery instead checkpoints all
        live in-memory metadata — both roles — into the emptiest zone,
        flushes it durable, and only then resets the remaining zones.  A
        crash at any point leaves either the old logs or a complete
        flushed checkpoint on media.
        """
        ordered = self.all_zone_indices()
        # Fill the emptiest zones first (stable sort: ties keep their
        # role/swap ordering, so a single-zone checkpoint lands exactly
        # where it always has), spilling into the next-emptiest when
        # needed, but keep at least two zones reclaimable: one for the
        # partial-parity role and one swap zone.
        by_used = sorted(ordered, key=lambda z: self.used[z])
        limit = len(ordered) - 2
        targets: List[int] = [by_used[0]]
        for role in (MetadataRole.GENERAL, MetadataRole.PARTIAL_PARITY):
            for entry in self.checkpoint_provider(role, self.device_index):
                entry.checkpoint = True
                encoded = entry.encode()
                if self.used[targets[-1]] + len(encoded) > \
                        self.zone_capacity:
                    if len(targets) >= limit:
                        raise MetadataError(
                            f"dev {self.device_index}: recovery checkpoint "
                            "does not fit in the reclaimable metadata zones")
                    targets.append(by_used[len(targets)])
                self.used[targets[-1]] += len(encoded)
                yield self.device.submit(
                    Bio.zone_append(targets[-1] * self.zone_size, encoded))
        yield self.device.submit(Bio.flush())
        others = [z for z in ordered if z not in targets]
        for zone_index in others:
            yield self.device.submit(
                Bio.zone_reset(zone_index * self.zone_size))
            self.used[zone_index] = 0
        self.role_zone[MetadataRole.GENERAL] = targets[-1]
        self.role_zone[MetadataRole.PARTIAL_PARITY] = others[0]
        self.checkpoint_spill = {role: [] for role in MetadataRole}
        self.checkpoint_spill[MetadataRole.GENERAL] = targets[:-1]
        self.swap_zones = others[1:]
        self.gc_cycles += 1
