"""Mount-time crash recovery (paper §4.3, §5.1–§5.3).

``mount`` reassembles a :class:`~repro.raizn.volume.RaiznVolume` from its
devices after a clean shutdown, a power loss, or a device failure:

1. locate and read the superblock on each device, reorder devices by their
   persisted index;
2. ingest every metadata log entry from every metadata zone (including
   swap zones holding partially-completed GC checkpoints), resolving
   duplicates by generation counter;
3. replay valid zone-reset write-ahead logs;
4. derive each logical zone's write pointer from the physical write
   pointers, detect stripe holes, repair them from (partial) parity when
   possible, and otherwise roll the write pointer back and arm stripe-unit
   relocation for the hidden region;
5. rebuild persistence bitmaps and the in-memory stripe buffers of
   incomplete tail stripes (reconstructing a missing device's data from
   partial parity logs);
6. compact the metadata zones so the volume restarts with a clean,
   checkpointed metadata state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..block.bio import Bio
from ..errors import (
    DataLossError,
    DeviceFailedError,
    MediaError,
    RecoveryError,
)
from ..sim import Simulator
from ..zns.device import ZNSDevice
from ..zns.spec import ZoneState
from .config import RaiznConfig
from .mdzone import MetadataRole
from .metadata import (
    MetadataEntry,
    MetadataType,
    Superblock,
    decode_generation_block,
    decode_partial_parity,
    decode_zone_reset,
    encode_relocated_su,
)
from .parity import xor_into
from .volume import RaiznVolume


def _safe_rewrite_decode(entry):
    """Decode a rewrite WAL entry, tolerating other OP_WAL payloads."""
    from .maintenance import decode_rewrite_wal
    try:
        decoded = decode_rewrite_wal(entry)
    except Exception:
        return -1, None
    return decoded[0], decoded


def mount(sim: Simulator, devices: List[Optional[ZNSDevice]],
          **config_overrides) -> RaiznVolume:
    """Mount an existing RAIZN array; drains the event loop.

    ``devices`` may be given in any order; a failed/missing device is
    passed as ``None`` (or simply marked failed), producing a degraded
    volume that can later be repaired with ``rebuild``.

    ``config_overrides`` sets the user-modifiable (non-persisted) knobs,
    e.g. ``relocation_rebuild_threshold`` or ``stripe_buffers_per_zone``.
    """
    return sim.run_process(mount_process(sim, devices, **config_overrides))


def mount_process(sim: Simulator, devices: List[Optional[ZNSDevice]],
                  **config_overrides):
    """Process-style body of :func:`mount`."""
    recovery = _Recovery(sim, devices, config_overrides)
    yield from recovery.run()
    return recovery.volume


class _Recovery:
    """One mount attempt; holds all intermediate state."""

    def __init__(self, sim: Simulator, devices: List[Optional[ZNSDevice]],
                 config_overrides: Optional[dict] = None):
        self.sim = sim
        self.raw_devices = devices
        self.config_overrides = config_overrides or {}
        self.volume: Optional[RaiznVolume] = None
        #: Every scanned metadata entry as ``(device, entry)``, grouped by
        #: type once per mount, in device-then-log order.
        self.by_type: Dict[MetadataType, List[Tuple[int, MetadataEntry]]] = {
            mdtype: [] for mdtype in MetadataType}
        #: ZONE_RESET_LOG entries keyed by the zone they log, in log order.
        self.reset_logs: Dict[int, List[MetadataEntry]] = {}

    # -- top level ------------------------------------------------------------

    def run(self):
        ordered, superblock = yield from self._identify_devices()
        config = RaiznConfig(
            num_data=superblock.num_data,
            num_parity=superblock.num_parity,
            stripe_unit_bytes=superblock.stripe_unit_bytes,
            num_metadata_zones=superblock.num_metadata_zones,
            **self.config_overrides)
        volume = RaiznVolume(self.sim, ordered, config,
                             array_uuid=superblock.array_uuid)
        self.volume = volume
        yield from self._scan_metadata()
        self._ingest_generation()
        self._sync_physical_descriptors()
        partial_parity = self._ingest_partial_parity()
        self._ingest_relocations()
        yield from self._resume_interrupted_rewrites()
        for zone in range(volume.num_data_zones):
            yield from self._recover_zone(zone, partial_parity.get(zone, {}))
        yield from self._audit_relocated_parity()
        yield from self._run_threshold_rewrites()
        yield from self._flush_repairs()
        self._bump_empty_generations()
        yield from self._finish_metadata()

    # -- device identification ----------------------------------------------------

    def _identify_devices(self):
        """Find superblocks, reorder devices into their array slots."""
        found: List[Tuple[ZNSDevice, Superblock]] = []
        for dev in self.raw_devices:
            if dev is None:
                continue
            try:
                superblock = yield from self._find_superblock(dev)
            except DeviceFailedError:
                # A device can be present but failed (evicted with
                # ``fail_device(remove=False)``); treat it exactly like a
                # missing device and mount degraded — rejecting the mount
                # would turn a within-tolerance fault into an outage.
                continue
            if superblock is None:
                # No superblock: a blank spare, or a replacement whose
                # rebuild was cut before its metadata was written.  Its
                # data zones are incomplete, so its slot mounts degraded
                # like a missing device.
                continue
            found.append((dev, superblock))
        if not found:
            raise RecoveryError("no device carries a RAIZN superblock")
        reference = found[0][1]
        width = reference.num_data + reference.num_parity
        if len(found) < width - reference.num_parity:
            raise DataLossError(
                f"only {len(found)} of {width} devices present; beyond "
                "parity tolerance")
        ordered: List[Optional[ZNSDevice]] = [None] * width
        for dev, superblock in found:
            if superblock.array_uuid != reference.array_uuid:
                raise RecoveryError(
                    f"device {dev.name} belongs to a different array")
            if ordered[superblock.device_index] is not None:
                raise RecoveryError(
                    f"duplicate device index {superblock.device_index}")
            ordered[superblock.device_index] = dev
        return ordered, reference

    def _find_superblock(self, dev: ZNSDevice):
        """Scan zones from the top of the device until a superblock appears.

        Metadata zones always occupy the device's last
        ``num_metadata_zones`` zones, and the general metadata zone always
        contains a superblock entry (written at format time and
        re-checkpointed by every metadata GC), so a bounded backwards scan
        finds it.  Returns None when the scan finds none.
        """
        for index in range(dev.num_zones - 1,
                           max(-1, dev.num_zones - 17), -1):
            entries = yield from self._scan_zone(dev, index)
            for entry in entries:
                if entry.mdtype is MetadataType.SUPERBLOCK:
                    return Superblock.from_entry(entry)
        return None

    @staticmethod
    def _scan_zone(dev: ZNSDevice, zone_index: int):
        info = dev.zone_info(zone_index)
        written = info.write_pointer - info.start
        if written == 0:
            return []
        bio = yield dev.submit(Bio.read(info.start, written))
        return MetadataEntry.scan(bio.result)

    # -- metadata ingest --------------------------------------------------------------

    def _scan_metadata(self):
        """Read every metadata zone once and index its entries by type."""
        volume = self.volume
        by_type = self.by_type
        for index, dev in enumerate(volume.devices):
            if dev is None:
                continue
            for zone_index in range(volume.num_data_zones, dev.num_zones):
                for entry in (yield from self._scan_zone(dev, zone_index)):
                    by_type[entry.mdtype].append((index, entry))
                volume.mdzones[index].used[zone_index] = (
                    dev.zone_info(zone_index).write_pointer
                    - zone_index * volume.phys_zone_size)
        for _device, entry in by_type[MetadataType.ZONE_RESET_LOG]:
            logged_zone, _reset_pointer = decode_zone_reset(entry)
            self.reset_logs.setdefault(logged_zone, []).append(entry)

    def _ingest_generation(self) -> None:
        """Componentwise max over all persisted generation blocks.

        Counters only ever increase, so the maximum of every replica is
        exactly the newest persisted value for each zone.
        """
        volume = self.volume
        for _device, entry in self.by_type[MetadataType.GENERATION]:
            first_zone, counters = decode_generation_block(entry)
            for offset, value in enumerate(counters):
                zone = first_zone + offset
                if zone < volume.num_data_zones:
                    volume.generation[zone] = max(volume.generation[zone],
                                                  value)

    def _sync_physical_descriptors(self) -> None:
        volume = self.volume
        for index, dev in enumerate(volume.devices):
            if dev is None:
                continue
            for info in dev.report_zones():
                pdesc = volume.phys[index][info.index]
                pdesc.write_pointer = info.write_pointer
                pdesc.state = info.state

    def _ingest_partial_parity(self) -> Dict[int, Dict[int, List[MetadataEntry]]]:
        """Group generation-valid partial parity by (zone, stripe).

        Applies the paper's duplicate rule: a checkpointed entry whose LBA
        range overlaps a normal entry for the same stripe is discarded
        (§4.3).
        """
        volume = self.volume
        grouped: Dict[int, Dict[int, List[MetadataEntry]]] = {}
        for _device, entry in self.by_type[MetadataType.PARTIAL_PARITY]:
            zone = entry.start_lba // volume.zone_capacity
            if zone >= volume.num_data_zones:
                continue
            if entry.generation != volume.generation[zone]:
                continue  # stale: the zone was reset since this was logged
            in_zone = entry.start_lba - zone * volume.zone_capacity
            width = volume.mapper.stripe_width
            stripe = in_zone // width
            if in_zone % width == 0 and \
                    entry.end_lba - entry.start_lba == width:
                # A whole-stripe entry is the cumulative *relocated
                # parity* shape (logged when a completed stripe's parity
                # SU could not be written in place, and re-emitted by the
                # metadata-GC checkpoint).  It is self-contained full
                # parity, not a delta: folding it into the delta chain
                # would double-count any surviving deltas, and the §4.3
                # duplicate rule below would wrongly discard the
                # checkpointed copy whenever one delta survives.  Route
                # it to the relocated-parity map the read path prefers.
                offset, payload = decode_partial_parity(entry)
                if offset == 0 and \
                        len(payload) == volume.config.stripe_unit_bytes:
                    volume.relocated_parity[(zone, stripe)] = payload
                    continue
            grouped.setdefault(zone, {}).setdefault(stripe, []).append(entry)
        for zone_map in grouped.values():
            for stripe, entries in zone_map.items():
                normals = [e for e in entries if not e.checkpoint]
                if not normals:
                    continue
                keep = list(normals)
                for ckpt in (e for e in entries if e.checkpoint):
                    overlap = any(
                        ckpt.start_lba < n.end_lba and n.start_lba < ckpt.end_lba
                        for n in normals)
                    if not overlap:
                        keep.append(ckpt)
                zone_map[stripe] = keep
        return grouped

    def _ingest_relocations(self) -> None:
        volume = self.volume
        for device, entry in self.by_type[MetadataType.RELOCATED_SU]:
            zone = entry.start_lba // volume.zone_capacity
            if zone >= volume.num_data_zones:
                continue
            if entry.generation != volume.generation[zone]:
                continue
            su = volume.config.stripe_unit_bytes
            su_lba = entry.start_lba - (entry.start_lba % su)
            unit = volume.relocations.unit_for(su_lba, device, zone)
            if entry.payload:
                unit.write(entry.start_lba, entry.payload)
            volume.zone_descs[zone].has_relocations = True

    # -- per-zone recovery ---------------------------------------------------------------

    def _zone_reset_log(self, zone: int) -> Optional[MetadataEntry]:
        generation = self.volume.generation[zone]
        for entry in self.reset_logs.get(zone, ()):
            if entry.generation == generation:
                return entry
        return None

    def _zone_extents(self, zone: int) -> List[Optional[int]]:
        """Written bytes in each device's physical zone (None if missing)."""
        volume = self.volume
        extents: List[Optional[int]] = []
        for index in range(volume.config.num_devices):
            if volume.devices[index] is None or volume.failed[index]:
                extents.append(None)
                continue
            pdesc = volume.phys[index][zone]
            extents.append(pdesc.write_pointer - zone * volume.phys_zone_size)
        return extents

    def _recover_zone(self, zone: int,
                      partial_parity: Dict[int, List[MetadataEntry]]):
        volume = self.volume
        desc = volume.zone_descs[zone]
        extents = self._zone_extents(zone)
        known = [e for e in extents if e is not None]

        reset_log = self._zone_reset_log(zone)
        if reset_log is not None and any(known):
            # §5.2: a valid reset log plus a non-empty zone means the
            # reset was interrupted; complete it now.
            yield from self._complete_zone_reset(zone)
            return

        if not any(known):
            desc.reset()
            return

        state = _ZoneContent(volume, zone, extents, partial_parity)
        yield from state.analyze()
        desc.write_pointer = state.logical_wp
        if state.has_relocation_conflicts:
            desc.has_relocations = True
        if desc.write_pointer == desc.start_lba:
            desc.state = ZoneState.EMPTY
        elif self._all_full(zone) and \
                desc.write_pointer == desc.writable_end:
            desc.state = ZoneState.FULL
        else:
            desc.state = ZoneState.CLOSED
        yield from state.rebuild_tail_buffer(desc)
        if desc.written_bytes:
            # After the tail rebuild (which may roll the zone further back
            # over a torn tail SU).  Full SUs only: the recovered partial
            # tail SU is durable now, but a post-mount write can extend it
            # in the device cache and a set bit would go stale (see
            # volume._finish_write_flushed).
            desc.persistence.mark_up_to(desc.su_index_of(desc.write_pointer))

    def _all_full(self, zone: int) -> bool:
        volume = self.volume
        return all(
            volume.phys[i][zone].state is ZoneState.FULL
            for i in range(volume.config.num_devices)
            if volume.devices[i] is not None and not volume.failed[i])

    def _complete_zone_reset(self, zone: int):
        volume = self.volume
        events = []
        for index in volume._alive_devices():
            events.append(volume.devices[index].submit(
                Bio.zone_reset(zone * volume.phys_zone_size)))
            pdesc = volume.phys[index][zone]
            pdesc.write_pointer = zone * volume.phys_zone_size
            pdesc.state = ZoneState.EMPTY
        yield self.sim.all_of(events)
        volume.generation[zone] += 1
        volume.zone_descs[zone].reset()

    def _bump_empty_generations(self) -> None:
        """§4.3: every empty zone's counter is incremented at mount time."""
        volume = self.volume
        for zone in range(volume.num_data_zones):
            if volume.zone_descs[zone].write_pointer == \
                    volume.zone_descs[zone].start_lba:
                volume.generation[zone] += 1

    def _audit_relocated_parity(self):
        """Verify on-device parity of complete stripes in remapped zones.

        After a rollback recovery, the parity PBAs of re-filled stripes
        may hold stale pre-crash data that ZNS forbids overwriting; their
        true parity lives only in partial-parity logs.  Recompute the
        parity of every complete stripe in a relocation-flagged zone from
        its (relocation-aware) data and record mismatches in the
        in-memory relocated-parity map, which the metadata compaction
        below persists.  Skipped on a degraded mount: with a device
        missing, reads themselves depend on parity.
        """
        volume = self.volume
        if any(dev is None or volume.failed[i]
               for i, dev in enumerate(volume.devices)):
            return
        from ..block.bio import Bio as _Bio
        from .parity import stripe_parity
        su = volume.config.stripe_unit_bytes
        for desc in volume.zone_descs:
            if not desc.has_relocations:
                continue
            zone = desc.zone
            full_stripes = desc.written_bytes // desc.stripe_width
            for stripe in range(full_stripes):
                layout = volume.mapper.stripe_layout(zone, stripe)
                pba = zone * volume.phys_zone_size + stripe * su
                parity_wp = volume.phys[layout.parity_device][zone] \
                    .write_pointer
                stripe_lba = desc.start_lba + stripe * desc.stripe_width
                bio = yield volume.submit(
                    _Bio.read(stripe_lba, desc.stripe_width))
                units = [bio.result[i * su:(i + 1) * su]
                         for i in range(volume.config.num_data)]
                expected = stripe_parity(units, su)
                if parity_wp >= pba + su:
                    probe = _Bio.read(pba, su)
                    # A latent media error on the parity PBA is itself a
                    # mismatch — record the recomputed parity rather than
                    # failing the mount.
                    probe.errors_as_status = True
                    onboard = yield volume.devices[
                        layout.parity_device].submit(probe)
                    if onboard.error is None and onboard.result == expected:
                        continue
                volume.relocated_parity[(zone, stripe)] = expected

    def _resume_interrupted_rewrites(self):
        """Finish §5.2 zone rewrites whose copy phase completed pre-crash.

        A REWRITE_COPIED log means the swap zone holds a durable copy and
        the original physical zone may already be destroyed; the write-
        back must be redone before zone analysis looks at the zone.  A
        START log without COPIED means the original is intact — the
        rewrite simply re-runs from scratch via the threshold check.
        """
        from .maintenance import (
            OP_ZONE_REWRITE_COPIED,
            rewrite_physical_zone,
        )
        volume = self.volume
        copied = {}
        for _device, entry in self.by_type[MetadataType.OP_WAL]:
            opcode, payload = _safe_rewrite_decode(entry)
            if opcode != OP_ZONE_REWRITE_COPIED:
                continue
            _op, device_index, zone, length = payload
            if zone < volume.num_data_zones and \
                    entry.generation == volume.generation[zone]:
                copied[(device_index, zone)] = length
        for (device_index, zone), length in sorted(copied.items()):
            if volume.devices[device_index] is None or \
                    volume.failed[device_index]:
                continue
            yield from rewrite_physical_zone(volume, device_index, zone,
                                             resume_length=length)

    def _run_threshold_rewrites(self):
        """§5.2: rewrite physical zones with too many relocated SUs."""
        from .maintenance import rewrite_physical_zone, zones_needing_rewrite
        volume = self.volume
        for device_index, zone in zones_needing_rewrite(volume):
            if volume.devices[device_index] is None or \
                    volume.failed[device_index]:
                continue
            yield from rewrite_physical_zone(volume, device_index, zone)

    def _flush_repairs(self):
        """Make every repair patch durable before metadata finalization.

        Stripe repairs and parity heals are plain cached writes, yet the
        persistence bitmaps rebuilt by ``_recover_zone`` already declare
        the repaired region durable.  Metadata compaction flushes each
        device as a side effect, but device N's old metadata zones are
        reset before device N+1's patches are flushed, and the
        generation-maintenance path may not compact at all — so a second
        crash mid-finalization could lose patches the bitmap (and a
        subsequent mount) counts on.  An explicit all-device barrier
        closes that window and makes recovery re-entrant.
        """
        volume = self.volume
        events = [volume.devices[index].submit(Bio.flush())
                  for index in volume._alive_devices()]
        if events:
            yield self.sim.all_of(events)

    def _finish_metadata(self):
        """Compact metadata — or complete generation maintenance (§4.3)."""
        from .maintenance import (
            find_maintenance_wal,
            needs_generation_maintenance,
            run_generation_maintenance,
        )
        volume = self.volume
        wal_present = find_maintenance_wal(
            entry for _d, entry in self.by_type[MetadataType.OP_WAL])
        if wal_present or needs_generation_maintenance(volume):
            volume.read_only = True
            yield from run_generation_maintenance(self.sim, volume)
        else:
            yield from self._compact_metadata()

    def _compact_metadata(self):
        volume = self.volume
        for index in volume._alive_devices():
            yield from volume.mdzones[index].recovery_compact()


class _ZoneContent:
    """Stripe-hole analysis and repair for one logical zone."""

    def __init__(self, volume: RaiznVolume, zone: int,
                 extents: List[Optional[int]],
                 partial_parity: Dict[int, List[MetadataEntry]]):
        self.volume = volume
        self.zone = zone
        self.extents = extents
        self.partial_parity = partial_parity
        self.logical_wp = volume.mapper.zone_start(zone)
        self.has_relocation_conflicts = False
        #: (stripe, su_index) pairs currently being reconstructed from
        #: redundancy, to bound the media-error fallback's recursion.
        self._repairing: set = set()

    # Helper shorthand ---------------------------------------------------------

    @property
    def su(self) -> int:
        return self.volume.config.stripe_unit_bytes

    @property
    def width(self) -> int:
        return self.volume.mapper.stripe_width

    def _su_extent(self, stripe: int, device: int) -> Optional[int]:
        """Written bytes of the SU device ``device`` holds for ``stripe``."""
        extent = self.extents[device]
        if extent is None:
            return None
        return max(0, min(self.su, extent - stripe * self.su))

    def _data_extent(self, stripe: int, su_index: int,
                     device: int) -> Optional[int]:
        """Effective *valid* bytes of a data SU, relocation-aware.

        An SU with a relocation unit holds stale bytes on the device; its
        valid content is whatever the relocation log covers contiguously
        from the SU start (possibly nothing for a freshly armed marker).
        """
        su_lba = self.volume.mapper.su_lba(self.zone, stripe, su_index)
        unit = self.volume.relocations.lookup(su_lba)
        if unit is None:
            return self._su_extent(stripe, device)
        cover = 0
        for lo, hi in sorted(unit.extents):
            if lo <= cover:
                cover = max(cover, hi)
            else:
                break
        return cover

    def _read_su_prefix(self, stripe: int, su_index: int, device: int,
                        length: int):
        """Process-style: the first ``length`` valid bytes of a data SU,
        zero-padded past the valid extent, honouring relocation units."""
        volume = self.volume
        su_lba = volume.mapper.su_lba(self.zone, stripe, su_index)
        unit = volume.relocations.lookup(su_lba)
        if unit is not None:
            out = bytearray(length)
            for lo, hi in unit.overlaps(su_lba, length):
                out[lo:hi] = unit.read(su_lba + lo, hi - lo)
            return bytes(out)
        dev_extent = self._su_extent(stripe, device) or 0
        take = min(length, dev_extent)
        if take == 0 or volume.devices[device] is None:
            return bytes(length)
        zone_pba = self.zone * volume.phys_zone_size
        probe = Bio.read(zone_pba + stripe * self.su, take)
        probe.errors_as_status = True
        bio = yield volume.devices[device].submit(probe)
        if bio.error is None:
            # join() materializes bytes whether the device returned bytes
            # or a media view.
            return b"".join((bio.result, bytes(length - take)))
        # A latent (UNC) media error under a recovery read — the compound
        # case: the crash landed on an extent no scrub had healed yet.
        # Rebuild this SU from the stripe's redundancy instead of failing
        # the whole mount; the live read path re-heals the extent after
        # mount.  A second fault inside the same stripe (recursion guard)
        # is beyond single parity and genuinely unrecoverable.
        key = (stripe, su_index)
        if key in self._repairing:
            raise bio.error
        self._repairing.add(key)
        try:
            layout = volume.mapper.stripe_layout(self.zone, stripe)
            rebuilt = yield from self._reconstruct_su(
                stripe, layout, su_index,
                volume.mapper.zone_start(self.zone)
                + (stripe + 1) * self.width)
        finally:
            self._repairing.discard(key)
        if rebuilt is None or len(rebuilt) < take:
            raise bio.error
        return b"".join((rebuilt[:take], bytes(length - take)))

    # Analysis -----------------------------------------------------------------

    def analyze(self):
        """Derive the logical write pointer; repair or hide stripe holes."""
        first_gap, max_written = self._scan_extents()
        if self._missing_device() is not None:
            yield from self._analyze_degraded(max_written)
            return
        if first_gap is None or first_gap >= max_written:
            self.logical_wp = max_written
            return
        yield from self._repair_holes(first_gap, max_written)

    def _walk_bounds(self) -> Tuple[int, int]:
        """Stripes ``[first, end)`` that a crash can have left short.

        Below ``first`` every present device holds whole SUs and no SU is
        relocated, so those stripes have no gap.  From ``end`` on no
        present device holds a byte and no SU is relocated, so nothing
        there is written.  The stripe walks cover only this range, which
        makes per-zone work track the torn tail, not the data held.
        """
        volume = self.volume
        known = [e for e in self.extents if e is not None]
        stripes = volume.mapper.stripes_per_zone
        first = min(min(known, default=0) // self.su, stripes)
        end = min(-(-max(known, default=0) // self.su), stripes)
        zone_start = volume.mapper.zone_start(self.zone)
        relocated = volume.relocations.span_in(
            zone_start, zone_start + volume.zone_capacity)
        if relocated is not None:
            first = min(first, (relocated[0] - zone_start) // self.width)
            end = max(end, (relocated[1] - zone_start) // self.width + 1)
        return first, end

    def _scan_extents(self) -> Tuple[Optional[int], int]:
        """``(first_gap, max_written)`` of the zone's data SUs.

        ``first_gap`` is the LBA of the first missing byte, or None when
        no byte below ``max_written`` is missing; ``max_written`` is the
        end of the highest written data byte.
        """
        mapper = self.volume.mapper
        zone_start = mapper.zone_start(self.zone)
        first, end = self._walk_bounds()
        first_gap: Optional[int] = None
        max_written = zone_start
        if first:
            # Stripe ``first - 1`` is whole: its highest present data SU
            # ends the written range below ``first``.
            layout = mapper.stripe_layout(self.zone, first - 1)
            top = max(i for i, device in enumerate(layout.data_devices)
                      if self.extents[device] is not None)
            max_written = mapper.su_lba(self.zone, first - 1, top) + self.su

        for stripe in range(first, end):
            layout = mapper.stripe_layout(self.zone, stripe)
            any_data = False
            for i, device in enumerate(layout.data_devices):
                extent = self._data_extent(stripe, i, device)
                su_lba = mapper.su_lba(self.zone, stripe, i)
                if extent is None:
                    # Missing device: infer from parity coverage below.
                    continue
                if extent > 0:
                    any_data = True
                    max_written = max(max_written, su_lba + extent)
                if extent < self.su and first_gap is None:
                    first_gap = su_lba + extent
            parity_extent = self._su_extent(stripe, layout.parity_device)
            if parity_extent:
                any_data = True
            if not any_data and first_gap is not None:
                break  # past the end of written data
        return first_gap, max_written

    def _missing_device(self) -> Optional[int]:
        for index, extent in enumerate(self.extents):
            if extent is None:
                return index
        return None

    # Hole repair (all devices present) -------------------------------------------

    def _repair_holes(self, first_gap: int, max_written: int):
        """Fill stripe holes from parity, or roll back and arm relocation."""
        volume = self.volume
        zone_start = volume.mapper.zone_start(self.zone)
        # Start from the first stripe any device is short in — a torn
        # *parity* SU does not show up as a logical-address gap but still
        # blocks that device's zone and must be healed in stripe order.
        min_extent = min(e for e in self.extents if e is not None)
        first_stripe = min((first_gap - zone_start) // self.width,
                           min_extent // self.su)
        last_stripe = (max_written - 1 - zone_start) // self.width
        rolled_back = False
        for stripe in range(first_stripe, last_stripe + 1):
            if rolled_back:
                break
            repaired = yield from self._repair_stripe(stripe, max_written)
            if not repaired:
                rolled_back = True
        if rolled_back:
            # Hide the corrupted stripe unit(s): the write pointer rolls
            # back to the first still-missing byte; stale data persisted
            # beyond it is armed with relocation markers so this mount —
            # and any future mount — can tell stale bytes from new ones.
            self.logical_wp = self._first_missing_lba(max_written)
            self.has_relocation_conflicts = True
            yield from self._arm_stale_relocations(self.logical_wp)
        else:
            self.logical_wp = max_written

    def _arm_stale_relocations(self, rollback_lwp: int):
        """Create persisted relocation markers for every stale SU.

        Data persisted beyond the rollback point can never be served
        again (ZNS forbids overwriting it in place); marking each such SU
        relocated makes the distinction durable, so a second crash cannot
        resurrect stale bytes (§5.2's remapped zones).
        """
        volume = self.volume
        known = [e for e in self.extents if e is not None]
        max_extent = max(known) if known else 0
        if max_extent == 0:
            return
        last_stripe = (max_extent - 1) // self.su
        # Every SU of an earlier stripe lies below the rollback point.
        first_stripe = (rollback_lwp - volume.mapper.zone_start(self.zone)) \
            // self.width
        events = []
        for stripe in range(first_stripe, last_stripe + 1):
            layout = volume.mapper.stripe_layout(self.zone, stripe)
            for i, device in enumerate(layout.data_devices):
                su_lba = volume.mapper.su_lba(self.zone, stripe, i)
                if su_lba < rollback_lwp:
                    continue  # valid region (or the hole device's prefix)
                dev_extent = self._su_extent(stripe, device) or 0
                if dev_extent == 0:
                    continue  # nothing stale at this SU
                if volume.relocations.lookup(su_lba) is not None:
                    continue
                volume.relocations.unit_for(su_lba, device, self.zone)
                entry = encode_relocated_su(
                    su_lba, b"", volume.generation[self.zone])
                events.append(volume.sim.process(
                    volume.mdzones[device].append(
                        MetadataRole.GENERAL, entry, fua=True)))
        if events:
            yield volume.sim.all_of(events)

    def _first_missing_lba(self, max_written: int) -> int:
        volume = self.volume
        zone_start = volume.mapper.zone_start(self.zone)
        # Every SU below the first short stripe is whole (hole repair
        # runs with every device present).
        position = zone_start + self._walk_bounds()[0] * self.width
        while position < max_written:
            stripe = (position - zone_start) // self.width
            in_stripe = (position - zone_start) % self.width
            i = in_stripe // self.su
            layout = volume.mapper.stripe_layout(self.zone, stripe)
            extent = self._data_extent(stripe, i,
                                       layout.data_devices[i]) or 0
            su_lba = volume.mapper.su_lba(self.zone, stripe, i)
            if extent < min(self.su, max_written - su_lba):
                return su_lba + extent
            position = su_lba + self.su
        return max_written

    def _repair_stripe(self, stripe: int, max_written: int):
        """Rebuild this stripe's missing stripe-unit bytes, if possible."""
        volume = self.volume
        layout = volume.mapper.stripe_layout(self.zone, stripe)
        zone_start = volume.mapper.zone_start(self.zone)
        stripe_lba = zone_start + stripe * self.width
        # Expected extent of each data SU given data beyond it exists.
        shorts: List[Tuple[int, int, int]] = []  # (su index, device, have)
        for i, device in enumerate(layout.data_devices):
            su_lba = volume.mapper.su_lba(self.zone, stripe, i)
            expected = max(0, min(self.su, max_written - su_lba))
            have = self._data_extent(stripe, i, device) or 0
            if have < expected:
                if volume.relocations.lookup(su_lba) is not None:
                    # The missing bytes belong to a relocated SU; there
                    # is no writable hole on the device to repair into.
                    return False
                shorts.append((i, device, have))
        if len(shorts) > 1:
            return False  # single parity cannot repair two holes
        if shorts:
            su_index, device, have = shorts[0]
            su_lba = volume.mapper.su_lba(self.zone, stripe, su_index)
            needed_end = max(0, min(self.su, max_written - su_lba))
            reconstructed = yield from self._reconstruct_su(
                stripe, layout, su_index, max_written)
            if reconstructed is None or len(reconstructed) < needed_end:
                return False
            # Write the recovered bytes back at the device's write
            # pointer — the hole is exactly where the zone is writable.
            pba = self.zone * volume.phys_zone_size + stripe * self.su + have
            patch = reconstructed[have:needed_end]
            if patch:
                yield volume.devices[device].submit(Bio.write(pba, patch))
                pdesc = volume.phys[device][self.zone]
                pdesc.write_pointer = pba + len(patch)
                self.extents[device] = stripe * self.su + have + len(patch)
        yield from self._heal_parity(stripe, layout, stripe_lba, max_written)
        return True

    def _heal_parity(self, stripe: int, layout, stripe_lba: int,
                     max_written: int):
        """Complete a torn or missing parity SU of a fully-written stripe.

        A torn parity write would otherwise block future writes on that
        device's zone (its write pointer sits mid-SU).  After the data
        SUs are repaired, the parity is recomputed and its missing tail
        appended in place.
        """
        volume = self.volume
        if max_written < stripe_lba + self.width:
            return  # incomplete stripe: no full parity SU exists yet
        parity_extent = self._su_extent(stripe, layout.parity_device) or 0
        if parity_extent >= self.su:
            return
        if (self.extents[layout.parity_device] or 0) != \
                stripe * self.su + parity_extent:
            # The device holds (stale) data beyond this parity SU; it
            # cannot be appended in place — the mount-time parity audit
            # records the true parity instead.
            return
        zone_pba = self.zone * volume.phys_zone_size
        from .parity import stripe_parity
        units = []
        for j, other in enumerate(layout.data_devices):
            data = yield from self._read_su_prefix(stripe, j, other, self.su)
            units.append(data)
        parity = stripe_parity(units, self.su)
        pba = zone_pba + stripe * self.su + parity_extent
        yield volume.devices[layout.parity_device].submit(
            Bio.write(pba, parity[parity_extent:]))
        pdesc = volume.phys[layout.parity_device][self.zone]
        pdesc.write_pointer = zone_pba + (stripe + 1) * self.su
        self.extents[layout.parity_device] = (stripe + 1) * self.su

    def _reconstruct_su(self, stripe: int, layout, su_index: int,
                        max_written: int):
        """Missing-SU bytes from full parity or partial parity logs.

        Returns as many bytes as are recoverable (possibly fewer than
        requested when partial parity coverage ends early), or None when
        no parity information exists.
        """
        volume = self.volume
        relocated = volume.relocated_parity.get((self.zone, stripe))
        if relocated is not None and len(relocated) == self.su:
            # Relocated parity (in-place write conflicted, §5.2): the
            # true full parity — the on-device parity SU, if any, holds
            # stale bytes and must not be read.
            return (yield from self._xor_siblings(stripe, layout,
                                                  su_index, relocated))
        parity_extent = self._su_extent(stripe, layout.parity_device)
        zone_pba = self.zone * volume.phys_zone_size
        if parity_extent == self.su:
            # Full parity was persisted: XOR it with the other data SUs.
            # A full parity SU is computed over a *completely* written
            # stripe, so a sibling data SU shorter than the stripe unit
            # means real bytes were lost to crash rollback — the zero
            # padding ``_read_su_prefix`` applies past its extent does
            # not match what went into the parity, and XOR results at
            # those positions are garbage.  (§5.1's "treated as zeroes"
            # rule covers only partial parity, which is computed over
            # zero-padded buffers.)  Reconstruction is therefore exact
            # only up to the shortest sibling extent; returning the
            # shorter prefix makes ``_repair_stripe`` roll the zone back
            # instead of patching corrupt bytes onto the device.
            probe = Bio.read(zone_pba + stripe * self.su, self.su)
            # A latent media error on the parity PBA is tolerated: the
            # partial-parity fallback below may still reconstruct.
            probe.errors_as_status = True
            bio = yield volume.devices[layout.parity_device].submit(probe)
            if bio.error is None:
                return (yield from self._xor_siblings(stripe, layout,
                                                      su_index, bio.result))
        return (yield from self._reconstruct_from_partial_parity(
            stripe, layout, su_index))

    def _xor_siblings(self, stripe: int, layout, su_index: int, parity):
        """XOR full parity against the sibling data SUs.

        Exact only up to the shortest sibling extent (see the caller's
        rollback rationale); the returned prefix is clipped accordingly.
        """
        acc = bytearray(parity)
        valid = self.su
        for j, other in enumerate(layout.data_devices):
            if j == su_index:
                continue
            valid = min(valid, self._data_extent(stripe, j, other) or 0)
            data = yield from self._read_su_prefix(stripe, j, other, self.su)
            xor_into(acc, data)
        return bytes(acc[:valid])

    def _reconstruct_from_partial_parity(self, stripe: int, layout,
                                         su_index: int):
        """§5.1's reconstruction: ordered XOR of partial parity deltas."""
        volume = self.volume
        entries = self.partial_parity.get(stripe, [])
        if not entries:
            return None
        zone_start = volume.mapper.zone_start(self.zone)
        stripe_lba = zone_start + stripe * self.width
        haves = {j: self._data_extent(stripe, j, other) or 0
                 for j, other in enumerate(layout.data_devices)
                 if j != su_index}
        # Choose the longest *usable* prefix of the (disjoint, append-
        # ordered) delta chain.  An entry describing sibling-SU bytes
        # that did not survive the crash pollutes the parity positions at
        # and past that sibling's extent — those bytes fall under §5.1's
        # rollback rule ("data at any LBAs at or higher than this missing
        # data is discarded") and cannot be cancelled out of the XOR.
        # A longer chain therefore does not always recover more of the
        # target SU: a late multi-SU delta can wipe out positions an
        # earlier single-SU prefix reconstructed exactly.  Scan prefixes,
        # tracking contiguous coverage and the first polluted parity
        # offset, and keep the best trade-off.
        best = 0
        best_end = stripe_lba
        coverage = stripe_lba
        first_polluted = self.su
        for start, stop in sorted((e.start_lba, e.end_lba) for e in entries):
            if start > coverage:
                break  # gap in the chain; later deltas are unusable
            for j, have in haves.items():
                su_lo = stripe_lba + j * self.su
                lo = max(start, su_lo + have)
                hi = min(stop, su_lo + self.su)
                if lo < hi:
                    first_polluted = min(first_polluted, lo - su_lo)
            coverage = max(coverage, stop)
            t_cov = max(0, min(self.su,
                               (coverage - stripe_lba) - su_index * self.su))
            usable = min(t_cov, first_polluted)
            if usable > best:
                best = usable
                best_end = coverage
        if best <= 0:
            return None
        acc = bytearray(self.su)
        for entry in entries:
            if entry.end_lba > best_end:
                continue
            parity_offset, delta = decode_partial_parity(entry)
            xor_into(acc, delta, parity_offset)
        # Fold in the surviving data SUs up to the covered end, zero
        # padding beyond each unit's persisted extent.  Positions past
        # ``best`` may be garbage (polluted or uncovered) — sliced off.
        covered = best_end - stripe_lba
        for j, other in enumerate(layout.data_devices):
            if j == su_index:
                continue
            su_covered = max(0, min(self.su, covered - j * self.su))
            if su_covered:
                data = yield from self._read_su_prefix(stripe, j, other,
                                                       su_covered)
                xor_into(acc, data)
        return bytes(acc[:best])

    @staticmethod
    def _contiguous_coverage(entries: List[MetadataEntry],
                             stripe_lba: int) -> int:
        """End LBA of the gap-free partial-parity chain from stripe start."""
        spans = sorted((e.start_lba, e.end_lba) for e in entries)
        end = stripe_lba
        for start, stop in spans:
            if start > end:
                break
            end = max(end, stop)
        return end

    # Degraded mount --------------------------------------------------------------

    def _analyze_degraded(self, max_written: int):
        """One device missing: trust parity for complete stripes; bound the
        tail by partial-parity coverage (§5.1)."""
        volume = self.volume
        zone_start = volume.mapper.zone_start(self.zone)
        if max_written == zone_start and not self.partial_parity:
            self.logical_wp = zone_start
            return
        missing = self._missing_device()
        # Find the last stripe with any evidence of data.
        last = (max(max_written - 1, zone_start) - zone_start) // self.width
        if self.partial_parity:
            last = max(last, max(self.partial_parity))
        # Every stripe below the first short one is complete.
        first = self._walk_bounds()[0]
        wp = zone_start + first * self.width
        torn_parity: List[int] = []
        for stripe in range(first, last + 1):
            layout = volume.mapper.stripe_layout(self.zone, stripe)
            stripe_lba = zone_start + stripe * self.width
            complete = True
            for i, device in enumerate(layout.data_devices):
                if device == missing:
                    continue
                # Relocation-aware: an SU whose valid bytes live in the
                # relocation log is complete even though the device's
                # data zone holds fewer (or stale) bytes.
                if (self._data_extent(stripe, i, device) or 0) < self.su:
                    complete = False
                    break
            parity_ok = (layout.parity_device == missing
                         or (self._su_extent(stripe, layout.parity_device)
                             or 0) == self.su
                         or (self.zone, stripe) in volume.relocated_parity)
            if complete and parity_ok:
                wp = stripe_lba + self.width
                continue
            # Tail stripe: the missing device's contribution is bounded by
            # partial parity coverage; data beyond it is discarded.
            wp = self._degraded_tail_wp(stripe, layout, missing, stripe_lba,
                                        max_written)
            if wp < stripe_lba + self.width:
                break
            # Every data SU is fully covered (device, relocation log, or
            # partial parity) — only the parity SU is torn or missing.
            # That does not cap the write pointer any more than it does
            # in non-degraded recovery (``_heal_parity``); keep scanning,
            # and materialize the true parity below so degraded reads of
            # the missing device's SU do not XOR the torn on-device copy.
            if layout.parity_device != missing:
                torn_parity.append(stripe)
        self.logical_wp = min(wp, zone_start + volume.zone_capacity)
        for stripe in torn_parity:
            yield from self._record_degraded_parity(stripe, missing)

    def _record_degraded_parity(self, stripe: int, missing: int):
        """True parity of a fully-covered stripe whose on-device parity
        SU is torn, recorded in ``relocated_parity`` (the map the read
        path's reconstruction already prefers over the device copy).

        The missing device's data SU is rebuilt from its relocation unit
        or the partial-parity chain — both verified to cover the full SU
        by the write-pointer scan above.
        """
        volume = self.volume
        layout = volume.mapper.stripe_layout(self.zone, stripe)
        if (self.zone, stripe) in volume.relocated_parity:
            return
        from .parity import stripe_parity
        units = []
        for j, device in enumerate(layout.data_devices):
            if device == missing and \
                    (self._data_extent(stripe, j, device) or 0) < self.su:
                chunk = yield from self._reconstruct_degraded_chunk(
                    stripe, layout, j, self.su)
            else:
                chunk = yield from self._read_su_prefix(stripe, j, device,
                                                        self.su)
            units.append(chunk)
        volume.relocated_parity[(self.zone, stripe)] = \
            stripe_parity(units, self.su)

    def _degraded_tail_wp(self, stripe: int, layout, missing: int,
                          stripe_lba: int, max_written: int) -> int:
        entries = self.partial_parity.get(stripe, [])
        pp_end = self._contiguous_coverage(entries, stripe_lba)
        if layout.parity_device == missing:
            # Data devices all survive, but each may hold a crash-torn SU;
            # the tail ends at the first gap among them.  Bytes beyond a
            # gap were never flush-acknowledged (a flush ack requires
            # every piece durable), so discarding them is legal — and with
            # the parity device gone there is no redundancy to repair the
            # hole from.  ``max_written`` alone would leap over the gap
            # and resurrect unacknowledged data.
            wp = stripe_lba
            for i, device in enumerate(layout.data_devices):
                su_lba = stripe_lba + i * self.su
                extent = self._data_extent(stripe, i, device) or 0
                if extent < self.su:
                    return su_lba + extent
                wp = su_lba + extent
            return wp
        wp = stripe_lba
        for i, device in enumerate(layout.data_devices):
            su_lba = stripe_lba + i * self.su
            if device == missing:
                # A relocation unit (device-independent, replayed from
                # the surviving metadata logs) can cover the missing
                # device's SU; otherwise partial parity bounds it.
                extent = self._data_extent(stripe, i, device)
                if extent is None:
                    extent = max(0, min(self.su, pp_end - su_lba))
                    if (self.zone, stripe) in self.volume.relocated_parity:
                        # Full relocated parity survives: the missing SU
                        # is reconstructable wherever every live sibling
                        # holds valid bytes.
                        sib = min((self._data_extent(stripe, j, other) or 0
                                   for j, other in
                                   enumerate(layout.data_devices) if j != i),
                                  default=self.su)
                        extent = max(extent, sib)
            else:
                extent = self._data_extent(stripe, i, device) or 0
            if extent < self.su:
                return su_lba + extent
            wp = su_lba + extent
        return wp

    # Tail stripe buffer -------------------------------------------------------------

    def rebuild_tail_buffer(self, desc):
        """Reload the stripe buffer of an incomplete tail stripe.

        The buffer must exist so that future writes completing the stripe
        can compute full parity, and so degraded reads of the tail work.
        A missing device's portion is reconstructed from partial parity.
        """
        volume = self.volume
        zone_start = desc.start_lba
        in_zone = desc.write_pointer - zone_start
        if in_zone == 0 or in_zone % self.width == 0:
            return
        stripe = in_zone // self.width
        fill = in_zone % self.width
        layout = volume.mapper.stripe_layout(self.zone, stripe)
        data = bytearray(fill)
        missing = self._missing_device()
        for i, device in enumerate(layout.data_devices):
            lo = i * self.su
            if lo >= fill:
                break
            take = min(self.su, fill - lo)
            if device == missing or volume.devices[device] is None:
                chunk = yield from self._reconstruct_degraded_chunk(
                    stripe, layout, i, take)
            else:
                try:
                    chunk = yield from self._read_su_prefix(
                        stripe, i, device, take)
                except MediaError:
                    # Compound fault: a latent extent under the tail SU
                    # that parity could not fully rebuild.  Salvage the
                    # genuine prefix and roll the zone back instead of
                    # failing the mount.
                    yield from self._rollback_torn_tail(
                        desc, stripe, layout, i, device, take)
                    return
            data[lo:lo + take] = chunk
        buffer = desc.buffers.acquire(stripe)
        buffer.absorb(0, bytes(data))

    def _rollback_torn_tail(self, desc, stripe: int, layout, su_index: int,
                            device: int, take: int):
        """§5.2-style rollback over an unreconstructable torn tail SU.

        The SU cannot be read (unrecoverable media error) nor fully
        rebuilt (the partial-parity chain falls short of the device
        extent).  That combination is only possible for bytes that were
        never durably acknowledged: a durable ack — FUA or flush —
        requires the covering partial parity to be durable first, so any
        acknowledged byte of this SU is reconstructable.  Salvage the
        longest genuine prefix — the clean on-media bytes before the bad
        extent, or the partial-parity rebuild, whichever is longer —
        into a persisted relocation unit (the media copy is untrustworthy
        past the bad extent's start), roll the logical write pointer back
        to its end, and arm relocation markers over the stale remainder.
        """
        volume = self.volume
        su_lba = volume.mapper.su_lba(self.zone, stripe, su_index)
        try:
            rebuilt = yield from self._reconstruct_su(
                stripe, layout, su_index, su_lba + take)
        except MediaError:
            rebuilt = None
        content = bytes(rebuilt[:take]) if rebuilt else b""
        dev = volume.devices[device]
        pba = self.zone * volume.phys_zone_size + stripe * self.su
        bad = [max(0, lo - pba) for lo, hi in dev.bad_extents(self.zone)
               if lo < pba + take and hi > pba]
        clean = min(bad) if bad else 0
        if clean > len(content):
            bio = yield dev.submit(Bio.read(pba, clean))
            content = bytes(bio.result)
        if content:
            unit = volume.relocations.unit_for(su_lba, device, self.zone)
            unit.write(su_lba, content)
            entry = encode_relocated_su(su_lba, content,
                                        volume.generation[self.zone])
            yield from volume.mdzones[device].append(
                MetadataRole.GENERAL, entry, fua=True)
            desc.has_relocations = True
        new_wp = su_lba + len(content)
        self.logical_wp = new_wp
        desc.write_pointer = new_wp
        if new_wp == desc.start_lba:
            desc.state = ZoneState.EMPTY
        elif desc.state is ZoneState.FULL:
            desc.state = ZoneState.CLOSED
        self.has_relocation_conflicts = True
        yield from self._arm_stale_relocations(new_wp)
        # The tail stripe changed: rebuild the buffer for the new tail.
        # The salvaged SU is now served from its relocation unit, so
        # this cannot re-raise for the same extent.
        yield from self.rebuild_tail_buffer(desc)

    def _reconstruct_degraded_chunk(self, stripe: int, layout, su_index: int,
                                    take: int):
        relocated = self.volume.relocated_parity.get((self.zone, stripe))
        if relocated is not None and len(relocated) == self.su:
            rebuilt = yield from self._xor_siblings(stripe, layout, su_index,
                                                    relocated)
            if len(rebuilt) >= take:
                return rebuilt[:take]
        reconstructed = yield from self._reconstruct_from_partial_parity(
            stripe, layout, su_index)
        if reconstructed is None or len(reconstructed) < take:
            raise RecoveryError(
                f"zone {self.zone} stripe {stripe}: cannot reconstruct "
                "missing tail data (insufficient partial parity)")
        return reconstructed[:take]
