"""Device replacement and rebuild (paper §4.2, Figure 12).

RAIZN rebuilds a replaced device *zone by zone*, active zones first, and
only up to each logical zone's write pointer — the ZNS interface makes
"which addresses hold valid data" a free query, so empty zones and the
unwritten tails of open zones are skipped entirely.  mdraid, by contrast,
resyncs the full device address space regardless of fill (the Figure 12
contrast).

During rebuild, reads and writes touching not-yet-rebuilt zones are served
in degraded mode; each zone is reconstructed from the surviving devices
via the volume's (relocation- and parity-aware) logical read path, so
relocated stripe units are healed onto the fresh device at their correct
physical addresses.
"""

from __future__ import annotations

import dataclasses
from typing import List

from ..block.bio import Bio
from ..errors import RaiznError
from ..sim import Simulator
from ..zns.device import ZNSDevice
from ..zns.spec import ZoneState
from .mdzone import DeviceMetadataZones, MetadataRole
from .metadata import MetadataType, Superblock
from .volume import SUPERBLOCK_VERSION, RaiznVolume, RebuildState


@dataclasses.dataclass
class RebuildReport:
    """Outcome of one rebuild, for TTR accounting."""

    device_index: int
    zones_rebuilt: int
    bytes_written: int
    started_at: float
    finished_at: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


def rebuild(sim: Simulator, volume: RaiznVolume, index: int,
            new_device: ZNSDevice) -> RebuildReport:
    """Synchronously replace device ``index``; drains the event loop."""
    return sim.run_process(rebuild_process(sim, volume, index, new_device))


def rebuild_process(sim: Simulator, volume: RaiznVolume, index: int,
                    new_device: ZNSDevice):
    """Process-style rebuild; yields while reconstruction IO is in flight."""
    if not volume.failed[index]:
        raise RaiznError(f"device {index} has not failed; nothing to rebuild")
    template = next(d for d in volume.devices if d is not None)
    if (new_device.num_zones != template.num_zones
            or new_device.zone_capacity != template.zone_capacity):
        raise RaiznError("replacement device geometry mismatch")
    started_at = sim.now
    # A replacement left half-written by an interrupted rebuild starts
    # over from blank zones; a blank spare gets no reset command.
    resets = [new_device.submit(Bio.zone_reset(info.start))
              for info in new_device.report_zones()
              if info.state is not ZoneState.EMPTY]
    if resets:
        yield sim.all_of(resets)

    state = RebuildState(index)
    volume.rebuild_state = state
    volume.devices[index] = new_device
    md_indices = list(range(volume.num_data_zones, template.num_zones))
    volume.mdzones[index] = DeviceMetadataZones(
        sim, new_device, index, md_indices, volume.phys_zone_size,
        volume.phys_zone_capacity, volume._checkpoint)
    volume.failed[index] = False
    # The replacement rejoining (and the per-zone rebuilt_zones gating
    # that _device_available now applies) is a membership transition.
    volume.invalidate_write_plans()

    for zone in _rebuild_order(volume):
        yield from _rebuild_zone(sim, volume, state, zone)
        state.rebuilt_zones.add(zone)
    # Zones that were empty need no data but must be marked serviceable.
    for zone in range(volume.num_data_zones):
        state.rebuilt_zones.add(zone)

    yield from _rebuild_metadata(sim, volume, index)
    # The reconstructed data must be durable before the rebuild counts as
    # complete: acknowledged-durable (FUA/flushed) data now lives on this
    # device and must survive an immediate power cut.
    yield new_device.submit(Bio.flush())
    state.done = True
    volume.rebuild_state = None
    # Rebuild completion lifts the rebuilt_zones gating: a fresh epoch.
    volume.invalidate_write_plans()
    return RebuildReport(device_index=index,
                         zones_rebuilt=len(state.rebuilt_zones),
                         bytes_written=state.bytes_rebuilt,
                         started_at=started_at, finished_at=sim.now)


def _rebuild_order(volume: RaiznVolume) -> List[int]:
    """Active (open or closed) zones first, then full zones; empty skipped."""
    active, full = [], []
    for desc in volume.zone_descs:
        if desc.state.is_active:
            active.append(desc.zone)
        elif desc.state is ZoneState.FULL and desc.written_bytes:
            full.append(desc.zone)
    return active + full


def _device_target_extent(volume: RaiznVolume, index: int, zone: int,
                          logical_wp: int) -> int:
    """Bytes device ``index`` should hold in its physical zone ``zone``."""
    desc = volume.zone_descs[zone]
    su = volume.config.stripe_unit_bytes
    in_zone = logical_wp - desc.start_lba
    full_stripes = in_zone // desc.stripe_width
    tail = in_zone % desc.stripe_width
    extent = full_stripes * su
    if tail:
        layout = volume.mapper.stripe_layout(zone, full_stripes)
        if index in layout.data_devices:
            i = layout.data_devices.index(index)
            extent += max(0, min(su, tail - i * su))
        # Parity of an incomplete stripe is not written to the data zone.
    return extent


def _rebuild_zone(sim: Simulator, volume: RaiznVolume, state: RebuildState,
                  zone: int):
    """Reconstruct one physical zone onto the replacement device.

    Loops until the logical write pointer is stable across a pass, so
    writes arriving during the rebuild (served degraded) are caught up.
    """
    index = state.device_index
    desc = volume.zone_descs[zone]
    device = volume.devices[index]
    su = volume.config.stripe_unit_bytes
    zone_pba = zone * volume.phys_zone_size
    position = 0  # bytes rebuilt within this physical zone
    while True:
        snapshot_wp = desc.write_pointer
        target = _device_target_extent(volume, index, zone, snapshot_wp)
        if target <= position:
            break
        while position < target:
            stripe = position // su
            layout = volume.mapper.stripe_layout(zone, stripe)
            stripe_lba = desc.start_lba + stripe * desc.stripe_width
            read_len = min(desc.stripe_width, snapshot_wp - stripe_lba)
            bio = yield volume.submit(Bio.read(stripe_lba, read_len))
            stripe_data = bio.result
            if index == layout.parity_device:
                chunk = _parity_of(stripe_data, volume.config.num_data, su)
            else:
                i = layout.data_devices.index(index)
                chunk = stripe_data[i * su:min((i + 1) * su, read_len)]
            take = min(len(chunk), target - position)
            chunk = chunk[:take]
            if chunk:
                yield device.submit(Bio.write(zone_pba + position, chunk))
                state.bytes_rebuilt += len(chunk)
            position += take
        if desc.write_pointer == snapshot_wp:
            break
    pdesc = volume.phys[index][zone]
    pdesc.write_pointer = zone_pba + position
    if desc.state is ZoneState.FULL:
        yield device.submit(Bio.zone_finish(zone_pba))
        pdesc.state = ZoneState.FULL
    elif position:
        pdesc.state = ZoneState.CLOSED
    # Relocations that lived on the dead device are healed: the rebuilt
    # data sits at its correct PBA on the fresh device.
    _heal_relocations(volume, index, zone)


def _parity_of(stripe_data: bytes, num_data: int, su: int) -> bytes:
    from .parity import stripe_parity
    units = [stripe_data[i * su:(i + 1) * su] for i in range(num_data)]
    return stripe_parity(units, su)


def _heal_relocations(volume: RaiznVolume, index: int, zone: int) -> None:
    desc = volume.zone_descs[zone]
    # Parity that lived in the metadata zone is now written at its proper
    # PBA on the fresh device.
    for key in [k for k in volume.relocated_parity if k[0] == zone
                and volume.mapper.stripe_layout(zone, k[1]).parity_device
                == index]:
        del volume.relocated_parity[key]
    doomed = [unit.su_lba for unit in volume.relocations.units_on_device(index)
              if volume.mapper.zone_of(unit.su_lba) == zone]
    if not doomed:
        return
    for su_lba in doomed:
        volume.relocations._units.pop(su_lba, None)
    volume.relocations.rebuild_counters(
        lambda unit: volume.mapper.zone_of(unit.su_lba))
    desc.has_relocations = any(
        volume.mapper.zone_of(unit.su_lba) == zone
        for unit in volume.relocations.units())


def _rebuild_metadata(sim: Simulator, volume: RaiznVolume, index: int):
    """Re-persist replicated metadata to the fresh device (§4.3).

    Non-replicated metadata that died with the old device (its partial
    parity and relocation logs) is re-created from the in-memory state.
    """
    superblock = Superblock(
        version=SUPERBLOCK_VERSION, num_data=volume.config.num_data,
        num_parity=volume.config.num_parity,
        stripe_unit_bytes=volume.config.stripe_unit_bytes,
        num_zones=volume.num_data_zones + volume.config.num_metadata_zones,
        zone_capacity=volume.phys_zone_capacity,
        num_metadata_zones=volume.config.num_metadata_zones,
        device_index=index, array_uuid=volume.array_uuid)
    mdz = volume.mdzones[index]
    yield from mdz.append(MetadataRole.GENERAL, superblock.to_entry(),
                          fua=True)
    for entry in volume._checkpoint(MetadataRole.GENERAL, index):
        if entry.mdtype is not MetadataType.SUPERBLOCK:
            yield from mdz.append(MetadataRole.GENERAL, entry)
    for entry in volume._checkpoint(MetadataRole.PARTIAL_PARITY, index):
        yield from mdz.append(MetadataRole.PARTIAL_PARITY, entry)
