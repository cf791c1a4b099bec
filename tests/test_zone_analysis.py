"""Mount-time zone analysis walks only the stripes a crash can have torn.

``recovery._ZoneContent`` starts its stripe walks at the first stripe any
present device holds short (capped at the zone's first relocated SU) and
ends them past the last written stripe.  The property test checks the
bounded walks against the full walks from stripe 0, which survive here
only as the reference; the count test pins the per-zone work of a mount.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import List, Optional

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.block import Bio
from repro.errors import ReproError
from repro.faults import power_cycle
from repro.raizn import mount
from repro.raizn.config import RaiznConfig
from repro.raizn.mdzone import MetadataRole
from repro.raizn.metadata import encode_relocated_su
from repro.raizn.recovery import _ZoneContent
from repro.raizn.volume import RaiznVolume
from repro.sim import Simulator
from repro.units import KiB
from repro.zns.device import ZNSDevice

from conftest import make_volume, pattern

SU = 16 * KiB
SECTOR = 4 * KiB
NUM_DEVICES = 4
STRIPES = 16
ZONE = 1  # analyze the second logical zone: its rotation is not zero


class _FullWalk(_ZoneContent):
    """The stripe walks as they ran before they were bounded: every walk
    starts at stripe 0 and the extent scan runs to the end of the zone."""

    def _scan_extents(self):
        volume = self.volume
        zone_start = volume.mapper.zone_start(self.zone)
        first_gap: Optional[int] = None
        max_written = zone_start
        for stripe in range(volume.mapper.stripes_per_zone):
            layout = volume.mapper.stripe_layout(self.zone, stripe)
            any_data = False
            for i, device in enumerate(layout.data_devices):
                extent = self._data_extent(stripe, i, device)
                su_lba = volume.mapper.su_lba(self.zone, stripe, i)
                if extent is None:
                    continue
                if extent > 0:
                    any_data = True
                    max_written = max(max_written, su_lba + extent)
                if extent < self.su and first_gap is None:
                    first_gap = su_lba + extent
            if self._su_extent(stripe, layout.parity_device):
                any_data = True
            if not any_data and first_gap is not None:
                break
        return first_gap, max_written

    def _first_missing_lba(self, max_written: int) -> int:
        volume = self.volume
        zone_start = volume.mapper.zone_start(self.zone)
        position = zone_start
        while position < max_written:
            stripe = (position - zone_start) // self.width
            i = (position - zone_start) % self.width // self.su
            layout = volume.mapper.stripe_layout(self.zone, stripe)
            extent = self._data_extent(stripe, i,
                                       layout.data_devices[i]) or 0
            su_lba = volume.mapper.su_lba(self.zone, stripe, i)
            if extent < min(self.su, max_written - su_lba):
                return su_lba + extent
            position = su_lba + self.su
        return max_written

    def _arm_stale_relocations(self, rollback_lwp: int):
        volume = self.volume
        known = [e for e in self.extents if e is not None]
        max_extent = max(known) if known else 0
        if max_extent == 0:
            return
        events = []
        for stripe in range((max_extent - 1) // self.su + 1):
            layout = volume.mapper.stripe_layout(self.zone, stripe)
            for i, device in enumerate(layout.data_devices):
                su_lba = volume.mapper.su_lba(self.zone, stripe, i)
                if su_lba < rollback_lwp:
                    continue
                if not self._su_extent(stripe, device):
                    continue
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

    def _analyze_degraded(self, max_written: int):
        volume = self.volume
        zone_start = volume.mapper.zone_start(self.zone)
        if max_written == zone_start and not self.partial_parity:
            self.logical_wp = zone_start
            return
        missing = self._missing_device()
        last = (max(max_written - 1, zone_start) - zone_start) // self.width
        if self.partial_parity:
            last = max(last, max(self.partial_parity))
        wp = zone_start
        torn_parity: List[int] = []
        for stripe in range(last + 1):
            layout = volume.mapper.stripe_layout(self.zone, stripe)
            stripe_lba = zone_start + stripe * self.width
            complete = all(
                (self._data_extent(stripe, i, device) or 0) >= self.su
                for i, device in enumerate(layout.data_devices)
                if device != missing)
            parity_ok = (layout.parity_device == missing
                         or (self._su_extent(stripe, layout.parity_device)
                             or 0) == self.su
                         or (self.zone, stripe) in volume.relocated_parity)
            if complete and parity_ok:
                wp = stripe_lba + self.width
                continue
            wp = self._degraded_tail_wp(stripe, layout, missing, stripe_lba,
                                        max_written)
            if wp < stripe_lba + self.width:
                break
            if layout.parity_device != missing:
                torn_parity.append(stripe)
        self.logical_wp = min(wp, zone_start + volume.zone_capacity)
        for stripe in torn_parity:
            yield from self._record_degraded_parity(stripe, missing)


# -- the drawn zone state -----------------------------------------------------


@st.composite
def zone_states(draw):
    """Per-device extents of one physical zone, an optional missing
    device, and relocated SUs (below the shortest extent too)."""
    cap = STRIPES * SU
    base = draw(st.integers(0, STRIPES)) * SU
    extents: List[Optional[int]] = []
    for _ in range(NUM_DEVICES):
        delta = draw(st.integers(-2 * SU // SECTOR, 2 * SU // SECTOR))
        extents.append(min(cap, max(0, base + delta * SECTOR)))
    if draw(st.booleans()):
        extents[draw(st.integers(0, NUM_DEVICES - 1))] = None
    relocations = draw(st.lists(
        st.tuples(st.integers(0, STRIPES - 1),
                  st.integers(0, NUM_DEVICES - 2),
                  st.integers(0, SU // SECTOR),
                  st.integers(0, SU // SECTOR)),
        max_size=3))
    return extents, relocations


def _outcome(walk_class, extents, relocations):
    """Run one analysis of ``ZONE`` over a fresh array in the drawn state."""
    sim = Simulator()
    devices = [ZNSDevice(sim, name=f"zns{i}", num_zones=8,
                         zone_capacity=STRIPES * SU, seed=i)
               for i in range(NUM_DEVICES)]
    volume = RaiznVolume.create(
        sim, devices, RaiznConfig(num_data=NUM_DEVICES - 1,
                                  stripe_unit_bytes=SU))
    zone_pba = ZONE * volume.phys_zone_size
    for index, extent in enumerate(extents):
        if extent is None:
            volume.devices[index] = None
            volume.failed[index] = True
            continue
        if extent:
            devices[index].submit(Bio.write(
                zone_pba, pattern(extent, seed=index)))
            sim.run()
        volume.phys[index][ZONE].write_pointer = zone_pba + extent
    for stripe, su_index, lo, hi in relocations:
        su_lba = volume.mapper.su_lba(ZONE, stripe, su_index)
        device = volume.mapper.stripe_layout(ZONE, stripe) \
            .data_devices[su_index]
        unit = volume.relocations.unit_for(su_lba, device, ZONE)
        lo, hi = sorted((lo * SECTOR, hi * SECTOR))
        if lo < hi:
            unit.write(su_lba + lo, pattern(hi - lo, seed=stripe))
    content = walk_class(volume, ZONE, list(extents), {})
    first_gap, max_written = content._scan_extents()
    if first_gap is not None and first_gap >= max_written:
        first_gap = None  # no byte below the written end is missing
    try:
        sim.run_process(content.analyze())
        error = None
    except ReproError as exc:  # both walks must fail the same way
        error = (type(exc).__name__, str(exc))
    armed = sorted((unit.su_lba, unit.device, tuple(unit.extents))
                   for unit in volume.relocations.units())
    return dict(first_gap=first_gap, max_written=max_written, error=error,
                logical_wp=content.logical_wp,
                conflicts=content.has_relocation_conflicts, armed=armed)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(zone_states())
# Device 0 is missing and is the last data SU of the last whole stripe.
@example(([None, 2 * SU, 2 * SU, 2 * SU], []))
def test_bounded_walks_match_full_walks(state):
    extents, relocations = state
    assert _outcome(_ZoneContent, extents, relocations) == \
        _outcome(_FullWalk, extents, relocations)


def test_full_walk_reference_sees_the_torn_tail():
    """The reference is not vacuous: a torn tail makes both walks roll
    back, arm relocations over the stale SUs, and agree on every one."""
    extents = [3 * SU, 3 * SU, 5 * SU, 5 * SU]
    bounded = _outcome(_ZoneContent, extents, [])
    assert bounded == _outcome(_FullWalk, extents, [])
    assert bounded["conflicts"] and bounded["armed"]
    assert bounded["first_gap"] is not None


# -- work per zone ---------------------------------------------------------------


def test_mount_work_per_zone_tracks_the_tail_not_the_fill(monkeypatch):
    """Zones whose devices all stop on one stripe boundary cost nothing
    to analyze however full they are; a partial tail stripe costs one
    stripe's data SUs wherever it sits."""
    sim = Simulator()
    volume, devices = make_volume(sim)
    su = volume.config.stripe_unit_bytes
    width = volume.mapper.stripe_width
    stripes = volume.mapper.stripes_per_zone
    fills = {0: stripes * width,        # full
             1: width,                  # one stripe
             2: stripes // 2 * width,   # half
             3: 3 * width + su + su // 2,
             4: (stripes - 2) * width + su + su // 2}
    for zone, length in fills.items():
        start = volume.mapper.zone_start(zone)
        volume.execute(Bio.write(start, pattern(length, seed=zone)))
    volume.execute(Bio.flush())
    power_cycle(devices, random.Random(0))

    calls: Counter = Counter()
    real = _ZoneContent._data_extent

    def counting(self, stripe, su_index, device):
        calls[self.zone] += 1
        return real(self, stripe, su_index, device)

    monkeypatch.setattr(_ZoneContent, "_data_extent", counting)
    remounted = mount(sim, devices)

    num_data = volume.config.num_data
    for zone, length in fills.items():
        extents = [remounted.phys[i][zone].write_pointer
                   - zone * remounted.phys_zone_size
                   for i in range(len(devices))]
        first_short = min(extents) // su
        last_written = (max(extents) - 1) // su
        assert calls[zone] <= num_data * (last_written - first_short + 1)
        assert remounted.zone_info(zone).write_pointer == \
            volume.mapper.zone_start(zone) + length
    assert calls[0] == calls[1] == calls[2] == 0
    assert calls[3] == calls[4] == num_data
