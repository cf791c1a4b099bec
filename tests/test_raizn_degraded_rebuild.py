"""Fault-tolerance tests: degraded operation and device rebuild (§4.2)."""

import random

import pytest

from repro.block import Bio, BioFlags
from repro.errors import DataLossError, RaiznError
from repro.faults import fail_and_rebuild, fresh_replacement, power_cycle
from repro.raizn import mount, rebuild
from repro.sim import Simulator
from repro.units import KiB
from repro.zns import ZoneState

from conftest import TEST_STRIPE_UNIT, make_volume, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU


class TestDegradedReads:
    @pytest.mark.parametrize("failed_index", [0, 1, 2, 3, 4])
    def test_degraded_read_any_device(self, sim, failed_index):
        volume, _devices = make_volume(sim)
        data = pattern(4 * STRIPE, seed=failed_index)
        volume.execute(Bio.write(0, data))
        volume.fail_device(failed_index)
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_degraded_read_partial_tail_stripe(self, sim):
        volume, _devices = make_volume(sim)
        data = pattern(STRIPE + 20 * KiB, seed=7)
        volume.execute(Bio.write(0, data))
        volume.fail_device(2)
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_degraded_small_reads(self, sim):
        volume, _devices = make_volume(sim)
        data = pattern(2 * STRIPE, seed=8)
        volume.execute(Bio.write(0, data))
        volume.fail_device(1)
        for offset in range(0, 2 * STRIPE, 16 * KiB):
            got = volume.execute(Bio.read(offset, 16 * KiB)).result
            assert got == data[offset:offset + 16 * KiB]


class TestDegradedWrites:
    def test_writes_continue_degraded(self, sim):
        volume, _devices = make_volume(sim)
        volume.fail_device(3)
        data = pattern(3 * STRIPE, seed=9)
        volume.execute(Bio.write(0, data))
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_degraded_write_then_another_failure_loses_data(self, sim):
        volume, _devices = make_volume(sim)
        volume.fail_device(0)
        volume.execute(Bio.write(0, pattern(STRIPE, seed=10)))
        with pytest.raises(DataLossError):
            volume.fail_device(1)

    def test_degraded_zone_reset(self, sim):
        volume, _devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(STRIPE, seed=11)))
        volume.fail_device(2)
        volume.execute(Bio.zone_reset(0))
        data = pattern(STRIPE, seed=12)
        volume.execute(Bio.write(0, data))
        assert volume.execute(Bio.read(0, STRIPE)).result == data


class TestRebuild:
    def test_rebuild_restores_redundancy(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(5 * STRIPE + 12 * KiB, seed=13)
        volume.execute(Bio.write(0, data))
        report = fail_and_rebuild(sim, volume, 1)
        assert report.bytes_written > 0
        assert volume.execute(Bio.read(0, len(data))).result == data
        # Redundancy is restored: a different device may now fail.
        volume.fail_device(4)
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_rebuild_skips_empty_zones(self, sim):
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(STRIPE, seed=14)))
        report = fail_and_rebuild(sim, volume, 0)
        # Only zone 0 contains data; rebuild writes ~1 SU for it.
        assert report.bytes_written <= 2 * SU

    def test_rebuild_only_to_write_pointer(self, sim):
        """§4.2: RAIZN rebuilds only the LBA ranges holding user data."""
        volume, devices = make_volume(sim)
        half = volume.zone_capacity // 2
        volume.execute(Bio.write(0, pattern(half, seed=15)))
        report = fail_and_rebuild(sim, volume, 2)
        assert report.bytes_written <= half // 4 + SU

    def test_rebuild_full_volume_writes_full_share(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(volume.zone_capacity, seed=16)
        volume.execute(Bio.write(0, data))
        report = fail_and_rebuild(sim, volume, 2)
        # One physical zone of data plus parity shares.
        assert report.bytes_written == volume.zone_capacity // 4

    def test_rebuild_ttr_scales_with_data(self, sim):
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(volume.zone_capacity, seed=17)))
        small = fail_and_rebuild(sim, volume, 0)
        sim2 = Simulator()
        volume2, _ = make_volume(sim2)
        volume2.execute(Bio.write(0, pattern(volume2.zone_capacity, seed=18)))
        volume2.execute(Bio.write(volume2.zone_capacity,
                                  pattern(volume2.zone_capacity, seed=19)))
        volume2.execute(Bio.write(2 * volume2.zone_capacity,
                                  pattern(volume2.zone_capacity, seed=20)))
        large = fail_and_rebuild(sim2, volume2, 0)
        assert large.bytes_written > small.bytes_written
        assert large.duration > small.duration

    def test_rebuild_nonfailed_device_rejected(self, sim):
        volume, devices = make_volume(sim)
        replacement = fresh_replacement(sim, devices[0], "r0")
        with pytest.raises(RaiznError):
            rebuild(sim, volume, 0, replacement)

    def test_rebuild_geometry_mismatch_rejected(self, sim):
        from repro.zns import ZNSDevice
        volume, devices = make_volume(sim)
        volume.fail_device(0)
        wrong = ZNSDevice(sim, name="wrong", num_zones=4,
                          zone_capacity=devices[1].zone_capacity)
        with pytest.raises(RaiznError):
            rebuild(sim, volume, 0, wrong)

    def test_rebuild_parity_device_zone(self, sim):
        """The rebuilt device holds parity for some stripes; those SUs
        must be recomputed, not copied."""
        volume, devices = make_volume(sim)
        data = pattern(volume.zone_capacity, seed=21)
        volume.execute(Bio.write(0, data))
        parity_device = volume.mapper.stripe_layout(0, 0).parity_device
        report = fail_and_rebuild(sim, volume, parity_device)
        assert volume.execute(Bio.read(0, len(data))).result == data
        volume.fail_device((parity_device + 1) % 5)
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_rebuild_after_degraded_mount(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(3 * STRIPE + 8 * KiB, seed=22)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        power_cycle(devices, random.Random(3))
        presented = list(devices)
        presented[2] = None
        degraded = mount(sim, presented)
        assert degraded.execute(Bio.read(0, len(data))).result == data
        replacement = fresh_replacement(sim, devices[0], "r2")
        rebuild(sim, degraded, 2, replacement)
        assert degraded.execute(Bio.read(0, len(data))).result == data

    def test_rebuild_heals_relocations(self, sim):
        """Relocated stripe units are written at their correct PBAs on
        the fresh device, clearing the relocation map (§5.2 + §4.2)."""
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(6 * STRIPE, seed=23)))
        power_cycle(devices, random.Random(41))
        remounted = mount(sim, devices)
        wp = remounted.zone_info(0).write_pointer
        more = pattern(2 * STRIPE, seed=24)
        remounted.execute(Bio.write(wp, more))
        if not remounted.relocations.units():
            pytest.skip("this seed produced no relocations")
        device = remounted.relocations.units()[0].device
        fail_and_rebuild(sim, remounted, device)
        assert not remounted.relocations.units_on_device(device)
        got = remounted.execute(Bio.read(wp, len(more))).result
        assert got == more

    def test_writes_during_rebuild_catch_up(self, sim):
        """Writes served degraded while a zone rebuilds are folded in by
        the rebuild's catch-up loop."""
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(2 * STRIPE, seed=25)))
        volume.fail_device(0)
        replacement = fresh_replacement(sim, devices[1], "r0")
        from repro.raizn.rebuild import rebuild_process
        proc = sim.process(rebuild_process(sim, volume, 0, replacement))
        # Interleave new writes while the rebuild runs.
        more = pattern(2 * STRIPE, seed=26)
        volume.submit(Bio.write(2 * STRIPE, more))
        sim.run()
        assert proc.ok
        full = volume.execute(Bio.read(0, 4 * STRIPE)).result
        assert full[2 * STRIPE:] == more
        volume.fail_device(3)
        assert volume.execute(Bio.read(0, 4 * STRIPE)).result == full


class TestCrashDuringRebuild:
    """A power cut in the middle of a rebuild must leave the array
    mountable and the rebuild restartable onto the same replacement."""

    @staticmethod
    def _array_awaiting_rebuild(sim):
        volume, devices = make_volume(sim)
        zone = volume.zone_info(0).capacity
        data = pattern(zone + zone // 2, seed=31)  # 1.5 logical zones
        volume.execute(Bio.write(0, data[:zone]))
        volume.execute(Bio.write(zone, data[zone:]))
        volume.execute(Bio.flush())
        volume.fail_device(2)
        return volume, devices, data

    def _cut_rebuild(self, fraction):
        from repro.faults.powerloss import crash_during
        from repro.raizn.rebuild import rebuild_process
        # Time an identical, uninterrupted rebuild first: the simulation
        # is deterministic, so the cut lands at ``fraction`` of it.
        dry = Simulator()
        volume, devices, _data = self._array_awaiting_rebuild(dry)
        duration = rebuild(dry, volume, 2,
                           fresh_replacement(dry, devices[0], "r2")).duration
        sim = Simulator()
        volume, devices, data = self._array_awaiting_rebuild(sim)
        replacement = fresh_replacement(sim, devices[0], "r2")
        members = [replacement if i == 2 else dev
                   for i, dev in enumerate(devices)]
        crash_during(sim, members,
                     rebuild_process(sim, volume, 2, replacement),
                     sim.now + fraction * duration)
        return sim, members, replacement, data

    def test_mount_degraded_with_half_rebuilt_replacement(self):
        sim, members, replacement, data = self._cut_rebuild(0.3)
        assert any(info.write_pointer != info.start
                   for info in replacement.report_zones())
        remounted = mount(sim, members)
        assert remounted.failed[2] and remounted.devices[2] is None
        assert remounted.execute(Bio.read(0, len(data))).result == data

    def test_retried_rebuild_onto_half_rebuilt_replacement(self):
        sim, members, replacement, data = self._cut_rebuild(0.3)
        remounted = mount(sim, members)
        rebuild(sim, remounted, 2, replacement)
        assert remounted.devices[2] is replacement
        assert remounted.execute(Bio.read(0, len(data))).result == data
        # Reads now depend on the rebuilt device's bytes.
        remounted.fail_device(0)
        assert remounted.execute(Bio.read(0, len(data))).result == data
