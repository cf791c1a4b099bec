"""Closed-loop workloads on a fresh RAIZN array, with output checks.

A run repeats *rounds* until its time budget is spent.  A round builds a
fresh array of five ZNS devices (D=4 + P=1, 64 KiB stripe unit, 32
zones of 4 MiB each) plus a blank spare, prepares the workload's initial
state (set-up), drives the workload's seeded sequence of logical bios
through it (the timed window), and ends with a recovery epilogue that
also checks the outputs.

The seed chooses the payloads, the read targets, the devices'
service-time noise and which unflushed bytes a power cut keeps; the
zones used, the order of writes and the amount of work are fixed.
Every round of a run uses the same seed on a fresh simulator, so its
simulated outcome is identical each time; only host timings differ.

The array is driven only through its public API:
``RaiznVolume.create/submit/fail_device``, ``mount``, ``rebuild_process``,
``power_cycle`` and ``MetricsRegistry.for_volume``.  The benchmark keeps
its own model of every zone's contents (:class:`ZoneModel`); each read
the workload or the epilogue issues is compared byte for byte against
it.
"""

from __future__ import annotations

import bisect
import cProfile
import dataclasses
import gc
import hashlib
import random
import resource
import statistics
import time
from typing import Callable, Dict, Iterator, List, Optional

from repro.block import Bio, BioFlags
from repro.block.bio import Op
from repro.faults import (array_state_fingerprint, fresh_replacement,
                          power_cycle)
from repro.raizn import (RaiznConfig, RaiznVolume, mount, rebuild,
                         rebuild_process)
from repro.sim import LatencyStats, Simulator, simulation_gc
from repro.trace import MetricsRegistry
from repro.units import KiB, MiB
from repro.zns import ZNSDevice

from layers import LAYERS, SPAN_NAMES, Spans, layer_table

NUM_DEVICES = 5
STRIPE_UNIT = 64 * KiB
STRIPE_WIDTH = (NUM_DEVICES - 1) * STRIPE_UNIT
#: Logical zones each workload writes (degraded_rebuild: twice this).
ZONES_USED = 8
#: The device the degraded workload and the epilogue fail and rebuild.
FAILED_DEVICE = 1
ARRAY_UUID = bytes(range(16))
SYNC = BioFlags.FUA | BioFlags.PREFLUSH
#: Rounds a run makes even past its time budget: enough that the pooled
#: mount samples put at least ten beyond the 95th percentile.
MIN_ROUNDS = 5


class CheckFailed(AssertionError):
    """An output of the array differs from what the benchmark expects."""


@dataclasses.dataclass(frozen=True)
class Scale:
    """Device geometry and the amount of work in one round."""

    num_zones: int = 32
    zone_capacity: int = 4 * MiB
    #: fill_stream: fills of all its zones, separated by zone resets.
    fill_passes: int = 8
    #: sync_mixed: logical reads and writes (flushes come on top).
    sync_ops: int = 16384
    #: degraded_rebuild: reads and writes issued while the rebuild runs.
    degraded_ops: int = 4096
    #: crash_mount: burst → power cut → mount cycles.
    crash_cycles: int = 40
    #: Clean remounts in the epilogue of a workload that did not mount.
    remounts: int = 80


FULL_SCALE = Scale()


# -- the benchmark's model of the array ----------------------------------


class ZoneModel:
    """What was submitted to each logical zone, and what is owed back.

    ``chunks[z]`` holds every write's payload in zone order, ``ends[z]``
    their cumulative end offsets.  ``acked[z]`` is the contiguous prefix
    whose writes have completed, ``synced[z]`` the frontier covered by an
    acknowledged FUA write or flush, which must survive a power cut.
    """

    def __init__(self, num_zones: int, zone_bytes: int):
        self.zone_bytes = zone_bytes
        self.chunks: List[List[bytes]] = [[] for _ in range(num_zones)]
        self.ends: List[List[int]] = [[] for _ in range(num_zones)]
        self.acked = [0] * num_zones
        self.synced = [0] * num_zones
        #: Completed writes beyond ``acked``: start → end.
        self._done_ahead: List[Dict[int, int]] = [{} for _ in range(num_zones)]
        self._flush_marks: Dict[int, List[int]] = {}
        self.mismatches: List[str] = []

    def length(self, zone: int) -> int:
        ends = self.ends[zone]
        return ends[-1] if ends else 0

    def expected(self, zone: int, start: int, length: int) -> bytes:
        """The bytes ``[start, start + length)`` of ``zone`` should hold."""
        ends, chunks = self.ends[zone], self.chunks[zone]
        index = bisect.bisect_right(ends, start)
        parts, pos, stop = [], start, start + length
        while pos < stop:
            chunk = chunks[index]
            chunk_start = ends[index] - len(chunk)
            take = min(stop, ends[index])
            view = memoryview(chunk)
            parts.append(view[pos - chunk_start:take - chunk_start])
            pos = take
            index += 1
        return b"".join(parts)

    def truncate(self, zone: int, length: int) -> None:
        """Keep the first ``length`` bytes (a recovered write pointer)."""
        ends, chunks = self.ends[zone], self.chunks[zone]
        keep = bisect.bisect_left(ends, length)
        if keep < len(ends):
            start = ends[keep] - len(chunks[keep])
            if length > start:
                chunks[keep] = memoryview(chunks[keep])[:length - start]
                ends[keep] = length
                keep += 1
        del ends[keep:], chunks[keep:]
        self.acked[zone] = length
        self.synced[zone] = min(self.synced[zone], length)
        self._done_ahead[zone].clear()

    def on_submit(self, bio: Bio) -> None:
        """Record a bio the workload is about to submit."""
        op = bio.op
        if op is Op.WRITE:
            zone, offset = divmod(bio.offset, self.zone_bytes)
            if offset != self.length(zone):
                raise CheckFailed(f"zone {zone}: write at {offset} is not "
                                  f"at the end ({self.length(zone)})")
            self.chunks[zone].append(bio.data)
            self.ends[zone].append(offset + bio.length)
        elif op is Op.ZONE_RESET:
            zone = bio.offset // self.zone_bytes
            del self.chunks[zone][:], self.ends[zone][:]
            self.acked[zone] = self.synced[zone] = 0
            self._done_ahead[zone].clear()
        elif op is Op.FLUSH:
            self._flush_marks[id(bio)] = list(self.acked)

    def on_complete(self, bio: Bio) -> None:
        """Check a completed read; advance the frontiers a write or
        flush acknowledges."""
        op = bio.op
        if op is Op.READ:
            zone, offset = divmod(bio.offset, self.zone_bytes)
            if bio.result != self.expected(zone, offset, bio.length):
                self.mismatches.append(
                    f"zone {zone}: read of {bio.length} bytes at {offset} "
                    "returned wrong data")
        elif op is Op.WRITE:
            zone, offset = divmod(bio.offset, self.zone_bytes)
            end = offset + bio.length
            if bio.flags & BioFlags.FUA and end > self.synced[zone]:
                self.synced[zone] = end
            ahead = self._done_ahead[zone]
            if offset == self.acked[zone]:
                while end in ahead:
                    end = ahead.pop(end)
                self.acked[zone] = end
            else:
                ahead[offset] = end
        elif op is Op.FLUSH:
            mark = self._flush_marks.pop(id(bio))
            self.synced = [max(s, m) for s, m in zip(self.synced, mark)]


# -- one round: set-up, timed window, epilogue --------------------------


def _payloads(rng: random.Random, size: int, count: int) -> List[bytes]:
    return [rng.randbytes(size) for _ in range(count)]


class Round:
    """One fresh array, the workload driven through it, and what it cost.

    ``profile`` (a ``cProfile.Profile``) and ``spans`` are given only in a
    traced round; the profiler runs only inside a :class:`Window`.
    """

    def __init__(self, scale: Scale, seed: int, tracing: bool = False,
                 profile=None, spans: Optional[Spans] = None):
        self.scale = scale
        self.seed = seed
        self.tracing = tracing
        self.profile = profile
        self.spans = spans
        start = time.perf_counter()
        self.sim = Simulator()
        devices = [ZNSDevice(self.sim, name=f"zns{i}",
                             num_zones=scale.num_zones,
                             zone_capacity=scale.zone_capacity,
                             seed=seed * NUM_DEVICES + i)
                   for i in range(NUM_DEVICES)]
        self.spare = fresh_replacement(self.sim, devices[0], name="spare",
                                       seed=seed * NUM_DEVICES + NUM_DEVICES)
        config = RaiznConfig(num_data=NUM_DEVICES - 1,
                             stripe_unit_bytes=STRIPE_UNIT, tracing=tracing)
        self.volume = RaiznVolume.create(self.sim, devices, config,
                                         array_uuid=ARRAY_UUID)
        self.zone_bytes = self.volume.zone_capacity
        self.rng = random.Random(seed)
        self.model = ZoneModel(self.volume.num_zones, self.zone_bytes)
        #: The logical zones this workload writes.
        self.zones: List[int] = []
        # Window totals.
        self.host_s = 0.0
        self.sim_s = 0.0
        self.ops = 0
        self.failed = 0
        self.user_bytes = 0
        self.written_bytes = 0
        self.latencies: List[float] = []
        self.counters: Dict[str, float] = {}
        self.rebuild_bytes = 0
        # Recovery measurements (window or epilogue).
        self.mount_host_ms: List[float] = []
        self.mount_sim_ms: List[float] = []
        self.repair_sim_s: List[float] = []
        self.errors: List[str] = []
        self.in_window = False
        self.setup_s = 0.0
        self._setup_start = start

    # -- helpers the workloads use ----------------------------------------

    def use_zones(self, count: int) -> List[int]:
        """The first ``count`` logical zones.  Fixed rather than seeded:
        a zone's index sets its parity rotation, which alone moves the
        simulated tail latency by up to 35% between seeds."""
        self.zones = list(range(count))
        return self.zones

    def setup_done(self) -> None:
        self.setup_s = time.perf_counter() - self._setup_start

    @property
    def devices(self) -> List[ZNSDevice]:
        return [dev for dev in self.volume.devices if dev is not None]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn``, recorded as a span when traced and inside a window."""
        if self.spans is None or not self.in_window:
            return fn
        return self.spans.wrap(name, fn)

    def drive(self, bios: Iterator[Bio], iodepth: int) -> None:
        """Run ``bios`` as a closed loop at ``iodepth`` until all complete."""
        ClosedLoop(self, bios, iodepth).start()
        self.wrap("sim_run", self.sim.run)()

    def mount(self, record: bool = True) -> None:
        """Mount the array's devices as a new volume, timing the mount."""
        devices, sim_start = self.devices, self.sim.now
        start = time.perf_counter()
        self.volume = self.wrap("mount", mount)(self.sim, devices,
                                                tracing=self.tracing)
        if record:
            self.mount_host_ms.append((time.perf_counter() - start) * 1e3)
            self.mount_sim_ms.append((self.sim.now - sim_start) * 1e3)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)

    def verify_zone(self, zone: int, start: int = 0) -> None:
        """Read ``zone`` from ``start`` to its write pointer; compare."""
        base = zone * self.zone_bytes
        wp = self.volume.zone_info(zone).write_pointer - base
        self.check(wp == self.model.length(zone),
                   f"zone {zone}: write pointer {wp}, model "
                   f"{self.model.length(zone)}")
        pos = start - start % STRIPE_WIDTH
        while pos < wp:
            length = min(MiB, wp - pos)
            data = self.volume.execute(Bio.read(base + pos, length)).result
            self.check(data == self.model.expected(zone, pos, length),
                       f"zone {zone}: bytes {pos}..{pos + length} differ")
            pos += length


class Window:
    """One timed stretch of the workload: host and simulated time, the
    public counters' deltas and (in a traced round) the profiler.

    Device counters continue across a mount (same device objects); the
    volume's and metadata zones' counters start again at zero in the
    volume a mount creates, so those are then counted from zero.
    """

    def __init__(self, r: Round):
        self.r = r

    def __enter__(self):
        r = self.r
        self.volume = r.volume
        self.base = MetricsRegistry.for_volume(r.volume).flat()
        self.sim_start = r.sim.now
        r.in_window = True
        self.start = time.perf_counter()
        if r.profile is not None:
            r.profile.enable()
        return self

    def __exit__(self, *exc_info):
        r = self.r
        if r.profile is not None:
            r.profile.disable()
        r.host_s += time.perf_counter() - self.start
        r.in_window = False
        r.sim_s += r.sim.now - self.sim_start
        base = self.base
        if r.volume is not self.volume:
            base = {k: v for k, v in base.items() if k.startswith("device.")}
        for key, value in MetricsRegistry.for_volume(r.volume).flat().items():
            r.counters[key] = r.counters.get(key, 0) + value - base.get(key, 0)


class ClosedLoop:
    """Keeps up to ``iodepth`` logical bios in flight: the next bio is
    submitted only when a completion frees a slot."""

    def __init__(self, r: Round, bios: Iterator[Bio], iodepth: int):
        self.r = r
        self.next_bio = bios.__next__
        self.iodepth = iodepth
        self.submit = r.wrap("submit", r.volume.submit)
        self.model = r.model
        self.sim = r.sim

    def start(self) -> None:
        for _ in range(self.iodepth):
            self._issue()

    def _issue(self) -> None:
        try:
            bio = self.next_bio()
        except StopIteration:
            return
        self.model.on_submit(bio)
        self.r.ops += 1
        self.submit(bio).add_callback(lambda event: self._done(event, bio))

    def _done(self, event, bio: Bio) -> None:
        r = self.r
        r.latencies.append(self.sim.now - bio.submit_time)
        if event.ok:
            self.model.on_complete(bio)
            if bio.op is Op.READ:
                r.user_bytes += bio.length
            elif bio.op is Op.WRITE:
                r.user_bytes += bio.length
                r.written_bytes += bio.length
        else:
            r.failed += 1
            r.errors.append(f"{bio.op.name} at {bio.offset} failed: "
                            f"{event.value!r}")
        self._issue()


# -- workloads -----------------------------------------------------------


def _fill_stream(r: Round) -> None:
    """256 KiB full-stripe writes round-robin over 8 open zones at
    iodepth 32; passes separated by logical zone resets."""
    zones = r.use_zones(ZONES_USED)
    size = STRIPE_WIDTH
    blocks = _payloads(r.rng, size, 16)
    choice = [r.rng.randrange(len(blocks))
              for _ in range(r.zone_bytes // size * len(zones))]
    r.setup_done()

    def bios() -> Iterator[Bio]:
        picks = iter(choice)
        for offset in range(0, r.zone_bytes, size):
            for zone in zones:
                yield Bio.write(zone * r.zone_bytes + offset,
                                blocks[next(picks)])

    for npass in range(r.scale.fill_passes):
        with Window(r):
            if npass:
                # A write queued behind its zone's in-flight reset can
                # fail its write-pointer check, so resets drain first.
                r.drive((Bio.zone_reset(zone * r.zone_bytes)
                         for zone in zones), iodepth=len(zones))
            r.drive(bios(), iodepth=32)


def _sync_mixed(r: Round) -> None:
    """4 KiB FUA|PREFLUSH writes round-robin over 8 zones, a flush every
    32 writes, and every fourth op a 4 KiB read of a completed write (a
    flush while the zone it picks has none yet), at iodepth 16.  The
    write count fills whole stripes, so no seed leaves partial parity
    open at the end."""
    zones = r.use_zones(ZONES_USED)
    size = 4 * KiB
    blocks = _payloads(r.rng, size, 256)
    model, rng = r.model, r.rng
    r.setup_done()

    def bios() -> Iterator[Bio]:
        written = 0
        for op in range(r.scale.sync_ops):
            if op % 4 == 3:
                zone = zones[int(rng.random() * len(zones))]
                acked = model.acked[zone] // size
                # Until the zone has a completed write, read nothing.
                yield Bio.read(zone * r.zone_bytes
                               + int(rng.random() * acked) * size,
                               size) if acked else Bio.flush()
                continue
            zone = zones[written % len(zones)]
            yield Bio.write(zone * r.zone_bytes + model.length(zone),
                            blocks[int(rng.random() * len(blocks))], SYNC)
            written += 1
            if written % 32 == 0:
                yield Bio.flush()

    with Window(r):
        r.drive(bios(), iodepth=16)


def _degraded_rebuild(r: Round) -> None:
    """8 zones primed and flushed, device 1 failed; the rebuild onto the
    spare runs concurrently with 64 KiB reads of the primed zones and
    64 KiB writes to 8 fresh zones, at iodepth 16."""
    zones = r.use_zones(2 * ZONES_USED)
    primed, fresh = zones[:ZONES_USED], zones[ZONES_USED:]
    blocks = _payloads(r.rng, STRIPE_WIDTH, 16)
    units = [memoryview(block)[:STRIPE_UNIT] for block in blocks]
    r.drive((Bio.write(zone * r.zone_bytes + offset,
                       blocks[r.rng.randrange(len(blocks))])
             for offset in range(0, r.zone_bytes, STRIPE_WIDTH)
             for zone in primed), iodepth=32)
    r.volume.execute(Bio.flush())
    # Priming is set-up: forget its ops and latencies.
    r.ops = r.user_bytes = r.written_bytes = 0
    r.latencies.clear()
    r.volume.fail_device(FAILED_DEVICE)
    size = STRIPE_UNIT
    model, rng = r.model, r.rng
    r.setup_done()

    def bios() -> Iterator[Bio]:
        for op in range(r.scale.degraded_ops):
            if op % 2:
                zone = primed[int(rng.random() * len(primed))]
                offset = int(rng.random() * (r.zone_bytes // size)) * size
                yield Bio.read(zone * r.zone_bytes + offset, size)
            else:
                zone = fresh[(op // 2) % len(fresh)]
                yield Bio.write(zone * r.zone_bytes + model.length(zone),
                                units[int(rng.random() * len(units))])

    with Window(r):
        process = r.sim.process(r.wrap("rebuild_process", rebuild_process)(
            r.sim, r.volume, FAILED_DEVICE, r.spare))
        r.drive(bios(), iodepth=16)
    report = process.value
    r.repair_sim_s.append(report.duration)
    r.rebuild_bytes += report.bytes_written


def _crash_mount(r: Round) -> None:
    """Cycles of a burst of mixed-size writes to 8 zones at iodepth 8
    (each zone gets 4 KiB FUA, then 16, 64 and 256 KiB), a seeded
    power cut and a mount, continuing from the recovered write pointers;
    every recovered zone is checked against the model.

    Every burst but the round's last ends with a flush, so only the last
    cut tears unflushed tails.  A torn recovery followed by more writes
    and another cut recovers wrongly today (mount errors, recovered
    write pointers past what was written, wrong bytes), so the workload
    continues only after recoveries that had nothing to roll back.
    """
    zones = r.use_zones(ZONES_USED)
    blocks = [memoryview(block)
              for block in _payloads(r.rng, STRIPE_WIDTH, 16)]
    sizes = (4 * KiB, 16 * KiB, 64 * KiB, STRIPE_WIDTH)
    model, rng = r.model, r.rng
    r.setup_done()

    def burst(torn: bool) -> Iterator[Bio]:
        # The same sizes in the same order every burst: seeding the order
        # or which write is FUA moves the simulated rate by up to 8%
        # between seeds.
        for zone in zones:
            for size in sizes:
                yield Bio.write(
                    zone * r.zone_bytes + model.length(zone),
                    blocks[int(rng.random() * len(blocks))][:size],
                    SYNC if size == sizes[0] else BioFlags.NONE)
        if not torn:
            yield Bio.flush()

    for cycle in range(r.scale.crash_cycles):
        verified = [model.length(zone) for zone in zones]
        with Window(r):
            r.drive(burst(torn=cycle == r.scale.crash_cycles - 1),
                    iodepth=8)
        # Free the volumes earlier mounts replaced, so neither peak RSS
        # nor the mount's allocations depend on this loop's garbage.
        gc.collect()
        with Window(r):
            power_cycle(r.devices, random.Random(r.seed * 7919 + cycle))
            r.mount()
        for zone, start in zip(zones, verified):
            wp = r.volume.zone_info(zone).write_pointer - zone * r.zone_bytes
            if not model.synced[zone] <= wp <= model.length(zone):
                raise CheckFailed(
                    f"cycle {cycle} zone {zone}: recovered write pointer "
                    f"{wp} outside [{model.synced[zone]}, "
                    f"{model.length(zone)}]")
            model.truncate(zone, wp)
            r.verify_zone(zone, min(start, wp))


WORKLOADS: Dict[str, Callable[[Round], None]] = {
    "fill_stream": _fill_stream,
    "sync_mixed": _sync_mixed,
    "degraded_rebuild": _degraded_rebuild,
    "crash_mount": _crash_mount,
}


def _epilogue(r: Round) -> None:
    """Bring every workload through a mount and a repair, then verify.

    A workload that did not mount in its window is power-cycled (after a
    flush, so nothing may be lost) and mounted ``scale.remounts`` + 1
    times, each mount checked to recover every zone whole.  The first
    mount checkpoints the workload's metadata log and costs about three
    times a later one; it is not recorded, because at one sample in 81
    it would sit just beyond the 95th percentile and make that flicker
    between the two kinds of mount.  A workload that did not rebuild
    has device 1 failed and rebuilt onto the spare.  So the recovery
    metrics exist for every workload.  Last, every zone the workload
    wrote is read back in full and compared with the model.
    """
    r.volume.execute(Bio.flush())
    if not r.mount_host_ms:
        for remount in range(r.scale.remounts + 1):
            gc.collect()  # as in crash_mount
            power_cycle(r.devices, random.Random(remount))
            r.mount(record=remount > 0)
            for zone in r.zones:
                wp = r.volume.zone_info(zone).write_pointer
                r.check(wp - zone * r.zone_bytes == r.model.length(zone),
                        f"remount {remount} zone {zone}: lost data")
    if not r.repair_sim_s:
        r.volume.fail_device(FAILED_DEVICE)
        report = rebuild(r.sim, r.volume, FAILED_DEVICE, r.spare)
        r.repair_sim_s.append(report.duration)
    for zone in r.zones:
        r.verify_zone(zone)


# -- runs ----------------------------------------------------------------


@dataclasses.dataclass
class RoundResult:
    """What one round measured, without the array (freed on return)."""

    setup_s: float
    host_s: float
    ops: int
    failed: int
    errors: List[str]
    #: Simulated-outcome figures, identical in every round of a seed.
    sim: Dict[str, float]
    #: SHA-256 over ``sim``, the simulated clock, every public counter
    #: and the media contents of every device.
    digest: str
    mount_host_ms: List[float]
    layers: Optional[Dict] = None
    spans: Optional[Spans] = None


def _percentiles(samples: List[float], pcts) -> List[float]:
    stats = LatencyStats()
    for sample in samples:
        stats.add(sample)
    found = stats.percentiles(pcts)
    return [found[p] for p in pcts]


def run_round(workload: str, scale: Scale, seed: int, tracing: bool = False,
              profile=None, spans: Optional[Spans] = None) -> RoundResult:
    """Run one fresh-array round of ``workload``."""
    # The previous round's array is garbage (it holds reference cycles):
    # free it before allocating the next one.  Within the round cyclic
    # GC is off, as in the simulator's own harnesses, so no collection
    # lands inside a timed stretch.
    gc.collect()
    with simulation_gc():
        r = Round(scale, seed, tracing=tracing, profile=profile, spans=spans)
        try:
            WORKLOADS[workload](r)
            _epilogue(r)
        except CheckFailed as exc:
            r.errors.append(str(exc))
    r.errors.extend(r.model.mismatches)
    counters = r.counters

    def total(field: str) -> float:
        return sum(value for key, value in counters.items()
                   if key.startswith("device.") and key.endswith(field))

    md_bytes = sum(value for key, value in counters.items()
                   if key.endswith(".appended_bytes"))
    gc_cycles = sum(value for key, value in counters.items()
                    if key.endswith(".gc_cycles"))
    commands = sum(total(f".{field}") for field in
                   ("reads", "writes", "flushes", "zone_mgmt"))
    p50, p99 = _percentiles(r.latencies, [50, 99]) if r.latencies \
        else (0.0, 0.0)
    written = max(r.written_bytes, 1)
    sim = {
        "ops": r.ops,
        "user_bytes": r.user_bytes,
        "sim_mib_per_s": r.user_bytes / MiB / r.sim_s if r.sim_s else 0.0,
        "sim_lat_p50_us": p50 * 1e6,
        "sim_lat_p99_us": p99 * 1e6,
        "write_amp": total(".media_bytes_written") / written,
        "sim_repair_s": statistics.median(r.repair_sim_s)
        if r.repair_sim_s else 0.0,
        "sim_mount_ms_p50": statistics.median(r.mount_sim_ms)
        if r.mount_sim_ms else 0.0,
        "block.cmds_per_op": commands / max(r.ops, 1),
        "block.io_sim_s": total(".io_seconds"),
        "zns.zone_mgmt": total(".zone_mgmt"),
        "mdzone.bytes_per_user_byte": md_bytes / written,
        "mdzone.gc_cycles": gc_cycles,
        "rebuild.bytes": r.rebuild_bytes,
    }
    digest = hashlib.sha256()
    digest.update(repr((sorted(sim.items()), r.sim.now,
                        sorted(counters.items()))).encode())
    digest.update(array_state_fingerprint(r.devices).encode())
    return RoundResult(
        setup_s=r.setup_s, host_s=r.host_s, ops=r.ops, failed=r.failed,
        errors=r.errors, sim=sim, digest=digest.hexdigest(),
        mount_host_ms=r.mount_host_ms,
        layers=layer_table(profile) if profile is not None else None,
        spans=spans)


def _pct_change(new: float, base: float) -> float:
    return (new / base - 1.0) * 100.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: Scale = FULL_SCALE) -> dict:
    """Rounds of ``workload`` for ``seconds`` (at least ``MIN_ROUNDS``).

    Returns ``{"correct", "attempted", "failed", "metrics", "digest",
    "errors"}``; ``metrics`` maps each name to ``(value, unit)``, the
    end-to-end set untraced and the per-layer set with ``trace``.  A
    traced run alternates untraced rounds with rounds under the array's
    own span tracer, then profiles one round of each kind.
    """
    start = time.perf_counter()
    rounds: List[RoundResult] = []
    traced: List[RoundResult] = []
    while len(rounds) + len(traced) < MIN_ROUNDS or \
            time.perf_counter() - start < seconds:
        tracing = trace and len(rounds) > len(traced)
        (traced if tracing else rounds).append(
            run_round(workload, scale, seed, tracing=tracing))
    profiled = []
    if trace:
        profiled = [run_round(workload, scale, seed, tracing=tracing,
                              profile=cProfile.Profile(), spans=Spans())
                    for tracing in (False, True)]
    everything = rounds + traced + profiled
    errors = [error for result in everything for error in result.errors]
    digests = {result.digest for result in everything}
    if len(digests) > 1:
        errors.append(f"simulated outcome differs between rounds of seed "
                      f"{seed}: {sorted(digests)}")
    first = rounds[0]
    host_s = statistics.median(result.host_s for result in rounds)
    metrics: Dict[str, tuple] = {}
    if not trace:
        mounts = [ms for result in rounds for ms in result.mount_host_ms]
        mount_p50, mount_p95 = _percentiles(mounts, [50, 95])
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "host_mib_per_s": (first.sim["user_bytes"] / MiB / host_s,
                               "MiB/s"),
            "setup_s": (statistics.median(r.setup_s for r in everything),
                        "s"),
            "peak_rss_mib": (rss_kib / 1024, "MiB"),
            "sim_mib_per_s": (first.sim["sim_mib_per_s"], "MiB/s"),
            "sim_lat_p50_us": (first.sim["sim_lat_p50_us"], "us"),
            "sim_lat_p99_us": (first.sim["sim_lat_p99_us"], "us"),
            "write_amp": (first.sim["write_amp"], "ratio"),
            "sim_repair_s": (first.sim["sim_repair_s"], "s"),
            "mount_host_ms_p50": (mount_p50, "ms"),
            "mount_host_ms_p95": (mount_p95, "ms"),
            "sim_mount_ms_p50": (first.sim["sim_mount_ms_p50"], "ms"),
        }
    else:
        plain, with_tracer = profiled
        calls = sum(c for c, _ in plain.layers.values())
        for layer in LAYERS:
            layer_calls, self_s = plain.layers[layer]
            metrics[f"{layer}.calls"] = (layer_calls, "count")
            metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics["total.calls_per_op"] = (calls / first.ops, "count")
        for name, unit in (("block.cmds_per_op", "count"),
                           ("block.io_sim_s", "s"),
                           ("zns.zone_mgmt", "count"),
                           ("mdzone.bytes_per_user_byte", "ratio"),
                           ("mdzone.gc_cycles", "count"),
                           ("rebuild.bytes", "B")):
            metrics[name] = (first.sim[name], unit)
        traced_calls = sum(c for c, _ in with_tracer.layers.values())
        metrics["bench.trace_overhead_pct"] = (
            _pct_change(plain.host_s, host_s), "%")
        metrics["trace.extra_calls_pct"] = (
            _pct_change(traced_calls, calls), "%")
        metrics["trace.overhead_pct"] = (_pct_change(
            statistics.median(result.host_s for result in traced), host_s),
            "%")
        for name in SPAN_NAMES:
            metrics[f"span.{name}.self_s"] = (plain.spans.self_s[name], "s")
    failed = sum(result.failed for result in everything)
    return {
        "correct": not errors and failed == 0,
        "attempted": sum(result.ops for result in everything),
        "failed": failed,
        "metrics": metrics,
        "digest": first.digest,
        "errors": errors,
    }
