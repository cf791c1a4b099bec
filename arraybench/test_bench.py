"""Tests of the array benchmark itself, on a small array.

Run from the repository root::

    python3 -m pytest arraybench
"""

import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import bench  # noqa: E402
from repro.block.bio import Op  # noqa: E402

#: 17 data zones of 1 MiB: room for degraded_rebuild's 16, and little
#: enough work that a run takes well under a second.
SMALL = bench.Scale(num_zones=20, zone_capacity=256 * 1024, fill_passes=2,
                    sync_ops=512, degraded_ops=256, crash_cycles=3,
                    remounts=3)

SIM_METRICS = ("sim_mib_per_s", "sim_lat_p50_us", "sim_lat_p99_us",
               "write_amp", "sim_repair_s", "sim_mount_ms_p50")


def _run(workload, seed, trace=False):
    return bench.run(workload, seed, seconds=0, trace=trace, scale=SMALL)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_same_seed_gives_identical_simulated_outcome(workload):
    first, second = _run(workload, 5), _run(workload, 5)
    assert first["correct"] and second["correct"], first["errors"]
    assert first["digest"] == second["digest"]
    for name in SIM_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    traced = [_run(workload, 5, trace=True) for _ in range(2)]
    calls = [{name: value for name, value in run["metrics"].items()
              if name.endswith(".calls")} for run in traced]
    assert len(calls[0]) == len(bench.LAYERS)
    assert calls[0] == calls[1]


def test_outcome_does_not_depend_on_the_interpreter_hash_seed():
    code = ("import sys; sys.path[:0] = ['arraybench', 'src']; import bench, "
            "test_bench; print(bench.run_round('crash_mount', "
            "test_bench.SMALL, 5).digest)")
    digests = {
        subprocess.run([sys.executable, "-c", code], cwd=_ROOT, check=True,
                       capture_output=True, text=True,
                       env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
                       timeout=120).stdout.strip()
        for hash_seed in (1, 2)}
    assert len(digests) == 1
    assert digests == {bench.run_round("crash_mount", SMALL, 5).digest}


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_corrupted_expected_byte_fails_the_check(workload, monkeypatch):
    submit = bench.ZoneModel.on_submit

    def corrupting_submit(model, bio):
        submit(model, bio)
        if bio.op is Op.WRITE and bio.offset == 0:
            data = bytearray(model.chunks[0][-1])
            data[-1] ^= 0xFF
            model.chunks[0][-1] = bytes(data)

    monkeypatch.setattr(bench.ZoneModel, "on_submit", corrupting_submit)
    result = _run(workload, 5)
    assert not result["correct"]
    assert any("differ" in error or "wrong data" in error
               for error in result["errors"])


def test_differing_digest_fails_the_check(monkeypatch):
    fingerprint = bench.array_state_fingerprint
    calls = []

    def drifting_fingerprint(devices):
        calls.append(None)
        return fingerprint(devices) + ("x" if len(calls) == 3 else "")

    monkeypatch.setattr(bench, "array_state_fingerprint",
                        drifting_fingerprint)
    result = _run("fill_stream", 5)
    assert not result["correct"]
    assert any("differs between rounds" in error
               for error in result["errors"])


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_other_seed_changes_the_inputs_and_passes(workload):
    one, other = _run(workload, 5), _run(workload, 6)
    assert one["correct"] and other["correct"], other["errors"]
    assert one["digest"] != other["digest"]


def test_traced_runs_bear_out_the_layer_predictions():
    layers = {workload: _run(workload, 5, trace=True)["metrics"]
              for workload in bench.WORKLOADS}
    # Full-stripe writes log no partial parity: fill_stream's metadata
    # is its zone-reset records, a few percent of the data at this scale.
    assert layers["fill_stream"]["mdzone.bytes_per_user_byte"][0] < 0.05
    assert layers["sync_mixed"]["mdzone.bytes_per_user_byte"][0] > 1
    for workload, metrics in layers.items():
        assert (metrics["recovery.calls"][0] > 0) == \
            (workload == "crash_mount"), workload
        assert (metrics["rebuild.bytes"][0] > 0) == \
            (workload == "degraded_rebuild"), workload

