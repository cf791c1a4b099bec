"""Run one workload of the array benchmark and print its metrics.

Usage, from the repository root::

    python3 arraybench/run.py --workload fill_stream --seed 1 \
        --seconds 20 --trace 0

Prints one ``name value unit`` line per metric, then, as the last line,
``{"correct", "attempted", "failed", "metrics"}`` as JSON.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer table.
Exits non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import bench  # noqa: E402  (needs the source tree on the path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = bench.run(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(f"digest {result['digest']}")
    for error in result["errors"]:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
