"""Per-layer host cost of one benchmark window: cProfile rows grouped by
source module, plus host-time spans around the public calls the
benchmark makes.

Both are recorded only in a traced run; an untraced run pays nothing for
them (:meth:`Spans.wrap` is never called on its submit path).
"""

from __future__ import annotations

import inspect
import os
import pstats
import re
import time
from typing import Callable, Dict, List, Tuple

#: Layer of each ``repro`` module, keyed by its path below ``repro/``
#: without ``.py``; a package entry (``sim``) covers all its modules.
MODULE_LAYERS = {
    "sim": "engine",
    "block": "block",
    "zns": "zns",
    "raizn/volume": "volume",
    "raizn/address": "volume",
    "raizn/zonedesc": "volume",
    "raizn/relocation": "volume",
    "raizn/mdzone": "mdzone",
    "raizn/metadata": "mdzone",
    "raizn/parity": "parity",
    "raizn/stripebuf": "stripebuf",
    "raizn/recovery": "recovery",
    "raizn/rebuild": "rebuild",
    "raizn/maintenance": "rebuild",
    "trace": "trace",
}

#: Every layer the table reports, in report order.  ``native`` is C
#: builtins and numpy, ``bench`` this directory's own code, ``other``
#: the standard library's Python modules and ``repro`` modules outside
#: the named layers (faults, units, errors, config).
LAYERS = ("engine", "block", "zns", "volume", "mdzone", "parity",
          "stripebuf", "recovery", "rebuild", "trace", "native", "bench",
          "other")

SPAN_NAMES = ("submit", "sim_run", "mount", "rebuild_process")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MODULE = re.compile(r"[/\\]repro[/\\](.+)\.py$")


def layer_of(filename: str) -> str:
    """The layer a profiled function belongs to, from its source file."""
    if filename == "~" or f"{os.sep}numpy{os.sep}" in filename:
        return "native"
    if os.path.dirname(os.path.abspath(filename)) == _BENCH_DIR:
        return "bench"
    match = _REPRO_MODULE.search(filename)
    if match:
        module = match.group(1).replace("\\", "/")
        return MODULE_LAYERS.get(module) or \
            MODULE_LAYERS.get(module.split("/")[0], "other")
    return "other"


def layer_table(profile) -> Dict[str, Tuple[int, float]]:
    """``{layer: (calls, self seconds)}`` from a ``cProfile.Profile``."""
    table = {layer: [0, 0.0] for layer in LAYERS}
    for (filename, _line, _name), row in pstats.Stats(profile).stats.items():
        calls, self_s = row[1], row[2]
        entry = table[layer_of(filename)]
        entry[0] += calls
        entry[1] += self_s
    return {layer: (calls, self_s) for layer, (calls, self_s) in table.items()}


class Spans:
    """Host-time spans, kept in memory as self time per name: a span's
    duration minus the time of the spans it encloses (a ``submit``
    issued from a completion callback runs inside ``sim_run``)."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
        #: Enclosed-span seconds of each open span, innermost last.
        self._children: List[float] = []

    def _close(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        enclosed = self._children.pop()
        self.self_s[name] += elapsed - enclosed
        if self._children:
            self._children[-1] += elapsed

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as one ``name`` span; a
        generator function's process instead has every resumption
        recorded (the host time the process itself runs, not its
        simulated lifetime)."""
        if inspect.isgeneratorfunction(fn):
            return lambda *args, **kwargs: self._process(
                name, fn(*args, **kwargs))

        def spanned(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start)

        return spanned

    def _process(self, name: str, gen):
        send, throw = gen.send, gen.throw
        value, error = None, None
        while True:
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                waited = send(value) if error is None else throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close(name, start)
            try:
                value, error = (yield waited), None
            except Exception as exc:  # delivered into the process
                value, error = None, exc
