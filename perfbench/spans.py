"""Outside-in tracing of pcaforge's layers.

The benchmark wraps the public functions of each layer module at run time and
patches every name through which a caller reaches them: the module attribute
itself, names bound by ``from .x import y`` in other modules (``construct``
looks up ``first_defect`` and ``orbits`` in its own globals), and module-level
tables of functions such as ``cli._ALGORITHMS``.  Nothing under ``src/`` is
edited; ``uninstall`` restores every patched name.

Spans are kept in memory as ``[op, name, start, end, parent]`` and written out
when the run ends.  Counters are recorded at the same boundaries by per-function
hooks.  Time spent recounting early-exit scans is recorded as ``trace.recount``
spans so that it can be removed from every layer and from the op's time.

Every figure is per traced op.  Which end-to-end metric each should move, and
where:

* ``coverage.*`` (t-sets scanned, scan self time, ns per t-set row) move
  ``op_p50_s`` and ``ops_per_s`` on mt-resample and verify-file and stay flat
  on derand; ``coverage.verify_s`` (predicates and the CLI's own scans) moves
  ``op_p50_s`` on verify-file.
* ``construct.tsets_per_resample`` moves ``op_p50_s`` on mt-resample only;
  ``construct.derand_s``, ``derand_candidates`` and ``derand_refusals`` move
  ``op_p50_s`` and ``rows_over_bound`` on derand.
* ``galois.*`` moves ``op_p50_s`` on develop, and ``setup_s`` and
  ``peak_rss_mb`` too if orbit tables are precomputed or cached.
* ``artifact_io.read_*`` moves ``op_p50_s`` on verify-file, ``write_*`` on
  develop.
* ``bounds.*`` should move nothing.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import checks

PACKAGE = "pcaforge"
LAYERS = ("coverage", "construct", "galois", "artifact_io", "bounds", "cli")
RECOUNT = "trace.recount"
MT_BUILDER = "construct.build_pca_moser_tardos"
# Coverage entry points whose span is a check of finished output rather than
# a step of a builder's search.
PREDICATES = {"coverage.is_pca", "coverage.is_apca", "coverage.completeness"}
UNITS = {
    "coverage.tsets_scanned": "count",
    "coverage.scan_self_s": "s",
    "coverage.ns_per_tset_row": "ns",
    "coverage.verify_s": "s",
    "construct.resamples": "count",
    "construct.restarts": "count",
    "construct.tsets_per_resample": "count",
    "construct.self_s": "s",
    "construct.derand_s": "s",
    "construct.derand_candidates": "count",
    "galois.orbits_s": "s",
    "galois.orbit_table_entries": "count",
    "galois.develop_s": "s",
    "galois.developed_rows": "count",
    "artifact_io.read_s": "s",
    "artifact_io.read_ns_per_symbol": "ns",
    "artifact_io.write_s": "s",
    "artifact_io.write_ns_per_symbol": "ns",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "cli.self_s": "s",
}


def lex_rank(tset: tuple[int, ...], k: int) -> int:
    """Position of ``tset`` in ``itertools.combinations(range(k), t)``."""
    t = len(tset)
    rank, prev = 0, -1
    for i, c in enumerate(tset):
        for j in range(prev + 1, c):
            rank += math.comb(k - 1 - j, t - 1 - i)
        prev = c
    return rank


class Tracer:
    """Wraps the layers of the imported ``pcaforge`` package."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.op: int | None = None
        # id of each original function -> its wrapper; the wrapper keeps the
        # original alive, so the id cannot be reused while the tracer exists.
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[dict, str, object]] = []
        self._hooks = {
            "coverage.coverage_profile": self._hook_profile,
            "coverage.orbit_coverage": self._hook_profile,
            "coverage.first_defect": self._hook_first_defect,
            "coverage.count_defects": self._hook_count_defects,
            "coverage.count_orbit_defects": self._hook_count_defects,
            "construct.build_pca_moser_tardos": self._hook_resamples,
            "construct.build_apca_randomized": self._hook_restarts,
            "construct.build_apca_cyclic": self._hook_restarts,
            "construct.build_apca_frobenius": self._hook_restarts,
            "construct.derandomize_columns": self._hook_derandomize,
            "galois.orbits": self._hook_orbits,
            "galois.develop": self._hook_develop,
            "artifact_io.read_array": self._hook_read,
            "artifact_io.write_array": self._hook_write,
        }
        for module_name in LAYERS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == module.__name__:
                    self._wrappers[id(fn)] = self._wrap(f"{module_name}.{name}", fn)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Replace every reference to a wrapped function inside the package:
        module globals and the values of module-level dicts."""
        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] != PACKAGE:
                continue
            namespace = vars(module)
            tables = [value for value in namespace.values() if isinstance(value, dict)]
            for container in [namespace, *tables]:
                for key, value in list(container.items()):
                    wrapper = self._wrappers.get(id(value))
                    if wrapper is not None:
                        self._patches.append((container, key, value))
                        container[key] = wrapper

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def _wrap(self, label: str, fn):
        hook = self._hooks.get(label)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _open(self, label: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.op, label, perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][3] = perf_counter()

    # -- counter hooks ---------------------------------------------------------

    def _scanned(self, n_tsets: int, n_rows: int) -> None:
        self.counters["tsets"] += n_tsets
        self.counters["tset_rows"] += n_tsets * n_rows
        if any(self.spans[i][1] == MT_BUILDER for i in self.stack):
            self.counters["mt_tsets"] += n_tsets

    def _hook_profile(self, args, result) -> None:
        a = args["a"]
        self._scanned(math.comb(a.cols, args["t"]), a.rows)

    def _hook_first_defect(self, args, result) -> None:
        cells, t = args["cells"], args["t"]
        k = cells.shape[1]
        n = math.comb(k, t) if result is None else lex_rank(tuple(result.tset), k) + 1
        self._scanned(n, cells.shape[0])

    def _hook_count_defects(self, args, result) -> None:
        """Exact t-sets scanned by a ``stop_above`` scan.

        A scan that stopped early is recounted here, in the traced run only,
        and the recount is kept out of every layer's time.
        """
        cells, t = args["cells"], args["t"]
        n = math.comb(cells.shape[1], t)
        stop_above = args.get("stop_above")
        if stop_above is not None and result > stop_above:
            idx = self._open(RECOUNT)
            try:
                structure = args.get("structure")
                if structure is None:
                    counts = checks.class_counts(cells, args["v"], t)
                    required = args["m"]
                else:
                    counts = checks.class_counts(
                        cells, args["v"], t, structure.orbit_index,
                        structure.n_orbits, args.get("exclude_orbit"),
                    )
                    required = args["required"]
                n = int(np.flatnonzero(counts < required)[stop_above]) + 1
            finally:
                self._close(idx)
        self._scanned(n, cells.shape[0])

    def _hook_resamples(self, args, result) -> None:
        self.counters["resamples"] += result.iterations

    def _hook_restarts(self, args, result) -> None:
        self.counters["restarts"] += result.iterations - 1  # attempts after the first

    def _hook_derandomize(self, args, result) -> None:
        self.counters["derand_candidates"] += args["k"] * args["v"] ** args["n_rows"]

    def _hook_orbits(self, args, result) -> None:
        self.counters["orbit_table_entries"] += args["v"] ** args["t"] * args["action"].order

    def _hook_develop(self, args, result) -> None:
        self.counters["developed_rows"] += result.rows

    def _hook_read(self, args, result) -> None:
        array = result[0]
        self.counters["read_symbols"] += array.rows * array.cols

    def _hook_write(self, args, result) -> None:
        a = args["a"]
        self.counters["write_symbols"] += a.rows * a.cols

    # -- reduction ---------------------------------------------------------------

    def op_seconds(self, op: int) -> float:
        """Duration of the op's root spans minus the recounts inside them."""
        total = 0.0
        for span_op, label, start, end, parent in self.spans:
            if span_op != op:
                continue
            if parent == -1:
                total += end - start
            elif label == RECOUNT:
                total -= end - start
        return total

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op layer figures over every traced op."""
        self_time: defaultdict[str, float] = defaultdict(float)
        by_name: defaultdict[str, float] = defaultdict(float)
        verify_s = 0.0
        bounds_calls = 0
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[4]
            if parent != -1:
                child_time[parent] += span[3] - span[2]
        for i, (_, label, start, end, parent) in enumerate(spans):
            layer = label.split(".", 1)[0]
            duration = end - start
            self_time[layer] += duration - child_time[i]
            by_name[label] += duration
            parent_label = spans[parent][1] if parent != -1 else ""
            parent_layer = parent_label.split(".", 1)[0]
            if layer == "coverage" and parent_layer != "coverage":
                if label in PREDICATES or parent_layer == "cli":
                    verify_s += duration
            if layer == "bounds" and parent_layer != "bounds":
                bounds_calls += 1
        c = self.counters
        ops = max(n_ops, 1)

        def per_symbol(seconds: float, symbols: int) -> float:
            return seconds / symbols * 1e9 if symbols else 0.0

        return {
            "coverage.tsets_scanned": c["tsets"] / ops,
            "coverage.scan_self_s": self_time["coverage"] / ops,
            "coverage.ns_per_tset_row": per_symbol(self_time["coverage"], c["tset_rows"]),
            "coverage.verify_s": verify_s / ops,
            "construct.resamples": c["resamples"] / ops,
            "construct.restarts": c["restarts"] / ops,
            "construct.tsets_per_resample": (
                c["mt_tsets"] / c["resamples"] if c["resamples"] else 0.0
            ),
            "construct.self_s": self_time["construct"] / ops,
            "construct.derand_s": by_name["construct.derandomize_columns"] / ops,
            "construct.derand_candidates": c["derand_candidates"] / ops,
            "galois.orbits_s": by_name["galois.orbits"] / ops,
            "galois.orbit_table_entries": c["orbit_table_entries"] / ops,
            "galois.develop_s": by_name["galois.develop"] / ops,
            "galois.developed_rows": c["developed_rows"] / ops,
            "artifact_io.read_s": by_name["artifact_io.read_array"] / ops,
            "artifact_io.read_ns_per_symbol": per_symbol(
                by_name["artifact_io.read_array"], c["read_symbols"]
            ),
            "artifact_io.write_s": by_name["artifact_io.write_array"] / ops,
            "artifact_io.write_ns_per_symbol": per_symbol(
                by_name["artifact_io.write_array"], c["write_symbols"]
            ),
            "bounds.calls": bounds_calls / ops,
            "bounds.self_s": self_time["bounds"] / ops,
            "cli.self_s": self_time["cli"] / ops,
        }
