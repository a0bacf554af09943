"""Span tracing of the moranspec layers, installed only for the traced run.

``Tracer.install`` replaces each layer's public boundary functions with a
wrapper in every ``moranspec`` module namespace that binds them, so calls
across modules (``spectra`` calls ``mu_hat_many`` and ``is_admissible`` by
their imported names) are recorded too.  Per-element helpers such as
``mask_zero_contains`` and the cached ``cyclotomic_polynomial`` stay
unwrapped: a wrapper would cost more than they do.

Spans live in typed arrays until the run ends.  The self time of a span is
its duration minus the durations of its direct child spans, so every ``*_s``
metric below is time spent in that function and not in a wrapped callee.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

import moranspec
from moranspec import (classifier, cli, exactmath, hadamard, measure, oracle,
                       spectra, tiling)

MODULES = (moranspec, classifier, cli, exactmath, hadamard, measure, oracle, spectra, tiling)

# layer -> boundary functions of that layer's module
BOUNDARIES = {
    "cli": ("main",),
    "measure": ("truncate", "mu_hat_many", "mu_hat_eval", "zero_set_contains"),
    "spectra": ("build_tower_spectrum", "verify_spectrum_finite", "weighted_matrix_residual",
                "q_function"),
    "hadamard": ("is_admissible", "canonical_dual_digits", "is_compatible_pair"),
    "exactmath": ("root_sum_is_zero",),
    "classifier": ("validate_config", "decide_spectrality", "necessity_violations",
                   "two_stage_decide", "integral_zero_set_status", "integral_zero_set_probe"),
    "tiling": ("tile_decide", "two_stage_support", "tiles_by_periodic_set"),
    "oracle": ("search_compatible_partners",),
}

ROOT = "bench.op"


def _distinct_differences(points) -> int:
    """Number of distinct |a - b| over pairs of points, as verify builds them."""
    if all(p.denominator == 1 for p in points) and max(abs(p) for p in points) < 2**61:
        arr = np.array([int(p) for p in points], dtype=np.int64)
        upper = np.triu_indices(len(arr), k=1)
        return int(np.unique(np.abs(arr[upper[1]] - arr[upper[0]])).size)
    return len({abs(a - b) for i, a in enumerate(points) for b in points[i + 1:]})


def _count_truncate(counts, args, kwargs, result):
    counts["atoms"] += len(result.atoms)


def _count_tower(counts, args, kwargs, result):
    counts["points"] += len(result.points)


def _count_verify(counts, args, kwargs, result):
    pts = args[1].points
    counts["pairs"] += len(pts) * (len(pts) - 1) // 2
    counts["distinct"] += _distinct_differences(pts)


def _count_mu_hat(counts, args, kwargs, result):
    xs = args[2] if len(args) > 2 else kwargs["xs"]
    depth = args[3] if len(args) > 3 else kwargs["depth"]
    counts["stage_evals"] += int(np.size(xs)) * depth


def _count_partners(counts, args, kwargs, result):
    counts["partner_sets"] += len(result)


# Counts are taken after the span closes, so their cost lands in the caller.
COUNTERS = {
    "measure.truncate": _count_truncate,
    "spectra.build_tower_spectrum": _count_tower,
    "spectra.verify_spectrum_finite": _count_verify,
    "measure.mu_hat_many": _count_mu_hat,
    "oracle.search_compatible_partners": _count_partners,
}


class Tracer:
    def __init__(self) -> None:
        self.names = [ROOT] + [f"{layer}.{fn}" for layer, fns in BOUNDARIES.items() for fn in fns]
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.op_index = -1
        self.counts = dict.fromkeys(("atoms", "points", "pairs", "distinct", "stage_evals",
                                     "partner_sets"), 0)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, counter):
        name_ids, parents, ops, starts, ends = (self.name_ids, self.parents, self.ops,
                                                self.starts, self.ends)
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op_index)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for layer, fns in BOUNDARIES.items():
            home = getattr(moranspec, layer)
            for fn in fns:
                name = f"{layer}.{fn}"
                original = getattr(home, fn)
                wrapper = self._wrap(self.names.index(name), original, COUNTERS.get(name))
                for module in MODULES:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def root(self, index: int, run):
        """Run one benchmark operation under a root span tagged with its index."""
        self.op_index = index
        return self._root_wrapper(run)

    @functools.cached_property
    def _root_wrapper(self):
        return self._wrap(0, lambda run: run(), None)

    def _columns(self):
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        return names, parents, np.frombuffer(self.ends) - np.frombuffer(self.starts)

    def metrics(self) -> dict[str, float]:
        names, parents, dur = self._columns()
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = np.bincount(names, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        by = {name: (float(self_time[i]), int(calls[i])) for i, name in enumerate(self.names)}

        def self_s(*names):
            return sum(by[nm][0] for nm in names)

        def layer(prefix):
            names_in = [nm for nm in self.names if nm.startswith(prefix + ".")]
            return self_s(*names_in), sum(by[nm][1] for nm in names_in)

        c = self.counts
        out = {}
        out["cli.self_s"], out["cli.calls"] = layer("cli")
        out["measure.truncate_s"] = self_s("measure.truncate")
        out["measure.atoms"] = c["atoms"]
        out["measure.mu_hat_s"] = self_s("measure.mu_hat_many", "measure.mu_hat_eval")
        out["measure.mu_hat_calls"] = by["measure.mu_hat_many"][1]
        out["measure.mu_hat_stage_evals"] = c["stage_evals"]
        out["measure.zero_scan_s"], out["measure.zero_scan_calls"] = by["measure.zero_set_contains"]
        out["spectra.tower_s"] = self_s("spectra.build_tower_spectrum")
        out["spectra.tower_points"] = c["points"]
        out["spectra.orthogonality_s"] = self_s("spectra.verify_spectrum_finite")
        out["spectra.residual_s"] = self_s("spectra.weighted_matrix_residual")
        out["spectra.pairs"] = c["pairs"]
        out["spectra.distinct_diff_ratio"] = c["distinct"] / c["pairs"] if c["pairs"] else 0.0
        out["spectra.q_s"], out["spectra.q_calls"] = by["spectra.q_function"]
        out["hadamard.self_s"], out["hadamard.calls"] = layer("hadamard")
        out["exactmath.root_sum_s"], out["exactmath.root_sum_calls"] = by["exactmath.root_sum_is_zero"]
        out["classifier.self_s"], out["classifier.calls"] = layer("classifier")
        out["tiling.self_s"], out["tiling.calls"] = layer("tiling")
        out["oracle.search_s"], out["oracle.search_calls"] = by["oracle.search_compatible_partners"]
        out["oracle.partner_sets"] = c["partner_sets"]
        return out

    def op_seconds(self) -> float:
        """Summed wall time of the root spans, i.e. of the traced operations."""
        names, _, dur = self._columns()
        return float(dur[names == 0].sum())

    def write(self, path: Path) -> None:
        """Save every span (name, parent, op index, start, end) for later inspection."""
        np.savez_compressed(path, names=np.array(self.names), name_id=np.array(self.name_ids),
                            parent=np.array(self.parents), op=np.array(self.ops),
                            start=np.array(self.starts), end=np.array(self.ends))
