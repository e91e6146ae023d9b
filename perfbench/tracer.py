"""Spans around the engine's public functions, installed from outside it.

Each wrapper replaces a function where its caller looks it up:

* ``kernel.py`` binds ``dunkl_z`` by name, so the span goes on
  ``cherednik.kernel.dunkl_z``;
* ``cli.py`` binds ``compute_graded_kernel``, ``gram_oracle_kernel``,
  ``is_in_kernel``, ``is_stably_in_kernel`` and the series helpers, and
  ``stability.py`` binds ``is_in_kernel``;
* ``linalg`` functions are looked up as module attributes;
* ``strip_row``, ``compute_degree``, ``lookup`` and ``store`` are methods.

A span is (id, parent id, operation label, name, start, end, outermost,
info).  Spans stay in memory until ``write`` at the end of the pass.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
from collections import defaultdict
from time import perf_counter

from cherednik import cache, cli, kernel, linalg, stability

SERIES_HELPERS = (
    "computed_hilbert",
    "conjectured_hilbert",
    "compare",
    "baby_verma_series",
    "shape_check_t1",
)

# A dunkl_z span is charged to the layer of its direct parent.
DUNKL_BY_PARENT = {
    "kernel.compute_degree": "dunkl.dunkl_z.columns_s",
    "kernel.gram_oracle_kernel": "dunkl.dunkl_z.oracle_s",
    "kernel.is_in_kernel": "dunkl.dunkl_z.membership_s",
}


def _echelon_info(args, result):
    """(stacked rows in, rank, largest c-degree of an output entry)."""
    adapter, rows = args[0], args[1]
    pivot_rows, pivot_cols = result
    cdeg = 0
    if adapter.is_generic:
        deg, zero = adapter.ring.deg, adapter.zero
        cdeg = max((deg(v) for row in pivot_rows for v in row if v != zero), default=0)
    return len(rows), len(pivot_cols), cdeg


def _targets():
    """(owners that bind the function, attribute, span name, info function)."""
    out = [
        ((kernel,), "dunkl_z", "dunkl.dunkl_z", lambda a, r: len(r.terms)),
        (
            (kernel.GradedKernel,),
            "compute_degree",
            "kernel.compute_degree",
            lambda a, r: (a[1], r.dim_m, r.dim_l),
        ),
        ((kernel, cli), "compute_graded_kernel", "kernel.compute_graded_kernel", None),
        ((kernel, cli), "gram_oracle_kernel", "kernel.gram_oracle_kernel", None),
        ((kernel, stability, cli), "is_in_kernel", "kernel.is_in_kernel", None),
        ((stability, cli), "is_stably_in_kernel", "stability.is_stably_in_kernel", None),
        ((linalg,), "echelon", "linalg.echelon", _echelon_info),
        ((linalg,), "rref_scalar_rows", "linalg.rref_scalar_rows", None),
        ((linalg,), "compose_rows_columns", "linalg.compose_rows_columns", None),
        ((linalg,), "kernel_from_rref", "linalg.kernel_from_rref", None),
        ((linalg.RingAdapter,), "strip_row", "linalg.strip_row", None),
        ((cli,), "main", "cli.main", None),
        ((cli,), "export_kernel_json", "cli.export_kernel_json", None),
        ((cache.RunCache,), "lookup", "cache.lookup", None),
        ((cache.RunCache,), "store", "cache.store", None),
    ]
    out += [((cli,), name, f"series.{name}", None) for name in SERIES_HELPERS]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op: str | None = None
        self._stack = [0]
        self._active: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)

    def install(self) -> None:
        """Replace every target, in every module that binds it, by one wrapper."""
        for owners, attr, name, info in _targets():
            original = getattr(owners[0], attr)
            for owner in owners[1:]:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
            wrapper = self._wrap(name, original, info)
            for owner in owners:
                setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, info):
        spans, stack, active, ids = self.spans, self._stack, self._active, self._ids
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            outer = not active[name]
            active[name] += 1
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                extra = None if info is None or result is None else info(args, result)
                spans.append((sid, parent, tracer.op, name, start, end, outer, extra))

        return traced

    def summary(self) -> tuple[dict, list]:
        """(layer metrics by name, one row per compute_degree span)."""
        child_time: dict[int, float] = defaultdict(float)
        children: dict[int, list] = defaultdict(list)
        names = {}
        for span in self.spans:
            sid, parent, _, name, start, end = span[:6]
            child_time[parent] += end - start
            children[parent].append(span)
            names[sid] = name
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        by_parent: dict[str, float] = defaultdict(float)
        rows_in = rank = cdeg_max = terms_out = 0
        for sid, parent, _, name, start, end, outer, info in self.spans:
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child_time[sid]
            if outer:
                incl[name] += dur
            if name == "dunkl.dunkl_z":
                metric = DUNKL_BY_PARENT.get(names.get(parent))
                if metric:
                    by_parent[metric] += dur
                terms_out += info or 0
            elif name == "linalg.echelon" and info:
                rows_in += info[0]
                rank += info[1]
                cdeg_max = max(cdeg_max, info[2])
        metrics = {
            "linalg.echelon.s": incl["linalg.echelon"],
            "linalg.strip_row.s": incl["linalg.strip_row"],
            "linalg.strip_row.calls": calls["linalg.strip_row"],
            "linalg.echelon.rows_in": rows_in,
            "linalg.echelon.rank": rank,
            "linalg.echelon.useful_ratio": rank / rows_in if rows_in else 0.0,
            "linalg.entry_cdeg_max": cdeg_max,
            "linalg.rref_scalar_rows.s": incl["linalg.rref_scalar_rows"],
            "linalg.compose_rows_columns.s": incl["linalg.compose_rows_columns"],
            "linalg.kernel_from_rref.s": incl["linalg.kernel_from_rref"],
            "dunkl.dunkl_z.s": incl["dunkl.dunkl_z"],
            "dunkl.dunkl_z.calls": calls["dunkl.dunkl_z"],
            "dunkl.dunkl_z.terms_out": terms_out,
            **{m: by_parent[m] for m in DUNKL_BY_PARENT.values()},
            "kernel.compute_graded_kernel.calls": calls["kernel.compute_graded_kernel"],
            "kernel.compute_degree.calls": calls["kernel.compute_degree"],
            "kernel.compute_degree.self_s": self_s["kernel.compute_degree"],
            "kernel.gram_oracle_kernel.s": incl["kernel.gram_oracle_kernel"],
            "kernel.gram_oracle_kernel.self_s": self_s["kernel.gram_oracle_kernel"],
            "kernel.is_in_kernel.calls": calls["kernel.is_in_kernel"],
            "kernel.is_in_kernel.self_s": self_s["kernel.is_in_kernel"],
            "stability.is_stably_in_kernel.s": incl["stability.is_stably_in_kernel"],
            "stability.is_stably_in_kernel.self_s": self_s["stability.is_stably_in_kernel"],
            "cli.main.self_s": self_s["cli.main"],
            "cli.export_kernel_json.s": incl["cli.export_kernel_json"],
            "cache.lookup.s": incl["cache.lookup"],
            "cache.store.s": incl["cache.store"],
            "series.s": sum(incl[f"series.{h}"] for h in SERIES_HELPERS),
        }
        return metrics, self._per_degree(children, child_time)

    def _per_degree(self, children, child_time) -> list:
        rows = []
        for span in self.spans:
            sid, _, op, name, start, end, _, info = span
            if name != "kernel.compute_degree" or info is None:
                continue
            seconds: dict[str, float] = defaultdict(float)
            seconds[name] = end - start - child_time[sid]
            stacked = rank = cdeg = 0
            todo = list(children[sid])
            while todo:
                csid, _, _, cname, cstart, cend, _, cinfo = todo.pop()
                if cname == "kernel.compute_degree":
                    continue  # a nested degree reports its own row
                seconds[cname] += cend - cstart - child_time[csid]
                if cname == "linalg.echelon" and cinfo:
                    stacked += cinfo[0]
                    rank += cinfo[1]
                    cdeg = max(cdeg, cinfo[2])
                todo.extend(children[csid])
            degree, dim_m, dim_l = info
            rows.append(
                {
                    "op": op,
                    "degree": degree,
                    "M": dim_m,
                    "L": dim_l,
                    "stacked_rows": stacked,
                    "rank": rank,
                    "entry_cdeg_max": cdeg,
                    "self_s_by_layer": dict(seconds),
                }
            )
        return rows

    def write(self, path, meta: dict) -> None:
        """All spans as gzipped JSON lines, after one line of run metadata."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
