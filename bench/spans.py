"""Spans recorded around calls into the package's layers.

A traced pass replaces each traced function at every module binding that
refers to it (the package imports by name, so `graded.cokernel`,
`cox.cokernel`, ... are separate bindings of `intlinalg.cokernel`) with a
wrapper that records a span: name, start, end, parent span and op id.
Classes such as `fan.Cone` are never replaced.  Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# module -> functions wrapped in a traced pass: every function a per-layer
# metric names, plus the ops' own entry points.
TRACED = {
    "intlinalg": ("cokernel", "hnf", "kernel_basis", "solve_in_span"),
    "graded": ("graded_piece", "is_iso_up_to", "induced_map",
               "certify_well_defined"),
    "fan": ("validate_fan", "primitive_collections", "star_subdivision",
            "star_quotient_fan", "is_refinement", "orbit_relation_data"),
    "cox": ("cox",),
    "chow": ("exceptional_comparison", "verify_vanishing", "chow_groups"),
    "ktheory": ("k_ring_stack", "boxed_quotient", "window_lattice",
                "verify_k_vanishing"),
    "cli": ("run",),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in the recorder's list
    op: int
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _matrix_extra(m) -> dict:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    bits = max((abs(x).bit_length() for row in m for x in row), default=0)
    return {"rows": rows, "cols": cols, "bits": bits}


class Recorder:
    """Span store plus the stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = {}
            if name == "intlinalg.cokernel":
                extra = _matrix_extra(args[0])
            elif name == "cli.run":
                extra = {"verb": list(args[0])[0]}
            misses = cache_info().misses if cache_info else 0
            idx = len(spans)
            spans.append(Span(name, perf_counter(), 0.0,
                              stack[-1] if stack else None, self.op, extra))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = perf_counter()
            if cache_info:
                extra["miss"] = cache_info().misses - misses
            if name == "ktheory.boxed_quotient":
                extra["box_monomials"] = len(result.monomials)
                extra["relation_columns"] = len(result.relation_columns)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, mods: dict):
        """Wrap every TRACED function at each module binding of it, and
        put the originals back on exit."""
        patched = []
        for mod_name, fn_names in TRACED.items():
            for fn_name in fn_names:
                original = getattr(mods[mod_name], fn_name)
                wrapper = self.wrap("%s.%s" % (mod_name, fn_name), original)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.name, s.start, s.end, s.parent, s.op, s.extra]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, fields=["name", "start", "end", "parent",
                                           "op", "extra"], spans=rows), fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.
    Children of one span run one after another, so that part is the sum of
    their durations."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def _outermost(spans: list[Span]) -> list[bool]:
    """True for a span with no ancestor of the same name, so that totals
    never count a recursive call twice."""
    out = []
    for s in spans:
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        out.append(p is None)
    return out


def layer_stats(spans: list[Span]) -> dict:
    """Per-function stats over a list of spans: calls, total_s (outermost
    spans only), self_s, and the extra counters the wrappers recorded."""
    selfs = self_times(spans)
    outer = _outermost(spans)
    stats: dict = defaultdict(lambda: defaultdict(float))
    for s, self_s, top in zip(spans, selfs, outer):
        st = stats[s.name]
        st["calls"] += 1
        st["self_s"] += self_s
        if top:
            st["total_s"] += s.duration
        if s.name == "intlinalg.cokernel":
            cells = s.extra["rows"] * s.extra["cols"]
            st["cells_sum"] += cells
            st["cells_max"] = max(st["cells_max"], cells)
            st["entry_bits_max"] = max(st["entry_bits_max"], s.extra["bits"])
        elif s.name == "graded.graded_piece":
            st["misses"] += s.extra.get("miss", 0)
        elif s.name == "ktheory.boxed_quotient":
            st["box_monomials"] += s.extra.get("box_monomials", 0)
            st["relation_columns"] += s.extra.get("relation_columns", 0)
    # Size of the pieces graded_piece actually built: the relation matrix
    # it hands to cokernel has one row per basis monomial and one column
    # per relation generator.
    gp = stats["graded.graded_piece"]
    for s in spans:
        if s.name == "intlinalg.cokernel" and s.parent is not None \
                and spans[s.parent].name == "graded.graded_piece" \
                and spans[s.parent].extra.get("miss"):
            gp["basis_monomials"] += s.extra["rows"]
            gp["relation_columns"] += s.extra["cols"]
    if gp["calls"]:
        gp["hit_ratio"] = (gp["calls"] - gp["misses"]) / gp["calls"]
    return stats


def shape_census(spans: list[Span]) -> dict:
    """Histogram of cokernel input shapes (rows x cols) and the largest
    input entry bit size."""
    shapes = Counter()
    bits = 0
    for s in spans:
        if s.name == "intlinalg.cokernel":
            shapes["%dx%d" % (s.extra["rows"], s.extra["cols"])] += 1
            bits = max(bits, s.extra["bits"])
    return {"shapes": dict(shapes.most_common()), "entry_bits_max": bits}
