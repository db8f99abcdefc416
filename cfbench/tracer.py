"""Spans around the calls into each cfmoments module, and the per-layer table.

The tracer replaces each public entry point at the attribute it is called
through (``cli.convergents``, ``hankel.psd_check``, ``QuadElem.__mul__``, ...)
with a wrapper that records a span: name, start, end and parent.  Spans stay
in memory until the pass ends.  A call into an entry point from inside a span
of the same name is folded into that span (``decimal_string`` calling
``QuadElem.decimal``, ``__rsub__`` calling ``__sub__``).

Self time is a span's duration minus the time its child spans cover.  The
program is single-threaded and never waits on a queue or a lock, so no layer
has a waiting time to report.
"""

from __future__ import annotations

import argparse
import json
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spec import PER_LAYER

MODULES = ("exactnum", "cfrac", "measures", "hankel", "cli")

# Metrics fixed by the job list alone; two traced runs of one seed must agree on them.
EXACT_COUNTS = tuple(
    name
    for name in PER_LAYER
    if name.endswith((".calls", ".terms", ".errors"))
    or name in ("exactnum.max_bits", "hankel.max_order", "hankel.not_psd.count", "cli.output_bytes")
)

Observer = Optional[Callable[[object], None]]
EntryPoint = Tuple[object, str, str, Observer]


class Tracer:
    """In-memory span recorder for one pass over the trace set."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name: List[int] = []
        self.span_parent: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self._stack: List[int] = []
        self.totals: Counter = Counter()
        self.maxima: Counter = Counter()
        self.errors: Counter = Counter()
        self._last_error: Optional[BaseException] = None
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, observe: Observer = None) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        module = name.split(".")[0]
        stack, names, parents = self._stack, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @wraps(fn)
        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._record_error(module, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                starts[sid] = start
                ends[sid] = end
            if observe is not None:
                observe(result)
            return result

        return traced

    def _record_error(self, module: str, exc: Exception) -> None:
        # Counted once, in the innermost span the exception passed through.
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[module] += 1

    def install(self, points: Sequence[EntryPoint]) -> None:
        for owner, attr, name, observe in points:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as JSON: a name table and [name, parent, start, end] rows."""
        origin = self.span_start[0] if self.span_start else 0.0
        spans = [
            [n, p, round(s - origin, 9), round(e - origin, 9)]
            for n, p, s, e in zip(self.span_name, self.span_parent, self.span_start, self.span_end)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": self.names, "spans": spans}), encoding="utf-8")


def self_times(parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    covered = [0.0] * len(parents)
    for parent, start, end in zip(parents, starts, ends):
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - child for start, end, child in zip(starts, ends, covered)]


def layer_table(tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The per-layer metrics of one traced pass (all but trace.overhead), and
    the self time of every span name."""
    selfs = self_times(tracer.span_parent, tracer.span_start, tracer.span_end)
    calls: Counter = Counter()
    self_by_name: Dict[str, float] = defaultdict(float)
    for nid, self_s in zip(tracer.span_name, selfs):
        name = tracer.names[nid]
        calls[name] += 1
        self_by_name[name] += self_s
    table: Dict[str, float] = {}
    for module in MODULES:
        table[f"{module}.self_s"] = sum(
            s for name, s in self_by_name.items() if name.startswith(module + ".")
        )
        table[f"{module}.errors"] = tracer.errors[module]
    for metric in PER_LAYER:
        stem, _, kind = metric.rpartition(".")
        if kind == "calls":
            table[metric] = calls[stem]
        elif kind == "self_s" and stem not in MODULES:
            table[metric] = self_by_name[stem]
    for stage in ("parse", "compute", "render"):
        table[f"cli.{stage}_s"] = self_by_name[f"cli.{stage}"]
    table["cfrac.kperiodic.terms"] = tracer.totals["cfrac.kperiodic.terms"]
    table["hankel.not_psd.count"] = tracer.totals["hankel.not_psd.count"]
    table["cli.output_bytes"] = tracer.totals["cli.output_bytes"]
    table["exactnum.max_bits"] = tracer.maxima["exactnum.max_bits"]
    table["hankel.max_order"] = tracer.maxima["hankel.max_order"]
    return table, dict(self_by_name)


def combine(tables: Sequence[Dict[str, float]], overhead: float) -> Tuple[Dict[str, float], bool]:
    """Median of each metric over the traced passes, and whether the counts repeated."""
    repeat = all(t[name] == tables[0][name] for t in tables for name in EXACT_COUNTS)
    combined = {
        name: tables[0][name] if name in EXACT_COUNTS else median(t[name] for t in tables)
        for name in tables[0]
    }
    combined["trace.overhead"] = overhead
    return combined, repeat


def entry_points(tracer: Tracer, cfm) -> List[EntryPoint]:
    """Every (owner, attribute, span name, observer) the tracer wraps.

    ``cfm`` is a namespace holding the imported cfmoments modules
    (exactnum, cfrac, measures, hankel, cli).
    """
    quad = cfm.exactnum.QuadElem

    def note_bits(result) -> None:
        if isinstance(result, quad):
            bits = max(
                result.rat.numerator.bit_length(),
                result.rat.denominator.bit_length(),
                result.surd.numerator.bit_length(),
                result.surd.denominator.bit_length(),
            )
            if bits > tracer.maxima["exactnum.max_bits"]:
                tracer.maxima["exactnum.max_bits"] = bits

    def note_terms(result) -> None:
        tracer.totals["cfrac.kperiodic.terms"] += len(result)

    def note_scan(result) -> None:
        tracer.maxima["hankel.max_order"] = max(tracer.maxima["hankel.max_order"], result.max_order)

    def note_psd(result) -> None:
        if not result.is_psd:
            tracer.totals["hankel.not_psd.count"] += 1

    def note_output(result) -> None:
        tracer.totals["cli.output_bytes"] += len(result.encode("utf-8"))

    arithmetic = {
        "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
        "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "inverse": "inverse",
        "__truediv__": "div", "__rtruediv__": "div", "__pow__": "pow", "__abs__": "abs",
    }
    points: List[EntryPoint] = [
        (quad, attr, f"exactnum.{op}", note_bits) for attr, op in arithmetic.items()
    ]
    points += [
        (quad, "sign", "exactnum.sign", None),
        (quad, "decimal", "exactnum.decimal", None),
    ]
    cli, cfrac, measures, hankel = cfm.cli, cfm.cfrac, cfm.measures, cfm.hankel
    measure_cls = measures.DiscreteSignedMeasure
    points += [
        (cli, "main", "cli.main", None),
        (cli, "_expand_args_file", "cli.parse", None),
        (cli, "build_parser", "cli.parse", None),
        (argparse.ArgumentParser, "parse_args", "cli.parse", None),
        (cli, "cmd_convergents", "cli.compute", None),
        (cli, "cmd_verify", "cli.compute", None),
        (cli, "cmd_classify", "cli.compute", None),
        (cli, "cmd_hankel_scan", "cli.compute", None),
        (cli, "cmd_fibonacci", "cli.compute", None),
        (cli, "_render", "cli.render", note_output),
        (cli, "parse_rational", "exactnum.parse", None),
        (cli, "decimal_string", "exactnum.decimal", None),
        (cli, "convergents", "cfrac.convergents", None),
        (cli, "generalized_fibonacci", "cfrac.fibonacci", None),
        (cli, "moment_measure", "measures.moment_measure", None),
        (cli, "binet_measure", "measures.binet", None),
        (cli, "classify_positivity", "measures.classify", None),
        (cli, "scan_kperiodic", "hankel.scan", note_scan),
        (cfrac, "convergents", "cfrac.convergents", None),
        (cfrac, "kperiodic_convergents", "cfrac.kperiodic", note_terms),
        (measures, "atom_ratios", "cfrac.atom_ratios", None),
        (measure_cls, "moment", "measures.moment", None),
        (measure_cls, "truncated_moment", "measures.truncated_moment", None),
        (measure_cls, "with_head", "measures.with_head", None),
        (hankel, "kperiodic_convergents", "cfrac.kperiodic", note_terms),
        (hankel, "hankel_matrix", "hankel.matrix", None),
        (hankel, "det_exact", "hankel.det", None),
        (hankel, "psd_check", "hankel.psd", note_psd),
    ]
    return points
