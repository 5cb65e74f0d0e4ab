"""Outside-in span recorder: times calls into each layer's public functions.

Nothing under ``src/`` is instrumented.  :meth:`SpanRecorder.install`
replaces each traced function at the name its caller bound it to — a
``from X import f`` copies ``f`` into the importing module, so e.g.
``lex_min_model`` is wrapped both in ``repro.smt.solver`` and in
``repro.smt.equivalence`` — and :meth:`SpanRecorder.uninstall` puts the
originals back.

Span stacks are thread-local because verification races CDCL members on
helper threads.  A span's self time is its duration minus the time its
children on the same thread cover.  Only spans on the thread that
installed the recorder (the main thread) enter the self-time table, so
self times plus ``other`` add up to the traced wall time; spans opened on
helper threads are counted and kept, and the main-thread span that waited
for them (``sat.portfolio``) carries their wall time as its own.

``CDCLSolver.add_clause`` runs once per Tseitin clause, far too often to
keep one record per call: its calls are aggregated into one record per
enclosing span (name ``sat.load``, with the call count).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

# (module, attribute, span name) for module-level functions, at the name
# the calling module bound them to.
_FUNCTIONS = (
    ("repro.engine.session", "verilog_to_behavioral", "hdl.import"),
    ("repro.harness.runner", "verilog_to_behavioral", "hdl.import"),
    ("repro.engine.session", "generate_sketch", "core.sketch_gen"),
    ("repro.engine.session", "lower_to_verilog", "core.lower"),
    ("repro.engine.session", "interpret", "engine.session.validate"),
    ("repro.core.synthesis", "output_pairs", "core.interp.obligations"),
    ("repro.smt.cegis", "check_equivalence", "smt.verify"),
)

#: Span names that are reported inclusive of their children.
INCLUSIVE = ("smt.verify", "sat.portfolio", "smt.lexmin")

#: Hot leaf functions aggregated per enclosing span instead of recorded per call.
LEAVES = ("sat.load",)

Span = Tuple[str, int, float, float, float, int]  # name, thread, start, end, self, calls


class _Frame:
    __slots__ = ("name", "start", "covered", "leaves")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.covered = 0.0
        self.leaves: Dict[str, List[float]] = {}


class SpanRecorder:
    """Records spans in memory while installed; see the module docstring.

    It may be installed and uninstalled several times (traced passes
    alternating with untraced ones); ``wall`` sums the installed windows.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._orphan_leaves: Dict[Tuple[int, str], List[float]] = {}
        self.main_thread = threading.get_ident()
        self.started = None
        self._resumed = 0.0
        self.wall = 0.0

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        self._stack().append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        tid = threading.get_ident()
        records = [(frame.name, tid, frame.start, end,
                    duration - frame.covered, 1)]
        for leaf, (total, calls) in frame.leaves.items():
            records.append((leaf, tid, frame.start, end, total, int(calls)))
        if stack:
            stack[-1].covered += duration
        with self._lock:
            self.spans.extend(records)

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # ------------------------------------------------------------------ #
    def _span(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)
        return wrapper

    def _leaf(self, name: str, fn: Callable) -> Callable:
        orphans = self._orphan_leaves

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack = getattr(self._local, "stack", None)
                if stack:
                    parent = stack[-1]
                    parent.covered += duration
                    totals = parent.leaves.setdefault(name, [0.0, 0])
                else:
                    totals = orphans.setdefault(
                        (threading.get_ident(), name), [0.0, 0])
                totals[0] += duration
                totals[1] += 1
        return wrapper

    def _solve(self, fn: Callable) -> Callable:
        """``CDCLSolver.solve``: a lex-min trial or a search solve."""
        def wrapper(solver, *args, **kwargs):
            in_lexmin = getattr(self._local, "lexmin", 0) > 0
            frame = self._open("smt.lexmin.solve" if in_lexmin else "sat.search")
            try:
                result = fn(solver, *args, **kwargs)
            finally:
                self._close(frame)
            if in_lexmin:
                self.count("smt.lexmin.solves")
            else:
                self.count("sat.search.solves")
                self.count("sat.search.conflicts", result.conflicts)
            return result
        return wrapper

    def _lexmin(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            local = self._local
            local.lexmin = getattr(local, "lexmin", 0) + 1
            frame = self._open("smt.lexmin")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)
                local.lexmin -= 1
        return wrapper

    def _probe(self, fn: Callable) -> Callable:
        span = self._span("bv.bitsim.probe", fn)

        def wrapper(evaluator, assignments):
            hits = span(evaluator, assignments)
            self.count("bv.bitsim.lanes", len(assignments))
            self.count("bv.bitsim.lane_hits", bin(hits).count("1"))
            return hits
        return wrapper

    def _map_design(self, fn: Callable) -> Callable:
        """Counts CEGIS iterations; deliberately not a span (its self time
        would swallow everything the named layers leave uncovered)."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result.synthesis is not None and not result.cache_hit:
                self.count("smt.cegis.iterations",
                           result.synthesis.cegis_iterations)
            return result
        return wrapper

    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> "SpanRecorder":
        import importlib

        from repro.bv.bitsim import PackedEvaluator
        from repro.engine.session import MappingSession
        from repro.sat.portfolio import SatPortfolio
        from repro.sat.solver import CDCLSolver
        from repro.smt import equivalence, solver
        from repro.smt.solver import IncrementalSmtSession

        self.main_thread = threading.get_ident()
        for module_name, attr, name in _FUNCTIONS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, lambda fn, name=name: self._span(name, fn))
        self._patch(solver, "lex_min_model", self._lexmin)
        self._patch(equivalence, "lex_min_model", self._lexmin)
        self._patch(IncrementalSmtSession, "assert_constraints",
                    lambda fn: self._span("smt.blast", fn))
        self._patch(CDCLSolver, "add_clause", lambda fn: self._leaf("sat.load", fn))
        self._patch(CDCLSolver, "solve", self._solve)
        self._patch(SatPortfolio, "solve", lambda fn: self._span("sat.portfolio", fn))
        self._patch(PackedEvaluator, "sat_lanes", self._probe)
        self._patch(MappingSession, "map_design", self._map_design)
        self._resumed = time.perf_counter()
        if self.started is None:
            self.started = self._resumed
        return self

    def uninstall(self) -> None:
        stopped = time.perf_counter()
        self.wall += stopped - self._resumed
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for (tid, name), (total, calls) in self._orphan_leaves.items():
            self.spans.append((name, tid, self._resumed, stopped,
                               total, int(calls)))
        self._orphan_leaves.clear()

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    def table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: main-thread self/inclusive seconds and calls,
        plus helper-thread busy seconds and calls."""
        rows: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0,
                     "helper_s": 0.0, "helper_calls": 0})
        for name, tid, start, end, self_s, calls in self.spans:
            row = rows[name]
            if tid == self.main_thread:
                row["self_s"] += self_s
                row["calls"] += calls
                # Aggregated leaf records carry their summed duration as
                # self time and the parent's window as start/end.
                row["incl_s"] += self_s if name in LEAVES else end - start
            else:
                row["helper_s"] += self_s
                row["helper_calls"] += calls
        rows["other"]["self_s"] = self.wall - sum(
            row["self_s"] for key, row in rows.items() if key != "other")
        return dict(rows)

    def write(self, path) -> None:
        """Write every span out as JSON lines (one span per line)."""
        with open(path, "w") as handle:
            for name, tid, start, end, self_s, calls in self.spans:
                handle.write(json.dumps({
                    "name": name, "main": tid == self.main_thread,
                    "start": start - self.started, "end": end - self.started,
                    "self_s": self_s, "calls": calls}) + "\n")
