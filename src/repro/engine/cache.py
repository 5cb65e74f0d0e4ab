"""A keyed, memoizing synthesis cache.

Repeated ``map_verilog`` calls and harness sweeps frequently re-synthesize
the same (design, architecture, template, budget) combination — e.g. the
completeness and timing experiments run the identical workloads.  The cache
keys on a *canonical fingerprint* of the design program (node ids are
globally unique per process, so the raw graph cannot be hashed directly),
plus the architecture, template, bounded-model-checking window and budget.

The cache is in-memory and bounded (LRU eviction).  A session given a
``cache_dir`` uses :class:`repro.engine.diskcache.DiskSynthesisCache`
instead, which persists the same entries across processes and runs.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.core.lang import (
    BVNode,
    HoleNode,
    OpNode,
    PrimNode,
    Program,
    RegNode,
    VarNode,
)
from repro.smt.solver import RANDOM_PROBES

__all__ = ["SynthesisCache", "program_fingerprint"]


def program_fingerprint(program: Program) -> str:
    """A canonical hash of a program, stable across builder instances.

    Nodes are renumbered in a deterministic traversal from the root, so two
    structurally identical programs produced by different builders (whose
    global ids differ) fingerprint identically.  Register feedback is
    handled with back-references to the traversal index.
    """
    digest = hashlib.sha256()
    order: Dict[int, int] = {}
    # Explicit work stack (not recursion): deep operand chains — e.g. long
    # reduction trees in imported designs — would otherwise overflow
    # Python's recursion limit.  Entries are either raw bytes to emit or a
    # node id to expand; expansion pushes continuations in reverse so the
    # emitted byte stream is a deterministic preorder.
    stack: list = [program.root]

    while stack:
        item = stack.pop()
        if isinstance(item, bytes):
            digest.update(item)
            continue
        node_id = item
        if node_id in order:
            digest.update(b"ref %d;" % order[node_id])
            continue
        order[node_id] = len(order)
        node = program[node_id]
        if isinstance(node, BVNode):
            digest.update(b"bv %d %d;" % (node.width, node.value))
        elif isinstance(node, VarNode):
            digest.update(f"var {node.name} {node.width};".encode())
        elif isinstance(node, HoleNode):
            digest.update(f"hole {node.name} {node.width};".encode())
        elif isinstance(node, OpNode):
            digest.update(f"op {node.op} {node.width} {node.params};".encode())
            stack.extend(reversed(node.operands))
        elif isinstance(node, RegNode):
            digest.update(b"reg %d %d;" % (node.width, node.init))
            stack.append(node.data)
        elif isinstance(node, PrimNode):
            module = node.metadata.module_name if node.metadata else ""
            digest.update(f"prim {module} {node.width};".encode())
            # Primitive semantics programs are small and non-recursive, so
            # one level of direct recursion per Prim is safe.
            semantics = program_fingerprint(node.semantics).encode()
            continuations: list = []
            for name, bound_id in node.bindings:
                continuations.append(f"bind {name};".encode())
                continuations.append(bound_id)
            continuations.append(b"sem " + semantics + b";")
            stack.extend(reversed(continuations))
        else:  # pragma: no cover - exhaustive over ℒlr node kinds
            raise TypeError(f"cannot fingerprint node type {type(node).__name__}")

    return digest.hexdigest()


class SynthesisCache:
    """An LRU cache of mapping results with hit/miss counters.

    Thread-safe: harness sweeps may run mapping sessions from worker
    threads against one shared cache.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(design_fingerprint: str, architecture: str, template: str,
            budget_key: Optional[float], extra_cycles: int,
            validate: bool) -> Tuple:
        # The probe budget changes which CEGIS trajectory runs (probe-found
        # models are not canonicalized), so a change to it must change
        # every key.
        return (design_fingerprint, architecture, template, budget_key,
                extra_cycles, validate, RANDOM_PROBES)

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries)}
