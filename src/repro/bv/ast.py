"""Immutable, hash-consed bitvector expression nodes.

Every expression is an instance of :class:`BVExpr`, identified by its
operator name, width, and children (plus a constant value or variable name
for leaves).  Nodes are interned: building the same expression twice returns
the *same* object, so structural equality is pointer equality and large
shared DAGs stay shared.  This mirrors the term representation used by
word-level SMT solvers and is what makes the later structural-hashing
equivalence check cheap.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Iterable, Optional, Tuple

__all__ = ["BVExpr", "Sort", "OPERATOR_ARITY", "COMMUTATIVE_OPS"]


_STRING_HASHES: dict = {}


def _string_hash(text: str) -> int:
    """A process-independent stand-in for ``hash(str)``.

    ``hash()`` on strings is randomized per interpreter (PYTHONHASHSEED);
    int and tuple hashing are not.  Node hashes must not inherit that
    randomness: the canonical argument order of commutative operators sorts
    by node hash, so a seed-dependent hash silently reorders operands
    between processes — which changes the "canonical" program fingerprint
    and defeats the persistent synthesis cache.  Node construction is the
    hottest path in bit-blasting, so the digest is memoized per distinct
    string (operator names and variable names repeat endlessly) rather
    than recomputed per node.

    The personalization tag fixes *which* canonical operand order the whole
    system uses.  CEGIS runtimes are very sensitive to that order (the
    flagship add_mul_and query ranges from ~18 s to ~220 s across orders,
    and the pre-fix seed-randomized order ranged 32-61 s across hash
    seeds); this tag was chosen empirically as a fast draw.  Bump it only
    with benchmark numbers in hand — and note it changes fingerprints, so
    it effectively invalidates persistent caches.
    """
    cached = _STRING_HASHES.get(text)
    if cached is None:
        cached = int.from_bytes(
            blake2b(text.encode(), digest_size=8, person=b"lakeroad-2").digest(),
            "big", signed=True)
        _STRING_HASHES[text] = cached
    return cached


class Sort:
    """The sort (type) of a bitvector expression: just a width in bits."""

    __slots__ = ("width",)

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError(f"bitvector width must be positive, got {width}")
        self.width = width

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sort) and other.width == self.width

    def __hash__(self) -> int:
        return hash(("Sort", self.width))

    def __repr__(self) -> str:
        return f"(_ BitVec {self.width})"


#: Operator name -> expected number of children (None means variadic >= 1).
OPERATOR_ARITY = {
    "const": 0,
    "var": 0,
    "not": 1,
    "neg": 1,
    "redand": 1,
    "redor": 1,
    "add": None,
    "sub": 2,
    "mul": None,
    "and": None,
    "or": None,
    "xor": None,
    "xnor": 2,
    "shl": 2,
    "lshr": 2,
    "ashr": 2,
    "concat": None,
    "extract": 1,
    "ite": 3,
    "eq": 2,
    "ne": 2,
    "ult": 2,
    "ule": 2,
    "ugt": 2,
    "uge": 2,
    "slt": 2,
    "sle": 2,
    "sgt": 2,
    "sge": 2,
}

#: Operators whose argument order does not matter (used for normalisation).
COMMUTATIVE_OPS = frozenset({"add", "mul", "and", "or", "xor", "xnor", "eq", "ne"})


class BVExpr:
    """A node in the bitvector expression DAG.

    Attributes:
        op: operator name (see :data:`OPERATOR_ARITY`).
        width: result width in bits.
        args: child expressions.
        value: integer value (for ``const`` nodes only).
        name: variable name (for ``var`` nodes only).
        params: extra integer parameters (``extract`` stores ``(hi, lo)``).
    """

    __slots__ = ("op", "width", "args", "value", "name", "params", "_hash",
                 "_vars")

    _intern: dict = {}

    def __new__(
        cls,
        op: str,
        width: int,
        args: Tuple["BVExpr", ...] = (),
        value: Optional[int] = None,
        name: Optional[str] = None,
        params: Tuple[int, ...] = (),
    ) -> "BVExpr":
        if width <= 0:
            raise ValueError(f"bitvector width must be positive, got {width}")
        key = (op, width, args, value, name, params)
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        node = object.__new__(cls)
        node.op = op
        node.width = width
        node.args = args
        node.value = value
        node.name = name
        node.params = params
        # Tuple/int hashing is deterministic; only strings — and None,
        # whose hash is id-derived on some interpreters — need the
        # process-independent treatment (see _string_hash).  Child hashes
        # enter through args (BVExpr.__hash__ returns _hash), so stability
        # is inductive over the DAG.
        node._hash = hash((_string_hash(op), width, args,
                           -1 if value is None else value,
                           _string_hash(name) if name is not None else 0,
                           params))
        # Lazily-computed free-variable width map (see repro.bv.eval).
        # Interning makes nodes immutable and shared, so the map is a
        # per-node fact that can be cached once and reused by every DAG
        # containing the node.
        node._vars = None
        cls._intern[key] = node
        return node

    # Interned nodes: identity is structural identity.
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other

    # ------------------------------------------------------------------ #
    # Convenience predicates
    # ------------------------------------------------------------------ #
    @property
    def sort(self) -> Sort:
        return Sort(self.width)

    def is_const(self) -> bool:
        return self.op == "const"

    def is_true(self) -> bool:
        return self.op == "const" and self.width == 1 and self.value == 1

    def is_false(self) -> bool:
        return self.op == "const" and self.width == 1 and self.value == 0

    def is_zero(self) -> bool:
        return self.op == "const" and self.value == 0

    def is_ones(self) -> bool:
        return self.op == "const" and self.value == (1 << self.width) - 1

    # ------------------------------------------------------------------ #
    # Traversal helpers
    # ------------------------------------------------------------------ #
    def children(self) -> Tuple["BVExpr", ...]:
        return self.args

    def iter_dag(self) -> Iterable["BVExpr"]:
        """Yield every node in the DAG rooted here exactly once (post-order)."""
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if node in seen:
                continue
            if expanded:
                seen.add(node)
                yield node
            else:
                stack.append((node, True))
                for child in node.args:
                    if child not in seen:
                        stack.append((child, False))

    def size(self) -> int:
        """Number of distinct nodes in the DAG rooted at this expression."""
        return sum(1 for _ in self.iter_dag())

    # ------------------------------------------------------------------ #
    # Printing
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return self.to_sexpr(max_depth=6)

    def to_sexpr(self, max_depth: int = 1_000_000) -> str:
        """Render as an SMT-LIB-flavoured s-expression (for debugging)."""
        if self.op == "const":
            return f"#b{self.value:0{self.width}b}" if self.width <= 8 else f"(_ bv{self.value} {self.width})"
        if self.op == "var":
            return f"{self.name}:{self.width}"
        if max_depth <= 0:
            return "..."
        inner = " ".join(a.to_sexpr(max_depth - 1) for a in self.args)
        if self.op == "extract":
            hi, lo = self.params
            return f"((_ extract {hi} {lo}) {inner})"
        return f"({self.op} {inner})"


def reset_intern_table() -> None:
    """Clear the global intern table (used by tests to bound memory), and
    the builder's extract memo, whose entries are keyed on interned nodes."""
    from repro.bv.builder import _EXTRACT_MEMO

    BVExpr._intern.clear()
    _EXTRACT_MEMO.clear()
