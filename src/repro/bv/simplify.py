"""Whole-DAG rewriting: substitution and re-simplification.

The smart constructors in :mod:`repro.bv.builder` simplify *locally* as
expressions are built.  :func:`substitute` and :func:`simplify` rebuild a
whole DAG bottom-up through those constructors, which re-runs every local
rule after leaves have been replaced — this is how a sketch with concrete
hole values collapses to its underlying datapath.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.bv import builder
from repro.bv.ast import BVExpr

__all__ = ["substitute", "simplify", "rebuild"]


#: Operators whose smart constructor takes the rebuilt arguments alone.
_SIMPLE = {
    "add": builder.bvadd,
    "sub": builder.bvsub,
    "mul": builder.bvmul,
    "neg": builder.bvneg,
    "not": builder.bvnot,
    "and": builder.bvand,
    "or": builder.bvor,
    "xor": builder.bvxor,
    "xnor": builder.bvxnor,
    "shl": builder.bvshl,
    "lshr": builder.bvlshr,
    "ashr": builder.bvashr,
    "eq": builder.bveq,
    "ne": builder.bvne,
    "ult": builder.bvult,
    "ule": builder.bvule,
    "ugt": builder.bvugt,
    "uge": builder.bvuge,
    "slt": builder.bvslt,
    "sle": builder.bvsle,
    "sgt": builder.bvsgt,
    "sge": builder.bvsge,
    "redand": builder.bvredand,
    "redor": builder.bvredor,
}


def _rebuild_node(node: BVExpr, new_args: list) -> BVExpr:
    """Rebuild a single non-leaf node through the smart constructors."""
    op = node.op
    simple = _SIMPLE.get(op)
    if simple is not None:
        return simple(*new_args)
    if op == "extract":
        hi, lo = node.params
        return builder.bvextract(hi, lo, new_args[0])
    if op == "concat":
        return builder.bvconcat(*new_args)
    if op == "ite":
        return builder.bvite(*new_args)
    raise ValueError(f"cannot rebuild node with operator {op!r}")


def rebuild(expr: BVExpr, leaf_map: Mapping[BVExpr, BVExpr]) -> BVExpr:
    """Rebuild ``expr`` bottom-up, replacing any node found in ``leaf_map``.

    Replacement applies to arbitrary nodes (not only variables), which the
    sketch-filling machinery uses to splice solved hole values into a sketch.
    """
    cache: Dict[BVExpr, BVExpr] = {}
    for node in expr.iter_dag():
        if node in leaf_map:
            replacement = leaf_map[node]
            if replacement.width != node.width:
                raise ValueError(
                    f"replacement width {replacement.width} != node width {node.width}"
                )
            cache[node] = replacement
        elif node.op in ("const", "var"):
            cache[node] = node
        else:
            cache[node] = _rebuild_node(node, [cache[a] for a in node.args])
    return cache[expr]


def substitute(expr: BVExpr, bindings: Mapping[str, BVExpr]) -> BVExpr:
    """Replace free variables by expressions and re-simplify the DAG."""
    leaf_map: Dict[BVExpr, BVExpr] = {}
    for node in expr.iter_dag():
        if node.op == "var" and node.name in bindings:
            leaf_map[node] = bindings[node.name]
    if not leaf_map:
        return simplify(expr)
    return rebuild(expr, leaf_map)


def simplify(expr: BVExpr) -> BVExpr:
    """Rebuild the DAG through the smart constructors (fixed-point pass)."""
    previous = None
    current = expr
    # Local rules usually converge in one pass; cap the iteration defensively.
    for _ in range(4):
        if current is previous:
            break
        previous = current
        current = rebuild(current, {})
    return current
