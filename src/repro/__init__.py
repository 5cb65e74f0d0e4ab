"""Reproduction of "FPGA Technology Mapping Using Sketch-Guided Program Synthesis".

This package re-implements the Lakeroad FPGA technology mapper (ASPLOS 2024)
and every substrate it depends on, in pure Python:

* :mod:`repro.bv`   -- word-level bitvector expression IR with rewriting.
* :mod:`repro.sat`  -- CDCL / DPLL SAT solvers.
* :mod:`repro.smt`  -- QF_BV solving, equivalence checking, CEGIS synthesis.
* :mod:`repro.hdl`  -- Verilog-subset frontend, semantics extraction, emission.
* :mod:`repro.vendor` -- vendor-style primitive simulation models.
* :mod:`repro.arch` -- architecture descriptions and their loader.
* :mod:`repro.core` -- the Lakeroad IR, sketch templates and synthesis engine.
* :mod:`repro.engine` -- the mapping-engine layer: budgets, solver
  counters, synthesis cache and the :class:`~repro.engine.MappingSession`
  that owns the map-one-design lifecycle.
* :mod:`repro.baselines` -- yosys-like and simulated proprietary mappers.
* :mod:`repro.workloads` -- the paper's microbenchmark enumeration.
* :mod:`repro.harness` -- experiment runners for every table and figure.

The user-facing entry point mirrors the ``lakeroad`` command line tool::

    from repro import lakeroad
    result = lakeroad.map_design(design, template="dsp",
                                 arch="xilinx-ultrascale-plus")
"""

__version__ = "1.0.0"

__all__ = [
    "lakeroad",
    "map_design",
    "map_verilog",
    "LakeroadResult",
    "MappingSession",
    "__version__",
]


def __getattr__(name):
    """Lazily expose the top-level API without importing the full stack."""
    if name in ("lakeroad", "map_design", "map_verilog", "LakeroadResult"):
        import importlib

        module = importlib.import_module("repro.lakeroad")
        if name == "lakeroad":
            return module
        return getattr(module, name)
    if name == "MappingSession":
        from repro.engine.session import MappingSession

        return MappingSession
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
