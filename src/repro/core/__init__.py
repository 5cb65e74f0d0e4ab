"""The Lakeroad core: ℒlr, sketches, templates and the synthesis engine.

Layout (mirroring Sections 3 and 4 of the paper):

* :mod:`repro.core.lang`        -- ℒlr syntax (Figure 3).
* :mod:`repro.core.wellformed`  -- the W1–W6 well-formedness conditions.
* :mod:`repro.core.interp`      -- the stream interpreter (Figure 4) plus a
  symbolic variant that produces solver bitvector expressions.
* :mod:`repro.core.sublang`     -- ℒbeh / ℒstruct / ℒsketch membership.
* :mod:`repro.core.equivalence` -- the output pairs behind ≡_t and its
  bounded multi-cycle extension.
* :mod:`repro.core.interfaces`  -- primitive interfaces (LUT, carry, mux, DSP).
* :mod:`repro.core.templates`   -- the architecture-independent sketch
  templates (dsp, bitwise, bitwise-with-carry, comparison, multiplication).
* :mod:`repro.core.sketch_gen`  -- template × architecture description →
  sketch, including interface lowering.
* :mod:`repro.core.synthesis`   -- ``f_lr`` and ``f*_lr`` (Section 3.1/3.5).
* :mod:`repro.core.lower`       -- ℒstruct → structural Verilog.
"""

from repro.core.lang import Node, Program, ProgramBuilder
from repro.core.synthesis import SynthesisOutcome, f_lr, f_lr_star

__all__ = [
    "Node",
    "Program",
    "ProgramBuilder",
    "SynthesisOutcome",
    "f_lr",
    "f_lr_star",
]
