"""The user-facing Lakeroad API (the ``lakeroad`` command of Section 2.2).

The typical call mirrors the paper's command line::

    $ lakeroad --template dsp --arch-desc xilinx-ultrascale-plus add_mul_and.v

which here is::

    result = map_verilog(open("add_mul_and.v").read(), template="dsp",
                         arch="xilinx-ultrascale-plus")

Since the engine refactor the whole map-one-design lifecycle lives in
:class:`repro.engine.MappingSession` (sketch generation → CEGIS-backed
synthesis → compilation, with one budget model and a memoizing synthesis
cache).  This module keeps the historical functional API as thin wrappers
over the process-wide default session; for explicit control over the
library or cache, construct a
:class:`~repro.engine.session.MappingSession` directly.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.session import (
    LakeroadResult,
    MappingSession,
    default_session,
)
from repro.hdl.behavioral import BehavioralDesign, verilog_to_behavioral
from repro.vendor.library import PrimitiveLibrary

__all__ = ["LakeroadResult", "map_design", "map_verilog"]


def _session_for(library: Optional[PrimitiveLibrary],
                 session: Optional[MappingSession]) -> MappingSession:
    if session is not None:
        return session
    if library is not None:
        # An explicit library gets its own isolated session (and cache).
        return MappingSession(library=library)
    return default_session()


def map_design(design: BehavioralDesign, template: str = "dsp",
               arch="xilinx-ultrascale-plus",
               timeout_seconds: Optional[float] = None,
               extra_cycles: int = 1,
               validate: bool = True,
               library: Optional[PrimitiveLibrary] = None,
               session: Optional[MappingSession] = None) -> LakeroadResult:
    """Map an imported behavioral design onto the target architecture."""
    return _session_for(library, session).map_design(
        design, template=template, arch=arch, timeout_seconds=timeout_seconds,
        extra_cycles=extra_cycles, validate=validate)


def map_verilog(source: str, template: str = "dsp",
                arch="xilinx-ultrascale-plus",
                module_name: Optional[str] = None,
                timeout_seconds: Optional[float] = None,
                extra_cycles: int = 1,
                validate: bool = True,
                session: Optional[MappingSession] = None) -> LakeroadResult:
    """Map a behavioral Verilog module (the §2.2 entry point)."""
    design = verilog_to_behavioral(source, module_name)
    return map_design(design, template=template, arch=arch,
                      timeout_seconds=timeout_seconds, extra_cycles=extra_cycles,
                      validate=validate, session=session)
