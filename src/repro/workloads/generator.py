"""The microbenchmark enumeration of Section 5.1.

For each architecture the paper enumerates the designs that should map to a
single DSP according to the primitive's configuration manual:

* **Xilinx UltraScale+** (DSP48E2): all permutations of ``((a ± b) * c) ⊙ d``
  with ``⊙ ∈ {&, |, ^, ~^, +, -}``, plus ``a * b`` and ``(a * b) ± c``;
  pipelined 0–3 stages; bitwidths 8–18; signed and unsigned.
  → 15 forms × 4 stage counts × 11 widths × 2 = **1320** designs.
* **Lattice ECP5** (MULT18X18C/ALU54A): ``(a * b) ⊙ c`` with
  ``⊙ ∈ {&, |, ^, +, -}`` plus ``a * b``; 0–2 stages; 8–18 bits; signed and
  unsigned.  → 6 × 3 × 11 × 2 = **396** designs.
* **Intel Cyclone 10 LP** (mac_mult): ``a * b``; 0–2 stages; 8–18 bits;
  signed and unsigned.  → 1 × 3 × 11 × 2 = **66** designs.

Each microbenchmark carries its behavioral Verilog text (generated here and
imported through the same frontend a user would use) plus the metadata the
harness and the baselines need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["WorkloadSpec", "Microbenchmark", "enumerate_workloads", "workload_counts",
           "sample_workloads", "XILINX_FORMS", "LATTICE_FORMS", "INTEL_FORMS"]


@dataclass(frozen=True)
class WorkloadSpec:
    """One design form, e.g. ``((a + b) * c) & d``."""

    name: str
    expression: str          # Verilog expression over a, b, c, d
    inputs: Sequence[str]    # which of a..d the form uses
    has_preadd: bool = False
    preadd_subtract: bool = False
    post_op: Optional[str] = None  # Verilog operator applied after the multiply

    def to_dict(self) -> Dict[str, object]:
        """The JSON wire form (the distributed sweep ships benchmarks as
        plain dicts, not pickles)."""
        return {"name": self.name, "expression": self.expression,
                "inputs": list(self.inputs), "has_preadd": self.has_preadd,
                "preadd_subtract": self.preadd_subtract,
                "post_op": self.post_op}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadSpec":
        return cls(name=data["name"], expression=data["expression"],
                   inputs=tuple(data["inputs"]),
                   has_preadd=bool(data.get("has_preadd", False)),
                   preadd_subtract=bool(data.get("preadd_subtract", False)),
                   post_op=data.get("post_op"))


def _xilinx_forms() -> List[WorkloadSpec]:
    forms: List[WorkloadSpec] = []
    post_ops = [("and", "&"), ("or", "|"), ("xor", "^"), ("xnor", "~^"),
                ("add", "+"), ("sub", "-")]
    for pre_name, pre_symbol in (("add", "+"), ("sub", "-")):
        for post_name, post_symbol in post_ops:
            forms.append(WorkloadSpec(
                name=f"pre{pre_name}_mul_{post_name}",
                expression=f"((a {pre_symbol} b) * c) {post_symbol} d",
                inputs=("a", "b", "c", "d"),
                has_preadd=True,
                preadd_subtract=(pre_name == "sub"),
                post_op=post_name,
            ))
    forms.append(WorkloadSpec("mul", "a * b", ("a", "b")))
    forms.append(WorkloadSpec("mul_add", "(a * b) + c", ("a", "b", "c"), post_op="add"))
    forms.append(WorkloadSpec("mul_sub", "(a * b) - c", ("a", "b", "c"), post_op="sub"))
    return forms


def _lattice_forms() -> List[WorkloadSpec]:
    forms: List[WorkloadSpec] = []
    for post_name, post_symbol in (("and", "&"), ("or", "|"), ("xor", "^"),
                                   ("add", "+"), ("sub", "-")):
        forms.append(WorkloadSpec(
            name=f"mul_{post_name}",
            expression=f"(a * b) {post_symbol} c",
            inputs=("a", "b", "c"),
            post_op=post_name,
        ))
    forms.append(WorkloadSpec("mul", "a * b", ("a", "b")))
    return forms


def _intel_forms() -> List[WorkloadSpec]:
    return [WorkloadSpec("mul", "a * b", ("a", "b"))]


XILINX_FORMS = _xilinx_forms()
LATTICE_FORMS = _lattice_forms()
INTEL_FORMS = _intel_forms()

#: Per-architecture enumeration parameters (forms, stage counts, widths).
ARCHITECTURE_WORKLOADS = {
    "xilinx-ultrascale-plus": (XILINX_FORMS, range(0, 4), range(8, 19)),
    "lattice-ecp5": (LATTICE_FORMS, range(0, 3), range(8, 19)),
    "intel-cyclone10lp": (INTEL_FORMS, range(0, 3), range(8, 19)),
}


@dataclass
class Microbenchmark:
    """One concrete microbenchmark: a form at a width, depth and signedness."""

    architecture: str
    form: WorkloadSpec
    width: int
    stages: int
    signed: bool
    name: str = field(init=False)
    verilog: str = field(init=False)

    def __post_init__(self) -> None:
        sign_tag = "s" if self.signed else "u"
        self.name = f"{self.form.name}_w{self.width}_p{self.stages}_{sign_tag}"
        self.verilog = self._generate_verilog()

    def to_dict(self) -> Dict[str, object]:
        """The JSON wire form.  Only the five init fields travel — ``name``
        and ``verilog`` are derived deterministically in ``__post_init__``,
        so the receiving side regenerates byte-identical sources."""
        return {"architecture": self.architecture,
                "form": self.form.to_dict(), "width": self.width,
                "stages": self.stages, "signed": self.signed}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Microbenchmark":
        return cls(architecture=data["architecture"],
                   form=WorkloadSpec.from_dict(data["form"]),
                   width=int(data["width"]), stages=int(data["stages"]),
                   signed=bool(data["signed"]))

    def _generate_verilog(self) -> str:
        width = self.width
        signed_kw = "signed " if self.signed else ""
        ports = ", ".join(self.form.inputs)
        lines = [
            f"// {self.name}: {self.form.expression} ({self.stages} pipeline stages)",
            f"module {self.name}(input clk, input {signed_kw}[{width - 1}:0] {ports},",
            f"                  output reg {signed_kw}[{width - 1}:0] out);",
        ]
        if self.stages == 0:
            lines[-1] = lines[-1].replace("output reg", "output")
            lines.append(f"  assign out = {self.form.expression};")
        else:
            for stage in range(1, self.stages):
                lines.append(f"  reg {signed_kw}[{width - 1}:0] stage{stage};")
            lines.append("  always @(posedge clk) begin")
            if self.stages == 1:
                lines.append(f"    out <= {self.form.expression};")
            else:
                lines.append(f"    stage1 <= {self.form.expression};")
                for stage in range(2, self.stages):
                    lines.append(f"    stage{stage} <= stage{stage - 1};")
                lines.append(f"    out <= stage{self.stages - 1};")
            lines.append("  end")
        lines.append("endmodule")
        return "\n".join(lines) + "\n"


def enumerate_workloads(architecture: str,
                        max_width: Optional[int] = None) -> List[Microbenchmark]:
    """The full microbenchmark enumeration for one architecture, or its
    designs at most ``max_width`` bits wide."""
    if architecture not in ARCHITECTURE_WORKLOADS:
        raise KeyError(f"no workload enumeration for architecture {architecture!r}")
    forms, stage_range, width_range = ARCHITECTURE_WORKLOADS[architecture]
    if max_width is not None:
        width_range = [width for width in width_range if width <= max_width]
    benchmarks: List[Microbenchmark] = []
    for form in forms:
        for stages in stage_range:
            for width in width_range:
                for signed in (False, True):
                    benchmarks.append(Microbenchmark(architecture, form, width,
                                                     stages, signed))
    return benchmarks


def workload_counts() -> Dict[str, int]:
    """Total microbenchmark count per architecture (paper: 1320 / 396 / 66)."""
    return {arch: len(enumerate_workloads(arch)) for arch in ARCHITECTURE_WORKLOADS}


def sample_workloads(architecture: str, count: int, seed: int = 0,
                     max_width: Optional[int] = None) -> List[Microbenchmark]:
    """A deterministic stratified subsample of the enumeration.

    The sample covers every design form before repeating forms, preferring
    small widths (synthesis cost grows with width) while still spanning the
    pipeline depths — this is what the default benchmark configuration runs.
    """
    full = enumerate_workloads(architecture, max_width)
    rng = random.Random(seed)
    by_form: Dict[str, List[Microbenchmark]] = {}
    for benchmark in full:
        by_form.setdefault(benchmark.form.name, []).append(benchmark)
    for group in by_form.values():
        group.sort(key=lambda b: (b.width, b.stages, b.signed))
    selected: List[Microbenchmark] = []
    round_index = 0
    while len(selected) < min(count, len(full)):
        progressed = False
        for form_name in sorted(by_form):
            group = by_form[form_name]
            if round_index < len(group) and len(selected) < count:
                selected.append(group[round_index])
                progressed = True
        if not progressed:
            break
        round_index += 1
    rng.shuffle(selected)
    return selected[:count]
