"""Seeded inputs for the three workloads, and the reference checks.

Every draw comes from ``random.Random(seed)``; the program under test only
ever sees the generated Verilog.  Designs are instances of the paper's
§5.1 microbenchmark forms (``repro.workloads.generator``).  Each request
carries a hand-written expected status:

* a form the target's DSP is documented to implement maps (``success``);
* a form the target's DSP cannot implement is ``unsat``: the Xilinx
  pre-adder forms ``((a ± b) * c) ⊙ d`` on Lattice ECP5 or Intel Cyclone 10
  LP (neither has a pre-adder), and the Lattice post-op forms
  ``(a * b) ⊙ c`` on Intel Cyclone 10 LP (a bare multiplier).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.interp import ConcreteInterpreter
from repro.hdl.behavioral import verilog_to_behavioral
from repro.hdl.simulator import Simulator
from repro.workloads.generator import (
    INTEL_FORMS,
    LATTICE_FORMS,
    XILINX_FORMS,
    Microbenchmark,
    WorkloadSpec,
)

LATTICE = "lattice-ecp5"
INTEL = "intel-cyclone10lp"
XILINX = "xilinx-ultrascale-plus"

SUCCESS = "success"
UNSAT = "unsat"

PREADD_FORMS = [form for form in XILINX_FORMS if form.has_preadd]
POST_OP_FORMS = [form for form in LATTICE_FORMS if form.post_op]
_FORMS = {form.name: form for form in XILINX_FORMS}


@dataclass(frozen=True)
class Request:
    """One mapping request: a design, the target, the expected status."""

    design: Microbenchmark
    arch: str
    expected: str

    @property
    def native(self) -> bool:
        return self.expected == SUCCESS


def _design(rng: random.Random, home: str, form: WorkloadSpec, width: int,
            stages: int) -> Microbenchmark:
    return Microbenchmark(home, form, width, stages, rng.random() < 0.5)


def _spread(rng: random.Random, values: Sequence[int], count: int) -> List[int]:
    """``count`` draws that cover ``values`` evenly (each at most once more
    than any other), in random order."""
    drawn = list(values) * (count // len(values))
    drawn += rng.sample(list(values), count % len(values))
    rng.shuffle(drawn)
    return drawn


# --------------------------------------------------------------------------- #
# map-small
# --------------------------------------------------------------------------- #
MAP_SMALL_WIDTHS = range(8, 13)


def map_small_pass(rng: random.Random) -> List[Request]:
    """32 requests, stratified so every pass costs about the same.

    24 native: one Lattice request per form and stage count, two Intel
    requests per stage count.  8 cross-architecture ``unsat``: four
    distinct pre-adder forms, two to Lattice and two to Intel, and four
    distinct Lattice post-op forms to Intel.  Widths and stage counts are
    spread evenly over their ranges; forms, signedness and order are drawn.
    """
    requests = []
    for stages in range(3):
        widths = _spread(rng, MAP_SMALL_WIDTHS, len(LATTICE_FORMS) + 2)
        for form in LATTICE_FORMS:
            requests.append(Request(_design(rng, LATTICE, form, widths.pop(),
                                            stages), LATTICE, SUCCESS))
        for _ in range(2):
            requests.append(Request(_design(rng, INTEL, INTEL_FORMS[0],
                                            widths.pop(), stages), INTEL, SUCCESS))
    unsat = ([(form, LATTICE) for form in rng.sample(PREADD_FORMS, 2)]
             + [(form, INTEL) for form in rng.sample(PREADD_FORMS, 2)]
             + [(form, INTEL) for form in rng.sample(POST_OP_FORMS, 4)])
    widths = _spread(rng, MAP_SMALL_WIDTHS, len(unsat))
    stage_counts = _spread(rng, range(3), len(unsat))
    for form, target in unsat:
        home = XILINX if form.has_preadd else LATTICE
        requests.append(Request(_design(rng, home, form, widths.pop(),
                                        stage_counts.pop()), target, UNSAT))
    rng.shuffle(requests)
    return requests


# --------------------------------------------------------------------------- #
# sweep-xilinx
# --------------------------------------------------------------------------- #
#: Xilinx roster: one sign-twin pair per slot, each drawn from one cost
#: class ``(stage count, forms, widths)``.  Over the whole widths 8–10 /
#: stages 0–2 space one design costs 0.3–20 s on one core
#: (``presub_mul_and`` at one stage, every pre-adder form at two); within
#: a slot the draws cost within about ±20% of each other (measured), so
#: every pass costs about the same whatever the seed.
SWEEP_SLOTS = (
    (0, ("preadd_mul_and", "preadd_mul_xnor", "preadd_mul_add",
         "preadd_mul_sub", "mul"), (8,)),
    (0, ("preadd_mul_and", "preadd_mul_xnor", "preadd_mul_add", "mul"), (10,)),
    (1, ("mul",), (8,)),
    (1, ("preadd_mul_xnor", "preadd_mul_add"), (8,)),
    (2, ("mul",), (8,)),
)


def sweep_pass(rng: random.Random) -> List[Request]:
    """Sign-twin pairs, one per roster slot, in drawn order.

    Twins sit at adjacent indices, so ``run_sweep``'s round-robin sharding
    gives each of its two workers one twin of every pair (twins cost
    within ~20% of each other) and the shards stay balanced.
    """
    slots = list(SWEEP_SLOTS)
    rng.shuffle(slots)
    requests = []
    for stages, forms, widths in slots:
        form = _FORMS[rng.choice(forms)]
        width = rng.choice(widths)
        first = rng.random() < 0.5
        for signed in (first, not first):
            requests.append(Request(Microbenchmark(XILINX, form, width, stages,
                                                   signed), XILINX, SUCCESS))
    return requests


# --------------------------------------------------------------------------- #
# serve-repeat
# --------------------------------------------------------------------------- #
SERVE_WIDTHS = range(8, 13)
SERVE_REQUESTS = 160
#: New designs per pass, per (architecture, stage count).
SERVE_NEW = {LATTICE: 7, INTEL: 1}


def serve_pass(rng: random.Random) -> List[Tuple[Request, bool]]:
    """A closed-loop request stream: ``(request, first time named)``.

    24 of the 160 requests (15%) name a design not sent before in this
    pass; the rest repeat one that was, with drawn signedness.  A design
    is (architecture, form, width, stage count): sign twins share one
    canonical program, so they count as the same design.
    """
    new: List[Tuple[str, WorkloadSpec, int, int]] = []
    for arch, per_stage in SERVE_NEW.items():
        forms = LATTICE_FORMS if arch == LATTICE else INTEL_FORMS
        for stages in range(3):
            # Distinct designs, forms and widths spread evenly.
            while True:
                pairs = list(zip(_spread(rng, forms, per_stage),
                                 _spread(rng, SERVE_WIDTHS, per_stage)))
                if len(set(pairs)) == per_stage:
                    break
            new.extend((arch, form, width, stages) for form, width in pairs)
    rng.shuffle(new)
    first_slots = {0} | set(rng.sample(range(1, SERVE_REQUESTS), len(new) - 1))
    stream: List[Tuple[Request, bool]] = []
    sent: List[Tuple[str, WorkloadSpec, int, int]] = []
    for index in range(SERVE_REQUESTS):
        first = index in first_slots
        if first:
            key = new.pop()
            sent.append(key)
        else:
            key = rng.choice(sent)
        arch, form, width, stages = key
        design = Microbenchmark(arch, form, width, stages, rng.random() < 0.5)
        stream.append((Request(design, arch, SUCCESS), first))
    return stream


def design_key(design: Microbenchmark) -> Tuple[str, str, int, int]:
    return (design.architecture, design.form.name, design.width, design.stages)


# --------------------------------------------------------------------------- #
# Reference checks
# --------------------------------------------------------------------------- #
#: Cycles checked past the design's pipeline depth: the window the mapper
#: verifies (``extra_cycles``, 1 for every request here), and no further.
#: Some Xilinx mappings hold only inside it: ``mul_add`` at 0–1 stages maps
#: with ``AREG=2`` feeding the pre-adder, which reads zero for two cycles
#: and then corrupts the product (see NOTES.md).
CHECK_WINDOW = 1
#: Random stimulus streams per design.
CHECK_TRIALS = 8


def simulate_matches(source: str, program, seed: int) -> bool:
    """Does ``program`` behave like the *source* Verilog?

    The reference is :mod:`repro.hdl.simulator`, which runs the elaborated
    transition system and shares no code with the ℒlr interpreter that
    evaluates ``program``.  Outputs are compared on random streams at
    every cycle from the pipeline depth to ``CHECK_WINDOW`` cycles past it.
    """
    design = verilog_to_behavioral(source)
    horizon = design.pipeline_depth + CHECK_WINDOW + 1
    rng = random.Random(seed)
    for _ in range(CHECK_TRIALS):
        streams = {name: [rng.getrandbits(width) for _ in range(horizon)]
                   for name, width in design.input_widths.items()}
        expected = Simulator.from_verilog(source).run(streams, horizon)
        interpreter = ConcreteInterpreter(program)
        for t in range(design.pipeline_depth, horizon):
            if interpreter.run(streams, t) != expected[t]:
                return False
    return True


#: Record fields a repeat must reproduce exactly; the others are stamped
#: per request (benchmark name, signedness, wall time, cache hit).
PER_REQUEST_FIELDS = ("benchmark", "signed", "time_seconds", "cache_hit")


def outcome_fields(record: Dict[str, object]) -> Dict[str, object]:
    return {key: value for key, value in record.items()
            if key not in PER_REQUEST_FIELDS}
