"""Cycle-accurate simulation of elaborated Verilog modules.

This is the reproduction's stand-in for Verilator: the evaluation validates
every Lakeroad-compiled design by simulating it against the behavioral
input over many consecutive cycles (§5.1).  The simulator runs directly on
the word-level transition system produced by elaboration, so it shares no
code with the ℒlr interpreter it is checking against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.bv.eval import evaluate
from repro.hdl.btor import TransitionSystem
from repro.hdl.elaborate import elaborate
from repro.hdl.parser import parse_module

__all__ = ["Simulator"]


class Simulator:
    """Step-by-step simulation of a :class:`TransitionSystem`."""

    def __init__(self, system: TransitionSystem) -> None:
        self.system = system
        self.state: Dict[str, int] = {name: init for name, (width, init) in system.states.items()}
        self.cycle = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def from_verilog(cls, source: str, module_name: Optional[str] = None) -> "Simulator":
        module = parse_module(source, module_name)
        return cls(elaborate(module))

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Return every register to its initial value."""
        self.state = {name: init for name, (width, init) in self.system.states.items()}
        self.cycle = 0

    def _environment(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        env = dict(self.state)
        for name, width in self.system.inputs.items():
            env[name] = inputs.get(name, 0) & ((1 << width) - 1)
        return env

    def outputs(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Combinational outputs for the given inputs in the current state."""
        env = self._environment(inputs)
        return {name: evaluate(expr, env) for name, expr in self.system.outputs.items()}

    def step(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Advance one clock cycle; returns the outputs sampled *before* the edge."""
        env = self._environment(inputs)
        sampled = {name: evaluate(expr, env) for name, expr in self.system.outputs.items()}
        next_state = {name: evaluate(expr, env)
                      for name, expr in self.system.next_functions.items()}
        self.state.update(next_state)
        self.cycle += 1
        return sampled

    def run(self, input_streams: Mapping[str, Sequence[int]], cycles: int,
            output: Optional[str] = None) -> List[int]:
        """Simulate ``cycles`` cycles; returns the chosen output per cycle.

        ``input_streams`` maps input names to per-cycle value sequences;
        missing cycles reuse the last provided value.
        """
        trace: List[int] = []
        output_name = output
        if output_name is None:
            output_name = next(iter(self.system.outputs))
        for cycle in range(cycles):
            inputs = {}
            for name, stream in input_streams.items():
                index = min(cycle, len(stream) - 1) if len(stream) else 0
                inputs[name] = stream[index] if len(stream) else 0
            sampled = self.step(inputs)
            trace.append(sampled[output_name])
        return trace
