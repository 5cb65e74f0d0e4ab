"""§5.1 solver-portfolio statistics: which layer decides each query.

The paper reports how often each SMT solver in the portfolio finished first
(Bitwuzla 671, STP 519, Yices2 464, cvc5 64).  This reproduction races no
solvers: a query is decided by the first of its layers that can — the
word-level normaliser and structural check, random simulation, or one CDCL
solve (``sat:cdcl`` when verifying, ``sat:fresh`` for a candidate).  This
benchmark runs the sampled workloads and tallies the deciding layer per
CEGIS phase.
"""

from collections import Counter

import pytest

from repro.engine.session import MappingSession
from repro.hdl.behavioral import verilog_to_behavioral
from repro.lakeroad import map_design


@pytest.mark.benchmark(group="portfolio")
def test_portfolio_strategy_wins(benchmark, experiment_config,
                                 intel_benchmarks, lattice_benchmarks):
    # A private uncached session: strategy-win statistics must come from
    # solver runs, not from hits on the default session's synthesis cache
    # warmed by earlier benchmarks.
    session = MappingSession(enable_cache=False)

    def run():
        candidate_wins, verify_wins = Counter(), Counter()
        for bench in list(intel_benchmarks) + list(lattice_benchmarks):
            design = verilog_to_behavioral(bench.verilog)
            result = map_design(design, arch=bench.architecture,
                                timeout_seconds=experiment_config.timeout_for(
                                    bench.architecture),
                                validate=False, session=session)
            if result.synthesis is not None:
                candidate_wins[result.synthesis.candidate_strategy] += 1
                verify_wins[result.synthesis.verify_strategy] += 1
        return candidate_wins, verify_wins

    candidate_wins, verify_wins = benchmark.pedantic(run, iterations=1, rounds=1)
    print("\ncandidate-phase strategy wins:", dict(candidate_wins))
    print("verification-phase strategy wins:", dict(verify_wins))
    assert sum(candidate_wins.values()) > 0
    # The cheap strategies (normalisation / simulation / structural checks)
    # should win a substantial share, mirroring the paper's observation that
    # the fastest portfolio member varies by query.
    assert len(candidate_wins) >= 1 and len(verify_wins) >= 1
