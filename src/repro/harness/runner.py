"""Running tools over microbenchmarks and collecting per-run records."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.baselines import YosysLikeMapper, sota_for
from repro.engine import budget as budget_mod
from repro.engine import stats as stats_mod
from repro.engine.session import MappingSession, default_session
from repro.hdl.behavioral import verilog_to_behavioral
from repro.workloads.generator import Microbenchmark

__all__ = [
    "ExperimentConfig",
    "MappingRecord",
    "record_from_result",
    "MapRequest",
    "record_labels",
    "map_request",
    "map_benchmark",
    "run_lakeroad",
    "run_baselines",
    "records_to_jsonl",
    "records_from_jsonl",
]


@dataclass
class ExperimentConfig:
    """Knobs for an experiment run.

    The paper's full-scale settings are ``timeout_seconds`` of 120/40/20 for
    Xilinx/Lattice/Intel and the complete enumeration; the defaults are the
    laptop-scale budgets derived from the one table in
    :mod:`repro.engine.budget` (see EXPERIMENTS.md for the mapping between
    the two scales).  Architectures missing from ``timeout_seconds`` fall
    back to the engine's canonical (paper-scale) table rather than a flat
    constant, so partial overrides only change the architectures they name.
    """

    timeout_seconds: Dict[str, float] = field(default_factory=budget_mod.laptop_timeouts)
    extra_cycles: int = 1
    validate: bool = False
    template: str = "dsp"
    #: Timing experiments set this to False: a cached result reports the
    #: cache-lookup time, not the synthesis time being measured.  Only
    #: False changes anything: None and True both cache when the session
    #: enables caching (so JSON ``null`` and archived configs still cache).
    use_cache: Optional[bool] = None
    #: Worker processes for the sweep.  1 runs in-process (the historical
    #: serial behavior); >1 shards the benchmark list across worker
    #: processes (see :mod:`repro.engine.parallel`).
    workers: int = 1
    #: Directory for the persistent synthesis cache shared by every worker
    #: (and by later runs); None keeps the cache in-memory and per-process.
    cache_dir: Optional[str] = None
    #: Random-probe budget for the packed (64-lane word-parallel) fast
    #: layers in the solver and the CEGIS candidate step; see
    #: :mod:`repro.bv.bitsim`.  0 disables random probing entirely.
    random_probes: int = 32

    def timeout_for(self, architecture: str) -> float:
        return budget_mod.timeout_for(architecture, self.timeout_seconds)

    def to_dict(self) -> dict:
        """A plain-dict form (JSON-able); the distributed coordinator
        ships this so every worker runs the exact same knobs."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Rebuild from :meth:`to_dict` output, ignoring unknown keys so
        configs from newer coordinators still load."""
        known = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        timeouts = kwargs.get("timeout_seconds")
        if isinstance(timeouts, dict):
            kwargs["timeout_seconds"] = {str(arch): float(value)
                                         for arch, value in timeouts.items()}
        return cls(**kwargs)


@dataclass
class MappingRecord:
    """One (tool, microbenchmark) data point."""

    tool: str
    architecture: str
    benchmark: str
    form: str
    width: int
    stages: int
    signed: bool
    outcome: str              # "success", "unsat", "timeout", "fail"
    time_seconds: float
    dsps: int = 0
    luts: int = 0
    registers: int = 0
    cache_hit: bool = False
    #: The concrete mapper that produced the record (e.g. ``sota-lattice``)
    #: when ``tool`` is a family label like ``sota``; empty otherwise.
    tool_variant: str = ""
    #: The solve's counters map (see :mod:`repro.engine.stats`).  A cache
    #: hit replays the counters of the solve that produced it.
    stats: Dict[str, float] = field(default_factory=stats_mod.new)

    @property
    def mapped(self) -> bool:
        return self.outcome == budget_mod.SUCCESS

    def to_dict(self) -> dict:
        """A plain-dict form (JSON-able; the cross-process wire format)."""
        return asdict(self)

    def comparable(self) -> dict:
        """:meth:`to_dict` minus the per-request fields.

        ``time_seconds`` and every ``*_seconds`` counter are wall-clock
        readings and ``cache_hit`` says whether this request or an earlier
        one ran the solve (see :func:`record_from_result`), so serial,
        sharded, served and distributed runs of the same benchmarks must
        agree on everything else.
        """
        data = self.to_dict()
        del data["time_seconds"], data["cache_hit"]
        data["stats"] = stats_mod.comparable(data["stats"])
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MappingRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Unknown keys are ignored so records written by a newer schema still
        load, and the flat top-level counter keys older records carried are
        lifted into :attr:`stats`, so archived JSONL dumps and distributed
        shard artifacts still load.  Only the counters of
        :data:`~repro.engine.stats.COUNTERS` are taken, flat or nested, so
        an archived record's retired counters do not reappear in sweep
        totals.
        """
        known = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        nested = data.get("stats") or {}
        counters = stats_mod.new()
        for key in stats_mod.COUNTERS:
            if key in nested:
                counters[key] = nested[key]
            elif key in data:
                counters[key] = data[key]
        kwargs["stats"] = counters
        return cls(**kwargs)


def records_to_jsonl(records: Sequence[MappingRecord], path) -> Path:
    """Dump records to a JSON-lines file (one record per line)."""
    path = Path(path)
    path.write_text("".join(json.dumps(record.to_dict()) + "\n"
                            for record in records))
    return path


def records_from_jsonl(path) -> List[MappingRecord]:
    """Load records written by :func:`records_to_jsonl`."""
    records: List[MappingRecord] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            records.append(MappingRecord.from_dict(json.loads(line)))
    return records


def record_from_result(result, *, architecture: str, benchmark: str,
                       form: str = "", width: int = 0, stages: int = 0,
                       signed: bool = False) -> MappingRecord:
    """Build a :class:`MappingRecord` from a session's ``LakeroadResult``.

    The record is the outcome-derived fields of the result stamped with the
    caller's benchmark metadata.  The split matters because results are
    shared across requests (cache hits, and the service front door's
    coalesced duplicates): sign twins share a canonical fingerprint, so the
    same underlying result can legitimately be served under several
    (benchmark, signed) labels.
    """
    resources = result.resources
    return MappingRecord(
        tool="lakeroad",
        architecture=architecture,
        benchmark=benchmark,
        form=form,
        width=width,
        stages=stages,
        signed=signed,
        outcome=result.status,
        time_seconds=result.time_seconds,
        dsps=resources.dsps if resources else 0,
        luts=resources.luts if resources else 0,
        registers=resources.registers if resources else 0,
        cache_hit=result.cache_hit,
        stats=dict(result.stats),
    )


@dataclass(frozen=True)
class MapRequest:
    """One picklable map request plus the metadata its record should carry.

    The solving fields (``verilog`` … ``use_cache``) determine the result;
    the metadata fields (``benchmark`` … ``signed``) only label the
    returned :class:`MappingRecord`, so two requests that differ only in
    metadata legitimately share one solve.
    """

    verilog: str
    template: str = "dsp"
    arch: str = "xilinx-ultrascale-plus"
    module_name: Optional[str] = None
    timeout_seconds: Optional[float] = None
    extra_cycles: int = 1
    validate: bool = False
    use_cache: Optional[bool] = None
    #: Record metadata (benchmark-sourced requests carry the sweep labels;
    #: raw verilog requests leave them defaulted and get the module name).
    benchmark: str = ""
    form: str = ""
    width: int = 0
    stages: int = 0
    signed: bool = False

    @classmethod
    def from_benchmark(cls, benchmark: Microbenchmark,
                       config: Optional[ExperimentConfig] = None
                       ) -> "MapRequest":
        """The request :func:`map_benchmark` runs for one microbenchmark."""
        config = config or ExperimentConfig()
        return cls(verilog=benchmark.verilog,
                   template=config.template,
                   arch=benchmark.architecture,
                   timeout_seconds=config.timeout_for(benchmark.architecture),
                   extra_cycles=config.extra_cycles,
                   validate=config.validate,
                   use_cache=config.use_cache,
                   benchmark=benchmark.name,
                   form=benchmark.form.name,
                   width=benchmark.width,
                   stages=benchmark.stages,
                   signed=benchmark.signed)


def record_labels(request: MapRequest, design) -> Dict[str, Any]:
    """The requester-owned fields of ``request``'s record.

    ``design`` is the request's parsed Verilog: a request without a
    ``benchmark`` label is labelled with its module's name and, without a
    ``width``, its output width.  Every record of a request carries these
    fields, whichever request's solve it shares.
    """
    return dict(architecture=request.arch,
                benchmark=request.benchmark or design.name,
                form=request.form,
                width=request.width or design.output_width,
                stages=request.stages,
                signed=request.signed)


def map_request(session: MappingSession, request: MapRequest) -> MappingRecord:
    """Map one request on a session and record the data point.

    This is the per-item unit of work the serial sweep, the sweep workers
    and the service workers all run, so sharded and served results are
    serial results by construction.
    """
    design = verilog_to_behavioral(request.verilog, request.module_name)
    result = session.map_design(
        design,
        template=request.template,
        arch=request.arch,
        timeout_seconds=request.timeout_seconds,
        extra_cycles=request.extra_cycles,
        validate=request.validate,
        use_cache=request.use_cache,
    )
    return record_from_result(result, **record_labels(request, design))


def map_benchmark(session: MappingSession, benchmark: Microbenchmark,
                  config: Optional[ExperimentConfig] = None) -> MappingRecord:
    """Map one microbenchmark on a session and record the data point."""
    return map_request(session, MapRequest.from_benchmark(benchmark, config))


def run_lakeroad(benchmarks: Sequence[Microbenchmark],
                 config: Optional[ExperimentConfig] = None,
                 session: Optional[MappingSession] = None,
                 workers: Optional[int] = None) -> List[MappingRecord]:
    """Run the Lakeroad mapper over microbenchmarks.

    With ``workers`` of 1 (the default) all runs share one
    :class:`MappingSession` (the process default unless one is supplied),
    so repeated sweeps over the same workloads hit the session's synthesis
    cache instead of re-synthesizing.  With ``workers`` > 1 the benchmark
    list is sharded across worker processes (each with its own session —
    pass ``config.cache_dir`` to share results through the persistent
    cache); the serial run is literally the ``workers=1`` case of that
    sharded code path.
    """
    config = config or ExperimentConfig()
    if workers is None:
        workers = config.workers
    if workers is not None and workers > 1:
        from repro.engine.parallel import run_sweep

        return run_sweep(benchmarks, config, workers=workers,
                         session=session).records
    if session is None:
        from repro.engine.parallel import SessionSpec

        spec = SessionSpec.from_config(config)
        if spec != SessionSpec():
            # The config asks for a non-default session; honour it instead
            # of silently dropping the knobs on the serial path.  The
            # session is ours, so release its disk-cache handle when done.
            with spec.build() as session:
                return [map_benchmark(session, benchmark, config)
                        for benchmark in benchmarks]
        session = default_session()
    return [map_benchmark(session, benchmark, config) for benchmark in benchmarks]


def run_baselines(benchmarks: Sequence[Microbenchmark],
                  tools: Sequence[str] = ("sota", "yosys")) -> List[MappingRecord]:
    """Run the baseline mappers over microbenchmarks.

    Records carry the mapper's own labels: ``tool`` is the family the
    figures aggregate by (``sota`` / ``yosys``) and ``tool_variant`` the
    concrete mapper (e.g. ``sota-lattice``), so attribution follows the
    mapper object rather than its position in a hard-coded list.
    """
    records: List[MappingRecord] = []
    yosys = YosysLikeMapper()
    for benchmark in benchmarks:
        design = verilog_to_behavioral(benchmark.verilog)
        mappers = []
        if "sota" in tools:
            mappers.append(sota_for(benchmark.architecture))
        if "yosys" in tools:
            mappers.append(yosys)
        for mapper in mappers:
            result = mapper.map(design, benchmark.architecture, is_signed=benchmark.signed)
            records.append(MappingRecord(
                tool=mapper.family,
                tool_variant=mapper.name,
                architecture=benchmark.architecture,
                benchmark=benchmark.name,
                form=benchmark.form.name,
                width=benchmark.width,
                stages=benchmark.stages,
                signed=benchmark.signed,
                outcome="success" if result.mapped_to_single_dsp else "fail",
                time_seconds=result.time_seconds,
                dsps=result.resources.dsps,
                luts=result.resources.luts,
                registers=result.resources.registers,
            ))
    return records
