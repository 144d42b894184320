"""Top-level benchmark drivers.

Two entry points mirror the package's two fidelities:

- :func:`solve_hplai` — run the full distributed algorithm with *real
  data* on a (small) problem; the result contains the numerically exact
  solution, residual and refinement count alongside the simulated
  performance figures.
- :func:`simulate_run` — run the identical rank programs with phantom
  payloads at any scale the event engine can handle; only timing comes
  back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import BenchmarkConfig
from repro.core.executors import ExactExecutor, PhantomExecutor
from repro.core.hplai import hplai_rank_program
from repro.errors import ConfigurationError
from repro.machine import get_machine
from repro.machine.spec import MachineSpec
from repro.machine.topology import CommCosts
from repro.obs import context as obs_context
from repro.obs.provenance import run_provenance
from repro.scenario import Scenario, compile_scenario
from repro.simulate.engine import Engine, EngineResult, RankStats
from repro.util import flops as fl


@dataclass
class RunResult:
    """Outcome of one benchmark run (exact or simulated)."""

    config: BenchmarkConfig
    #: virtual wall-clock of the timed window (factorization + refinement)
    elapsed: float
    elapsed_factorization: float
    elapsed_refinement: float
    #: effective GFLOP/s per GCD, per the HPL-AI rules
    gflops_per_gcd: float
    #: total effective FLOP/s of the run
    total_flops_per_s: float
    ir_iterations: int
    ir_converged: bool
    exact: bool
    residual_norm: float = float("nan")
    x: Optional[np.ndarray] = None
    stats: List[RankStats] = field(default_factory=list)
    trace: List[dict] = field(default_factory=list)
    engine_events: int = 0
    #: point-to-point segment transfers the engine charged — host time
    #: over this is the engine's cost per unit of its own work
    engine_transfers: int = 0
    #: run-provenance block (:func:`repro.obs.run_provenance`) so
    #: recorded runs are comparable across campaigns
    provenance: Optional[dict] = None
    #: :class:`~repro.obs.health.HealthReport` when the run was
    #: monitored (an enabled handle with ``obs.health`` set)
    health: Optional[object] = None

    def summary(self) -> Dict[str, object]:
        """Headline metrics merged with the configuration facts."""
        d = self.config.describe()
        d.update(
            elapsed_s=round(self.elapsed, 6),
            gflops_per_gcd=round(self.gflops_per_gcd, 2),
            total_flops=self.total_flops_per_s,
            ir_iterations=self.ir_iterations,
            ir_converged=self.ir_converged,
        )
        if self.exact:
            d["residual_norm"] = self.residual_norm
        return d


def rank_factory(cfg: BenchmarkConfig, make_executor, trace=None):
    """``factory(rank)`` for :meth:`Engine.run`: the rank program on
    ``make_executor(cfg, p_ir, p_ic, rank)``.  The executor class is the
    whole choice of program (phantom / exact HPL-AI, FP64 HPL)."""

    def factory(rank: int):
        p_ir, p_ic = cfg.grid.coords_of(rank)
        ex = make_executor(cfg, p_ir, p_ic, rank)
        return hplai_rank_program(cfg, ex, rank, trace)

    return factory


def make_engine(cfg: BenchmarkConfig, obs, **engine_kw) -> Engine:
    """The one engine set-up: cost model and engine for ``cfg``, plus
    any further :class:`Engine` keywords (the scenario's
    ``rate_multipliers`` / ``rate_plan`` / ``link_plan``, or
    ``max_events``)."""
    costs = CommCosts(
        cfg.machine, port_binding=cfg.port_binding, gpu_aware=cfg.gpu_aware
    )
    return Engine(
        cfg.num_ranks,
        costs,
        node_of_rank=cfg.node_grid.node_of_rank,
        mpi=cfg.machine.mpi,
        obs=obs,
        **engine_kw,
    )


def _run_ranks(cfg: BenchmarkConfig, make_executor, obs, trace=None,
               **engine_plans) -> EngineResult:
    """:func:`make_engine` for ``cfg``, then :func:`rank_factory`'s
    program on every rank."""
    engine = make_engine(cfg, obs, **engine_plans)
    # Install the handle for the duration of the run so instrumentation
    # points that read the process-wide handle (executors, comm facade)
    # land in the same tracer/registry the engine was given.
    with obs_context.use(obs):
        return engine.run(rank_factory(cfg, make_executor, trace))


def run_benchmark(
    cfg: BenchmarkConfig,
    exact: bool,
    rate_multipliers: Optional[Sequence[float]] = None,
    global_speed: float = 1.0,
    collect_trace: bool = True,
    obs: Optional["obs_context.Observability"] = None,
    progress: Optional[List[dict]] = None,
    scenario: Optional[Scenario] = None,
) -> RunResult:
    """Execute one HPL-AI run on the event engine.

    Parameters
    ----------
    cfg:
        The run configuration.
    exact:
        Real data (numerically exact) vs phantom (timing only).
    rate_multipliers:
        Deprecated adapter for ``scenario=``: per-GCD speed multipliers
        (manufacturing variability / slow nodes), internally wrapped
        into a :class:`~repro.scenario.RateMultipliers` injection.
    global_speed:
        Deprecated adapter for ``scenario=``: uniform speed multiplier
        (warm-up effects, Fig 12); applied on top of
        ``rate_multipliers``.
    obs:
        Observability handle; ``None`` uses the process-wide one
        (disabled no-op by default).  When enabled, the engine/executor/
        comm layers emit spans and metrics into it, driver-level phase
        spans are added, and the handle keeps the run's provenance.
    progress:
        Replacement sink for rank 0's per-panel-column trace records.
        A :class:`~repro.obs.analysis.LiveProgressReporter` here turns
        the run chatty: each appended column is narrated as it lands.
        Implies trace collection regardless of ``collect_trace``.
    scenario:
        A :class:`~repro.scenario.Scenario` of composed injections
        (slow ranks, limplock, crash/restart, link jitter, ...).  The
        scenario is compiled against ``cfg`` — all validation (rank
        bounds, multiplier positivity) happens in that shared path —
        and drives the engine's rate schedules and link perturbations.
        Mutually exclusive with the deprecated raw parameters.
    """
    if global_speed <= 0:
        raise ConfigurationError(f"global_speed must be positive, got {global_speed}")
    if scenario is None:
        scenario = Scenario.from_legacy(
            rate_multipliers=rate_multipliers, global_speed=global_speed
        )
    elif rate_multipliers is not None or global_speed != 1.0:
        raise ConfigurationError(
            "pass scenario= or the legacy rate_multipliers/global_speed "
            "parameters, not both"
        )
    compiled = compile_scenario(scenario, cfg)
    if exact and cfg.panel_precision == "fp16":
        # bf16 panels have FP32's exponent range: no underflow cap.
        from repro.lcg.matrix import HplAiMatrix

        HplAiMatrix(cfg.n, cfg.seed).check_fp16_safe()

    obs = obs if obs is not None else obs_context.current()
    health = getattr(obs, "health", None) if obs.enabled else None
    if health is not None:
        health.attach(obs)
        health.bind_run(cfg)

    trace: List[dict] = progress if progress is not None else []
    outcome = _run_ranks(
        cfg,
        ExactExecutor if exact else PhantomExecutor,
        obs,
        trace if (collect_trace or progress is not None) else None,
        rate_multipliers=compiled.static_multipliers,
        rate_plan=compiled.rate_plan,
        link_plan=compiled.link_plan,
    )

    # Phase times: every rank's timed window is barrier-aligned, so take
    # rank 0's markers.
    r0 = outcome.returns[0]
    elapsed = max(ret["t_total"] for ret in outcome.returns)
    t_fact = max(ret["t_factorization"] for ret in outcome.returns)
    t_ir = max(ret["t_refinement"] for ret in outcome.returns)
    gflops = fl.per_gcd_gflops(cfg.n, cfg.num_ranks, elapsed)

    result = RunResult(
        config=cfg,
        elapsed=elapsed,
        elapsed_factorization=t_fact,
        elapsed_refinement=t_ir,
        gflops_per_gcd=gflops,
        total_flops_per_s=fl.hpl_ai_flops(cfg.n) / elapsed,
        ir_iterations=r0["ir_iterations"],
        ir_converged=r0["ir_converged"],
        exact=exact,
        stats=list(outcome.stats),
        trace=trace,
        engine_events=outcome.events,
        engine_transfers=outcome.transfers,
        provenance=run_provenance(cfg),
    )
    if exact:
        result.residual_norm = r0["residual_norm"]
        result.x = r0["x"]
    if obs.enabled:
        _record_run_telemetry(obs, cfg, result, r0["t_start"])
    if health is not None:
        result.health = health.finalize(result)
    return result


def _record_run_telemetry(obs, cfg, result: RunResult, t_start: float) -> None:
    """Driver-level spans + headline metrics for one finished run."""
    obs.provenance = result.provenance
    t_fact_end = t_start + result.elapsed_factorization
    tracer = obs.tracer
    tracer.add("factorization", "driver", t_start, t_fact_end)
    tracer.add(
        "refinement", "driver", t_fact_end,
        t_fact_end + result.elapsed_refinement,
        attrs={"iterations": result.ir_iterations,
               "converged": result.ir_converged},
    )
    m = obs.metrics
    m.gauge("run.elapsed_s").set(result.elapsed)
    m.gauge("run.gflops_per_gcd").set(result.gflops_per_gcd)
    m.counter("run.ir_iterations").inc(result.ir_iterations)
    m.counter("run.count").inc()
    if result.stats and result.elapsed > 0:
        wait = sum(st.total_wait for st in result.stats)
        m.gauge("run.wait_fraction").set(
            wait / (result.elapsed * len(result.stats))
        )
    h = m.histogram("driver.iteration_s")
    for entry in result.trace:
        h.observe(
            entry.get("panel", 0.0) + entry.get("gemm", 0.0)
            + entry.get("recv", 0.0)
        )


def solve_hplai(
    n: int,
    block: int,
    p_rows: int = 1,
    p_cols: int = 1,
    machine: MachineSpec | str = "summit",
    **kwargs,
) -> RunResult:
    """Solve an HPL-AI system exactly on a simulated distributed machine.

    Convenience wrapper: builds the configuration, runs the real-data
    distributed algorithm, and returns the :class:`RunResult` whose
    ``x`` solves ``A x = b`` to FP64 accuracy.

    >>> res = solve_hplai(n=256, block=32, p_rows=2, p_cols=2)
    >>> res.ir_converged
    True
    """
    if isinstance(machine, str):
        machine = get_machine(machine)
    cfg = BenchmarkConfig(
        n=n, block=block, machine=machine, p_rows=p_rows, p_cols=p_cols, **kwargs
    )
    return run_benchmark(cfg, exact=True)


def simulate_run(
    cfg: BenchmarkConfig,
    rate_multipliers: Optional[Sequence[float]] = None,
    global_speed: float = 1.0,
    obs: Optional["obs_context.Observability"] = None,
    progress: Optional[List[dict]] = None,
    scenario: Optional[Scenario] = None,
) -> RunResult:
    """Timing-only run of the full rank programs at any engine scale."""
    return run_benchmark(
        cfg,
        exact=False,
        rate_multipliers=rate_multipliers,
        global_speed=global_speed,
        obs=obs,
        progress=progress,
        scenario=scenario,
    )
