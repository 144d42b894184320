"""Achievement-run campaigns: the paper's record-run workflow, end to end.

Section VI-B describes how the exascale numbers were actually obtained:
scan the fleet and exclude slow nodes, warm the machine up the right way,
launch several consecutive runs inside one batch job, monitor progress,
and report the best run.  :func:`run_campaign` composes those pieces —
the fleet model, the scanner, the warm-up model, and the analytic run
estimator — into one reproducible workflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.config import BenchmarkConfig
from repro.errors import ConfigurationError
from repro.machine.variability import GcdFleet, WarmupModel
from repro.model.perf_model import estimate_runs
from repro.scenario.compile import compile_scenario
from repro.tools.slownode import ScanReport, scan_fleet
from repro.tools.warmup import WarmupPlan, plan_warmup, warmup_style
from repro.util.format import format_flops, render_table


@dataclass
class CampaignRun:
    """One run within the batch job."""

    index: int
    speed_multiplier: float
    elapsed_s: float
    gflops_per_gcd: float
    total_flops_per_s: float


@dataclass
class CampaignResult:
    """Outcome of a full record-run campaign."""

    config: BenchmarkConfig
    scan: Optional[ScanReport]
    warmup: WarmupPlan
    runs: List[CampaignRun] = field(default_factory=list)
    #: True only when the scan's exclusions were actually applied to the
    #: fleet that hosted the runs; False when exclusion would have left
    #: fewer GCDs than the job needs and the untrimmed fleet ran instead.
    exclusion_applied: bool = False

    @property
    def best(self) -> CampaignRun:
        return max(self.runs, key=lambda r: r.total_flops_per_s)

    @property
    def variability(self) -> float:
        """Max fractional spread across the (post-first) runs."""
        rates = [r.total_flops_per_s for r in self.runs[1:]] or [
            self.runs[0].total_flops_per_s
        ]
        return (max(rates) - min(rates)) / max(rates)

    def render(self) -> str:
        """ASCII table of the campaign's runs (best flagged)."""
        rows = [
            [
                r.index + 1,
                f"{r.speed_multiplier:.4f}",
                f"{r.elapsed_s:.1f}",
                format_flops(r.total_flops_per_s),
                "BEST" if r is self.best else "",
            ]
            for r in self.runs
        ]
        title = (
            f"campaign on {self.config.machine.name}: N={self.config.n:,}, "
            f"{self.config.num_ranks} GCDs"
        )
        if self.scan is not None:
            if self.exclusion_applied:
                title += (
                    f"; excluded {len(self.scan.slow_nodes)} slow node(s) "
                    f"(x{self.scan.projected_speedup:.3f})"
                )
            else:
                title += (
                    f"; scan flagged {len(self.scan.slow_nodes)} slow "
                    f"node(s) but exclusion would leave fewer than "
                    f"{self.config.num_ranks} GCDs — ran the untrimmed fleet"
                )
        return render_table(
            ["run", "speed", "elapsed_s", "throughput", ""], rows, title=title
        )


def run_campaign(
    cfg: BenchmarkConfig,
    fleet: Optional[GcdFleet] = None,
    num_runs: int = 3,
    exclude_slow_nodes: bool = True,
    do_warmup: bool = True,
    scenario=None,
) -> CampaignResult:
    """Execute a record-run campaign against the analytic model.

    Parameters
    ----------
    cfg:
        The run configuration (use the achievement-run presets from
        :mod:`repro.bench.figures` for the paper's numbers).
    fleet:
        GCD fleet; defaults to a seeded fleet of the campaign's size.
        The fleet should be *larger* than the run needs so exclusion has
        spares to draw on.
    num_runs:
        Consecutive runs inside the batch job (the paper used six for
        Fig 12).
    exclude_slow_nodes / do_warmup:
        Toggle the two Section VI-B best practices (for ablation).
    scenario:
        Optional :class:`~repro.scenario.Scenario`: its effective
        pipeline multiplier (the composed schedule's gating rate)
        degrades every run of the campaign on top of the fleet draw and
        warm-up — "what does the record attempt look like if rank 12
        limps mid-run?" is one flag.
    """
    if num_runs < 1:
        raise ConfigurationError(f"num_runs must be >= 1, got {num_runs}")
    scenario_mult = 1.0
    if scenario is not None:
        scenario_mult = compile_scenario(scenario, cfg).pipeline_multiplier
    if fleet is None:
        fleet = GcdFleet(cfg.num_ranks + 4 * cfg.machine.node.gcds_per_node)
    if fleet.num_gcds < cfg.num_ranks:
        raise ConfigurationError(
            f"fleet of {fleet.num_gcds} GCDs cannot host {cfg.num_ranks} ranks"
        )

    scan = None
    effective = fleet
    exclusion_applied = False
    if exclude_slow_nodes:
        scan = scan_fleet(fleet, cfg.machine)
        q = cfg.machine.node.gcds_per_node
        excluded = [
            g for node in scan.slow_nodes
            for g in range(node * q, (node + 1) * q)
            if g < fleet.num_gcds
        ]
        trimmed = fleet.exclude(excluded) if excluded else fleet
        if trimmed.num_gcds >= cfg.num_ranks:
            effective = trimmed
            exclusion_applied = True
    # The slowest GCD actually placed in the job gates the pipeline.
    # Without a scan, the scheduler places the job blindly (the GCDs'
    # speeds are unknown until probed), so the allocation is arbitrary;
    # the scan's whole value is removing the outliers from the pool.
    placed = effective.multipliers[: cfg.num_ranks]
    pipeline = float(placed.min())

    warmup = plan_warmup(cfg.machine)
    wm = WarmupModel(warmup_style(cfg.machine.name))

    speeds = [
        pipeline * scenario_mult * wm.run_multiplier(i, warmed_up=do_warmup)
        for i in range(num_runs)
    ]
    runs = [
        CampaignRun(
            index=i,
            speed_multiplier=speed,
            elapsed_s=res.elapsed,
            gflops_per_gcd=res.gflops_per_gcd,
            total_flops_per_s=res.total_flops_per_s,
        )
        for i, (speed, res) in enumerate(zip(speeds, estimate_runs(cfg, speeds)))
    ]
    return CampaignResult(
        config=cfg, scan=scan, warmup=warmup, runs=runs,
        exclusion_applied=exclusion_applied,
    )
