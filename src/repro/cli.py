"""Command-line interface: ``hplai-sim`` (or ``python -m repro``).

Subcommands mirror the workflows in the paper:

- ``solve``   — numerically exact distributed solve (small N);
- ``run``     — timing simulation of a configuration (event engine);
- ``model``   — analytic estimate of a configuration at any scale;
- ``tune``    — block-size / node-grid parameter search;
- ``scan``    — slow-GCD mini-benchmark sweep;
- ``figure``  — regenerate a paper table/figure by id;
- ``trace``   — simulate with full observability and export a
  Chrome/Perfetto trace (open in https://ui.perfetto.dev);
- ``profile`` — analyze a trace: critical path, load imbalance, comm
  matrix, model-vs-measured deviation, regression deltas;
- ``metrics`` — simulate with observability and print the metrics table;
- ``health``  — simulate under the online health monitor (straggler /
  collapse / limplock detectors + run watchdog) and report findings;
- ``dashboard`` — render trace + time series + health findings into one
  self-contained HTML file (``--campaign STORE`` renders the
  campaign-level page: sweep heatmap, trajectories, worker Gantt);
- ``bench``   — hot-path benchmark harness (writes the hotpaths record
  under benchmarks/results/), with a ``--against`` regression gate;
- ``campaign`` — the §VI-B record-run workflow; with sweep flags, a
  sharded parallel sweep with a resumable queue, content-addressed run
  cache and queryable result store (docs/CAMPAIGN.md);
- ``fleet``   — campaign analytics over a result store: GF/s heatmaps,
  best/worst cells, health/cache rollups, worker utilization, and a
  ``--against`` trend gate (docs/OBSERVABILITY.md);
- ``serve``   — long-lived campaign HTTP/JSON API: cached/deduped run
  requests, streamed progress, Prometheus ``/metrics``;
- ``lint``    — static analysis (precision-flow, tag-space,
  collective-matching, hygiene, trace-schema) with baseline support;
- ``specs``   — print machine presets.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__
from repro.broadcasts import BCAST_NAMES


def _add_machine_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--machine", choices=("summit", "frontier"), default="frontier",
        help="machine preset (default: frontier)",
    )


def _add_run_args(p: argparse.ArgumentParser) -> None:
    _add_machine_arg(p)
    p.add_argument("--nl", type=int, default=None,
                   help="local matrix size N_L (default: paper value)")
    p.add_argument("-b", "--block", type=int, default=None,
                   help="block size B (default: paper value)")
    p.add_argument("-p", "--grid", type=int, default=4,
                   help="process grid dimension P_r = P_c (default 4)")
    p.add_argument("--qr", type=int, default=None, help="node-local grid rows")
    p.add_argument("--qc", type=int, default=None, help="node-local grid cols")
    p.add_argument("--bcast", default=None,
                   choices=BCAST_NAMES,
                   help="panel broadcast algorithm (default: machine best)")
    p.add_argument("--no-lookahead", action="store_true")
    p.add_argument("--no-gpu-aware", action="store_true")
    p.add_argument("--no-port-binding", action="store_true")


def _add_scenario_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", default=None, metavar="FILE",
                   help="declarative fault/variability scenario JSON "
                        "(repro.scenario/v1; see docs/SCENARIOS.md)")


def _add_health_args(p: argparse.ArgumentParser) -> None:
    _add_scenario_arg(p)
    p.add_argument("--slow-rank", type=int, default=None, metavar="R",
                   help="inject a slow GCD at rank R (sugar for a "
                        "one-injection scenario; composes with --scenario)")
    p.add_argument("--slow-factor", type=float, default=1.5,
                   help="slowdown factor for --slow-rank (default 1.5)")
    p.add_argument("--cadence", type=float, default=None,
                   help="sampling cadence in virtual seconds "
                        "(default: auto from the analytic model)")
    p.add_argument("--straggler-threshold", type=float, default=0.3,
                   help="busy-rate drift fraction over the fleet median "
                        "that flags a straggler (default 0.3)")
    p.add_argument("--watchdog-margin", type=float, default=None,
                   help="deadline inflation over the analytic model "
                        "(default 25)")


def _build_config(args, n_override: Optional[int] = None):
    from repro.core.config import BenchmarkConfig
    from repro.machine import get_machine

    machine = get_machine(args.machine)
    defaults = {
        "summit": dict(nl=61440, block=768, bcast="bcast"),
        "frontier": dict(nl=119808, block=3072, bcast="ring2m"),
    }[machine.name]
    nl = args.nl or defaults["nl"]
    block = args.block or defaults["block"]
    kwargs = dict(
        n=n_override if n_override is not None else nl * args.grid,
        block=block,
        machine=machine,
        p_rows=args.grid,
        p_cols=args.grid,
        bcast_algorithm=args.bcast or defaults["bcast"],
        lookahead=not args.no_lookahead,
        gpu_aware=not args.no_gpu_aware,
        port_binding=not args.no_port_binding,
    )
    if args.qr:
        kwargs["q_rows"] = args.qr
    if args.qc:
        kwargs["q_cols"] = args.qc
    return BenchmarkConfig(**kwargs)


def _scenario_from_args(args, cfg):
    """The run's :class:`~repro.scenario.Scenario` from the CLI flags.

    ``--scenario FILE`` loads a declarative scenario document;
    ``--slow-rank R --slow-factor F`` is sugar for a one-injection
    scenario and composes with a loaded file.  All validation lives in
    the scenario layer; configuration problems surface as a clean
    ``SystemExit`` instead of a traceback.  Returns ``None`` when
    neither flag is present.
    """
    from repro.errors import ConfigurationError
    from repro.scenario import Scenario

    try:
        scenario = None
        path = getattr(args, "scenario", None)
        if path:
            scenario = Scenario.load(path)
        slow_rank = getattr(args, "slow_rank", None)
        if slow_rank is not None:
            sugar = Scenario.single_slow_rank(
                slow_rank, getattr(args, "slow_factor", 1.5)
            )
            if scenario is None:
                scenario = sugar
            else:
                scenario = Scenario(
                    name=scenario.name,
                    description=scenario.description,
                    injections=scenario.injections + sugar.injections,
                )
        if scenario is not None:
            scenario.validate_for(cfg.num_ranks)
        return scenario
    except ConfigurationError as exc:
        raise SystemExit(f"scenario: {exc}")


def _print_result(res, out=None) -> None:
    from repro.util.format import format_flops, format_seconds

    out = out if out is not None else sys.stdout
    s = res.summary()
    for key, val in s.items():
        print(f"  {key:>16}: {val}", file=out)
    print(f"  {'throughput':>16}: {format_flops(res.total_flops_per_s)}", file=out)
    print(f"  {'wall (virtual)':>16}: {format_seconds(res.elapsed)}", file=out)


def cmd_solve(args) -> int:
    """Run a numerically exact distributed solve and report accuracy."""
    from repro.core.driver import solve_hplai

    res = solve_hplai(
        n=args.n, block=args.block, p_rows=args.grid, p_cols=args.grid,
        machine=args.machine,
    )
    print(f"solved N={args.n} on a {args.grid}x{args.grid} grid "
          f"({args.machine} model)")
    print(f"  residual ||b-Ax||_inf = {res.residual_norm:.3e}")
    print(f"  IR iterations         = {res.ir_iterations} "
          f"(converged={res.ir_converged})")
    print(f"  simulated time        = {res.elapsed:.6f} s "
          f"({res.gflops_per_gcd:.1f} GFLOPS/GCD)")
    return 0 if res.ir_converged else 1


def cmd_run(args) -> int:
    """Simulate a configuration on the discrete-event engine.

    With ``--scenario`` the run executes under the scenario's composed
    injections *with the health monitor attached*, so the same command
    demonstrates both the fault and its detection; ``--health-json``
    saves the resulting health report for CI assertions.
    """
    from repro.core.driver import simulate_run

    cfg = _build_config(args)
    scenario = _scenario_from_args(args, cfg)
    progress = None
    if args.progress:
        from repro.obs.analysis import LiveProgressReporter

        progress = LiveProgressReporter(
            cfg, stream=sys.stdout, every=args.progress_every
        )
    if scenario is not None:
        from repro.obs import Observability
        from repro.obs.health import HealthMonitor

        print(f"scenario: {scenario.describe()}")
        obs = Observability(health=HealthMonitor())
        res = simulate_run(cfg, scenario=scenario, obs=obs,
                           progress=progress)
    else:
        res = simulate_run(cfg, progress=progress)
    print("event-engine simulation:")
    _print_result(res)
    if res.health is not None:
        rep = res.health
        if rep.findings:
            print(f"  health: {len(rep.findings)} finding(s), degraded "
                  f"rank(s) {rep.degraded_ranks}")
            kinds = sorted({f.get("kind", "?") for f in rep.findings})
            print(f"    kinds: {', '.join(kinds)}")
        else:
            print("  health: no findings")
        if getattr(args, "health_json", None):
            from pathlib import Path

            from repro.obs.export import dumps_strict

            Path(args.health_json).write_text(
                dumps_strict(rep.to_dict(), indent=2) + "\n"
            )
            print(f"  health report -> {args.health_json}")
    if args.json:
        from repro.core.report import save_report

        print(f"  report -> {save_report(res, args.json)}")
    if args.trace:
        from repro.core.report import save_trace_csv

        print(f"  trace  -> {save_trace_csv(res, args.trace)}")
    return 0


def cmd_model(args) -> int:
    """Estimate a configuration with the analytic model."""
    from repro.model.perf_model import estimate_run

    cfg = _build_config(args)
    scenario = _scenario_from_args(args, cfg)
    if scenario is not None:
        print(f"scenario: {scenario.describe()}")
    res = estimate_run(cfg, scenario=scenario)
    print("analytic model estimate:")
    _print_result(res)
    print("  breakdown (s):")
    for k, v in res.breakdown.items():
        print(f"    {k:>14}: {v:.2f}")
    if args.json:
        from repro.core.report import save_report

        print(f"  report -> {save_report(res, args.json)}")
    return 0


def cmd_tune(args) -> int:
    """Sweep block sizes or node-local grids with the tuner."""
    from repro.bench.reporting import render_records
    from repro.machine import get_machine
    from repro.model.tuner import sweep_block_sizes, sweep_node_grids

    machine = get_machine(args.machine)
    defaults = {"summit": (61440, 768, "bcast"),
                "frontier": (119808, 3072, "ring2m")}[machine.name]
    nl = args.nl or defaults[0]
    if args.what == "block":
        blocks = [int(b) for b in args.values.split(",")] if args.values else [
            256, 512, 768, 1024, 1536, 2048, 3072,
        ]
        rows = sweep_block_sizes(machine, nl, args.grid, blocks,
                                 bcast_algorithm=defaults[2])
        print(render_records(rows, title=f"B sweep on {machine.name}"))
    else:
        rows = sweep_node_grids(machine, nl, args.block or defaults[1],
                                args.grid, defaults[2])
        print(render_records(rows, title=f"node-grid sweep on {machine.name}"))
    return 0


def cmd_scan(args) -> int:
    """Scan a simulated GCD fleet for slow outliers."""
    from repro.machine import GcdFleet, get_machine
    from repro.tools.slownode import scan_fleet

    machine = get_machine(args.machine)
    fleet = GcdFleet(args.gcds, seed=args.seed)
    report = scan_fleet(fleet, machine)
    print(report.render(top=args.top))
    return 0


FIGURES = {
    "table1": ("table1_specs", "Table I: architectural specifications"),
    "table2": ("table2_blas_mapping", "Table II: BLAS mapping"),
    "fig3": ("fig3_gemm_heatmap", "Fig 3: GEMM heat map"),
    "fig4": ("fig4_blocksize_total", "Fig 4: B tuning at scale"),
    "fig5": ("fig5_v100_kernels", "Fig 5: V100 kernel rates"),
    "fig6": ("fig6_mi250x_kernels", "Fig 6: MI250X kernel rates"),
    "fig7": ("fig7_lda_effect", "Fig 7: LDA effect"),
    "fig8": ("fig8_comm_strategies", "Fig 8: comm strategies x grids"),
    "fig9": ("fig9_weak_scaling", "Fig 9: weak scaling"),
    "fig10": ("fig10_timing_breakdown", "Fig 10: timing breakdown"),
    "fig11": ("fig11_exascale_runs", "Fig 11: exascale runs"),
    "fig12": ("fig12_variability", "Fig 12: run variability"),
    "hpl": ("hpl_vs_hplai", "HPL-AI vs HPL"),
    "nl": ("nl_tuning", "Section V-D: N_L tuning"),
    "scan": ("slownode_scan", "Section VI-B: slow-node scan"),
    "strong": ("strong_scaling", "Section VI-A: strong scaling"),
    "lookahead": ("ablation_lookahead", "Ablation: look-ahead"),
    "projection": ("frontier_vs_summit_projection",
                   "Full-scale Frontier vs Summit"),
    "roofline": ("roofline_report", "Roofline analysis (balance)"),
}


def cmd_dat(args) -> int:
    """Expand an HPL.dat file into runs and report the sweep."""
    from repro.bench.reporting import render_records
    from repro.core.driver import simulate_run
    from repro.io.hpldat import expand_configs, parse_hpldat
    from repro.model.perf_model import estimate_run

    dat = parse_hpldat(args.file)
    rows = []
    for cfg in expand_configs(dat):
        if args.engine:
            res = simulate_run(cfg)
        else:
            res = estimate_run(cfg)
        rows.append(
            {
                "N": cfg.n,
                "NB": cfg.block,
                "PxQ": f"{cfg.p_rows}x{cfg.p_cols}",
                "bcast": cfg.bcast_algorithm,
                "elapsed_s": res.elapsed,
                "gflops_per_gcd": res.gflops_per_gcd,
            }
        )
    mode = "event engine" if args.engine else "analytic model"
    print(render_records(rows, title=f"HPL.dat sweep ({mode})"))
    best = max(rows, key=lambda r: r["gflops_per_gcd"])
    print(f"\nbest: N={best['N']}, NB={best['NB']}, {best['PxQ']} "
          f"-> {best['gflops_per_gcd']:,.0f} GFLOPS/GCD")
    return 0


def cmd_campaign(args) -> int:
    """Record-run campaign: one config, or a sharded parallel sweep.

    Without sweep flags this is the classic §VI-B single-config
    workflow (scan, warm up, N consecutive runs, best-of report).  Any
    of --sweep/--grids/--bcasts/--scenarios/--store/--resume/--workers>1
    switches to the campaign engine: a persistent resumable job queue,
    a content-addressed run cache, a multiprocessing worker pool, and a
    queryable result store (see docs/CAMPAIGN.md).
    """
    if (args.sweep or args.grids or args.bcasts or args.scenarios
            or args.store or args.resume or args.workers > 1
            or args.against or args.export):
        return _cmd_campaign_sweep(args)
    from repro.machine import GcdFleet
    from repro.tools.campaign import run_campaign

    cfg = _build_config(args)
    scenario = _scenario_from_args(args, cfg)
    if scenario is not None:
        print(f"scenario: {scenario.describe()}")
    fleet = GcdFleet(
        cfg.num_ranks + args.spare_nodes * cfg.machine.node.gcds_per_node,
        seed=args.seed,
    )
    res = run_campaign(
        cfg, fleet=fleet, num_runs=args.runs,
        exclude_slow_nodes=not args.no_scan,
        do_warmup=not args.no_warmup,
        scenario=scenario,
    )
    print(res.render())
    from repro.util.format import format_flops

    print(f"\nbest run: {format_flops(res.best.total_flops_per_s)} "
          f"(run {res.best.index + 1}); post-first variability "
          f"{res.variability:.2%}")
    return 0


#: default location of the campaign store (queue/cache live beside it)
DEFAULT_CAMPAIGN_STORE = "benchmarks/results/campaign/store.jsonl"


def _campaign_paths(args):
    """Resolve (store, queue, cache-dir) paths from the CLI flags."""
    from pathlib import Path

    store = Path(args.store or DEFAULT_CAMPAIGN_STORE)
    queue = Path(args.queue) if args.queue else store.parent / "queue.json"
    cache = Path(args.cache_dir) if args.cache_dir else store.parent / "cache"
    return store, queue, cache


def _cmd_campaign_sweep(args) -> int:
    """The campaign engine path: queue + cache + store + worker pool."""
    from pathlib import Path

    from repro.bench.reporting import render_records
    from repro.campaign import (
        CampaignEngine,
        JobQueue,
        ResultStore,
        RunCache,
        SweepSpec,
        compare_stores,
    )
    from repro.errors import ConfigurationError
    from repro.util.atomicio import atomic_write_json

    def _csv(raw, conv=str):
        return [conv(v) for v in raw.split(",") if v] if raw else []

    try:
        if args.sweep:
            spec = SweepSpec.load(args.sweep)
        else:
            scenarios = _csv(args.scenarios) or (
                [args.scenario] if args.scenario else [None]
            )
            spec = SweepSpec(
                machine=args.machine, nl=args.nl, block=args.block,
                num_runs=args.runs, seed=args.seed,
                spare_nodes=args.spare_nodes,
                grids=_csv(args.grids, int) or [args.grid],
                bcasts=_csv(args.bcasts) or
                ([args.bcast] if args.bcast else ()),
                scenarios=scenarios,
            )
        jobs = spec.expand()
        store_path, queue_path, cache_dir = _campaign_paths(args)
        if queue_path.exists() and not args.resume:
            queue_path.unlink()
        store = ResultStore(store_path)
        queue = JobQueue(queue_path)
        engine = CampaignEngine(
            store, RunCache(cache_dir),
            workers=args.workers, stream=sys.stdout,
        )
        outcome = engine.run_sweep(jobs, queue)
    except ConfigurationError as exc:
        raise SystemExit(f"campaign: {exc}")

    print(render_records(
        store.rows(),
        title=f"campaign store: {store_path} ({len(store)} row(s))",
        float_fmt="{:.3f}",
    ))
    print(
        f"\nsweep: {outcome.total} job(s), {outcome.computed} computed, "
        f"{outcome.cached} cached ({outcome.cache_hit_ratio:.0%} hit), "
        f"{outcome.failed} failed, {outcome.workers} worker(s), "
        f"{outcome.wall_s:.2f}s wall"
    )
    rc = 1 if outcome.failed else 0
    if args.export:
        atomic_write_json(args.export, store.export_document())
        print(f"store export -> {args.export}")
    if args.summary_json:
        atomic_write_json(args.summary_json, outcome.to_dict())
        print(f"summary -> {args.summary_json}")
    if args.against:
        from repro.bench.regression import render_regressions

        try:
            deltas = compare_stores(store, Path(args.against),
                                    args.max_regress)
        except ConfigurationError as exc:
            raise SystemExit(f"campaign: {exc}")
        print()
        print(render_regressions(deltas, args.max_regress))
        if any(d.regressed for d in deltas):
            rc = 1
    return rc


def cmd_serve(args) -> int:
    """Serve the campaign API over HTTP until interrupted."""
    from repro.campaign.serve import make_server

    store_path, _queue, cache_dir = _campaign_paths(args)
    server = make_server(
        store_path, cache_dir, host=args.host, port=args.port,
        verbose=args.verbose,
    )
    host, port = server.server_address[:2]
    print(f"repro serve listening on http://{host}:{port} "
          f"(store={store_path}, cache={cache_dir})")
    print("endpoints: GET /healthz /stats /metrics /results "
          "/results/<key>; POST /run[?stream=1] /tune /profile")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
    return 0


#: figures that can be rendered as terminal plots: id -> (x, y, group, logx)
_PLOTTABLE = {
    "fig4": ("B", "gflops_per_gcd", "machine", False),
    "fig9": ("gcds", "gflops_per_gcd", "machine", True),
    "fig10": ("iteration", "comm_fraction_pct", None, False),
    "fig12": ("run", "relative_perf_pct", "machine", False),
}


def cmd_figure(args) -> int:
    """Regenerate one paper table/figure (optionally plotted)."""
    from repro.bench import figures as figmod
    from repro.bench.reporting import render_records

    fn_name, title = FIGURES[args.id]
    rows = getattr(figmod, fn_name)()
    print(render_records(rows, title=title, float_fmt="{:.3f}"))
    if args.plot:
        from repro.bench.ascii_plot import line_plot, records_to_series

        if args.id == "fig3":
            from repro.bench.ascii_plot import heat_map

            col_keys = [k for k in rows[0] if k.startswith("k=")]
            print()
            print(heat_map(
                [[r[c] for c in col_keys] for r in rows],
                [r["m=n"] for r in rows],
                [c[2:] for c in col_keys],
                title="Fig 3: GEMM TFLOP/s (rows: m=n, cols: k)",
            ))
        elif args.id in _PLOTTABLE:
            x, y, group, logx = _PLOTTABLE[args.id]
            if group is None:
                series = {"rank 0": [(r[x], r[y]) for r in rows]}
            else:
                series = records_to_series(rows, x, y, group)
            print()
            print(line_plot(series, title=title, x_label=x, y_label=y,
                            logx=logx))
        else:
            print("\n(no plot renderer for this figure; table only)")
    return 0


def cmd_gantt(args) -> int:
    """Simulate a small run and render its per-rank Gantt timeline."""
    from repro.core.executors import PhantomExecutor
    from repro.core.hplai import hplai_rank_program
    from repro.machine.topology import CommCosts
    from repro.simulate.engine import Engine
    from repro.simulate.timeline import busy_fraction, render_gantt

    cfg = _build_config(args)
    if cfg.num_ranks > 64:
        print("gantt is meant for small runs; use -p <= 8")
        return 1
    costs = CommCosts(cfg.machine, port_binding=cfg.port_binding,
                      gpu_aware=cfg.gpu_aware)
    engine = Engine(
        cfg.num_ranks, costs, node_of_rank=cfg.node_grid.node_of_rank,
        mpi=cfg.machine.mpi, record_timeline=True,
    )

    def factory(rank):
        p_ir, p_ic = cfg.grid.coords_of(rank)
        return hplai_rank_program(
            cfg, PhantomExecutor(cfg, p_ir, p_ic, rank), rank, None
        )

    result = engine.run(factory)
    print(render_gantt(engine.timeline, width=args.width))
    fracs = busy_fraction(engine.timeline, result.elapsed)
    mean_busy = sum(fracs.values()) / len(fracs)
    print(f"\nelapsed {result.elapsed:.3f}s (virtual); mean GCD busy "
          f"fraction {mean_busy:.0%}")
    return 0


def _observed_run(args):
    """Simulate ``args``'s configuration with telemetry enabled."""
    from repro.core.driver import simulate_run
    from repro.obs import Observability

    cfg = _build_config(args)
    obs = Observability(capacity=getattr(args, "max_spans", None))
    res = simulate_run(cfg, obs=obs)
    return cfg, obs, res


def cmd_trace(args) -> int:
    """Simulate a run and export its unified trace (Chrome/Perfetto).

    Exports are written in the canonical span order (start, end, rank,
    cat, name) so two traces of the same run diff cleanly; --category /
    --rank narrow the export to the lanes under study.
    """
    cfg, obs, res = _observed_run(args)
    sel = dict(cats=args.category or None, ranks=args.rank or None, sort=True)
    path = obs.export_chrome_trace(args.out, **sel)
    cats = obs.tracer.categories()
    print(f"simulated N={cfg.n} on {cfg.p_rows}x{cfg.p_cols} "
          f"({cfg.machine.name} model): {res.elapsed:.3f}s virtual")
    print(f"  {len(obs.tracer)} spans "
          f"({', '.join(f'{c}: {n}' for c, n in sorted(cats.items()))}"
          f"{f'; dropped {obs.tracer.dropped}' if obs.tracer.dropped else ''})")
    if args.category or args.rank:
        from repro.obs.export import select_spans

        # the exporter's own selection mask over the columns: a count,
        # with no span objects and no second sort
        kept = len(select_spans(obs.tracer.columns(), sel["cats"], sel["ranks"]))
        print(f"  exported {kept} spans after --category/--rank filters")
    print(f"  chrome trace -> {path}  (open in https://ui.perfetto.dev)")
    from repro.obs.export import spans_companion

    companion = spans_companion(path)
    if companion.exists():
        print(f"  span columns -> {companion}  (what repro profile reads)")
    if args.jsonl:
        print(f"  span log     -> {obs.export_jsonl(args.jsonl, **sel)}")
    if args.json:
        from repro.core.report import save_report

        print(f"  report       -> {save_report(res, args.json, obs=obs)}")
    return 0


def cmd_profile(args) -> int:
    """Analyze an exported trace: critical path, imbalance, comm matrix,
    model-vs-measured deviation, and optional regression gating."""
    import json
    from pathlib import Path

    from repro.obs.analysis import (
        build_profile,
        compare_profiles,
        load_profile_input,
    )
    from repro.obs.export import dumps_strict

    pi = load_profile_input(args.trace)
    rep = build_profile(
        pi,
        threshold=args.straggler_threshold,
        with_model=not args.no_model,
    )
    doc = rep.to_dict()
    if args.format == "json":
        text = dumps_strict(doc, indent=2)
    elif args.format == "csv":
        text = "\n".join(
            ",".join(str(c) for c in row) for row in rep.csv_rows()
        )
    else:
        text = rep.render_text()
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)

    rc = 0
    if args.against:
        from repro.bench.regression import render_regressions

        baseline = json.loads(Path(args.against).read_text())
        deltas = compare_profiles(doc, baseline, args.max_regress)
        print()
        print(render_regressions(deltas, args.max_regress))
        if any(d.regressed for d in deltas):
            rc = 1
    if args.max_dev is not None:
        if rep.deviation is None:
            print("profile: --max-dev given but no model comparison was "
                  "possible (trace has no usable provenance)")
            rc = 2
        else:
            worst = rep.deviation.worst()
            if worst is not None and abs(worst.deviation) > args.max_dev:
                print(f"profile: phase {worst.phase!r} deviates "
                      f"{worst.deviation:+.1%} from the model "
                      f"(budget ±{args.max_dev:.0%})")
                rc = 1
    return rc


def _monitored_run(args):
    """Simulate with a health monitor attached (optional --scenario
    file and/or --slow-rank sugar)."""
    from repro.core.driver import simulate_run
    from repro.obs import Observability
    from repro.obs.health import HealthMonitor, RunWatchdog

    cfg = _build_config(args)
    scenario = _scenario_from_args(args, cfg)
    monitor = HealthMonitor(
        cadence=getattr(args, "cadence", None),
        straggler_threshold=getattr(args, "straggler_threshold", 0.3),
        watchdog=RunWatchdog(
            margin=getattr(args, "watchdog_margin", None) or 25.0
        ),
    )
    obs = Observability(health=monitor)
    res = simulate_run(cfg, scenario=scenario, obs=obs)
    return cfg, obs, res


def cmd_health(args) -> int:
    """Run under the health monitor and print/save the health report.

    Exit code 1 with --fail-on-findings when any detector fired (CI
    uses this as the run-health gate).
    """
    from pathlib import Path

    from repro.obs.export import dumps_strict

    cfg, obs, res = _monitored_run(args)
    rep = res.health
    if args.json or args.out:
        text = dumps_strict(rep.to_dict(), indent=2)
    else:
        text = rep.render_text()
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    if args.fail_on_findings and not rep.healthy:
        return 1
    return 0


def cmd_fleet(args) -> int:
    """Campaign analytics over a result store (the fleet document).

    With ``--against``, gates every heatmap cell through the shared
    :func:`repro.campaign.store.compare_stores` regression engine and
    exits 1 on drift.
    """
    import json

    from repro.errors import ConfigurationError
    from repro.obs.fleet import (
        build_fleet,
        render_fleet_csv,
        render_fleet_text,
    )
    from repro.util.atomicio import atomic_write_text

    try:
        doc = build_fleet(
            args.store, artifacts=args.artifacts, summary=args.summary,
            baselines=args.against or (), max_regress=args.max_regress,
        )
    except ConfigurationError as exc:
        raise SystemExit(f"fleet: {exc}")
    if args.format == "json":
        rendered = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        rendered = render_fleet_csv(doc)
    else:
        rendered = render_fleet_text(doc) + "\n"
    if args.out:
        atomic_write_text(args.out, rendered)
        print(f"fleet document -> {args.out}")
    else:
        print(rendered, end="")
    if args.against and args.format == "text" and not args.out:
        from repro.bench.regression import render_regressions
        from repro.campaign.store import compare_stores

        for baseline in args.against:
            print()
            print(render_regressions(
                compare_stores(args.store, baseline, args.max_regress),
                args.max_regress,
            ))
    return 1 if doc.get("regressed") else 0


def _cmd_campaign_dashboard(args) -> int:
    """The ``dashboard --campaign STORE`` branch: fleet-level HTML."""
    from pathlib import Path

    from repro.errors import ConfigurationError
    from repro.obs.fleet import build_fleet, render_campaign_dashboard
    from repro.obs.health import validate_self_contained

    try:
        doc = build_fleet(
            args.campaign, artifacts=args.artifacts,
            baselines=args.against or (),
        )
    except ConfigurationError as exc:
        raise SystemExit(f"dashboard: {exc}")
    html = render_campaign_dashboard(
        doc, title=f"repro campaign dashboard: {args.campaign}"
    )
    problems = validate_self_contained(html)
    Path(args.out).write_text(html)
    cells = len(doc.get("heatmap", {}).get("cells", []))
    print(f"wrote {args.out} ({len(html)} bytes, {cells} cell(s), "
          f"{len(doc.get('workers', {}).get('per_worker', []))} worker(s))")
    for prob in problems:
        print(f"dashboard: {prob}")
    return 1 if problems else 0


def cmd_dashboard(args) -> int:
    """Render the self-contained HTML dashboard for a run.

    Either simulates fresh (run args, optional --slow-rank), renders
    from previously exported artifacts (--trace plus optional
    --health), or renders the campaign-level page from a result store
    (--campaign).
    """
    import json
    from pathlib import Path

    from repro.obs.health import render_dashboard, validate_self_contained

    if args.campaign:
        return _cmd_campaign_dashboard(args)
    if args.trace:
        from repro.obs.analysis import load_profile_input

        pi = load_profile_input(args.trace)
        health_doc = (
            json.loads(Path(args.health).read_text())
            if args.health else None
        )
        title = f"repro dashboard: {args.trace}"
    else:
        from repro.obs.analysis import from_observability

        cfg, obs, res = _monitored_run(args)
        pi = from_observability(obs)
        health_doc = res.health.to_dict()
        title = (
            f"repro dashboard: N={cfg.n} {cfg.p_rows}x{cfg.p_cols} "
            f"on {cfg.machine.name}"
        )
    html = render_dashboard(pi, health_doc, title=title)
    problems = validate_self_contained(html)
    Path(args.out).write_text(html)
    print(f"wrote {args.out} ({len(html)} bytes, "
          f"{len(pi.spans)} spans, "
          f"{len((health_doc or {}).get('findings') or [])} finding(s))")
    for prob in problems:
        print(f"dashboard: {prob}")
    return 1 if problems else 0


def cmd_metrics(args) -> int:
    """Simulate a run and print its metrics registry."""
    from repro.util.format import render_table

    cfg, obs, res = _observed_run(args)
    fmt = "prometheus" if args.prom else args.format
    if fmt == "prometheus":
        print(obs.metrics_text(), end="")
        return 0
    rows = obs.metrics.rows()
    table_rows = [
        [r["metric"], r["labels"], r["kind"],
         f"{r['value']:.6g}" if isinstance(r["value"], float) else r["value"],
         r["count"]]
        for r in rows
    ]
    print(render_table(
        ["metric", "labels", "kind", "value", "count"],
        table_rows,
        title=f"metrics: N={cfg.n}, {cfg.p_rows}x{cfg.p_cols} "
        f"on {cfg.machine.name} ({res.elapsed:.3f}s virtual)",
    ))
    return 0


def cmd_report(args) -> int:
    """Regenerate the EXPERIMENTS.md reproduction record."""
    from repro.bench.report_md import generate_experiments_markdown

    text = generate_experiments_markdown()
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    else:
        print(text)
    return 0


def cmd_bench(args) -> int:
    """Run the hot-path benchmark harness; optionally gate vs a baseline."""
    from repro.bench.hotpaths import (
        DEFAULT_OUT, load_record, render_hotpaths, run_hotpaths,
    )

    out = DEFAULT_OUT if args.out is None else args.out
    # Load the baseline before running: --against may name the same file
    # --out is about to overwrite.
    baseline = load_record(args.against) if args.against else None
    if args.against and baseline is None:
        print(f"bench: no usable baseline record at {args.against}")
        return 2
    record = run_hotpaths(
        n=args.n, block=args.block, grid=args.grid, reps=args.reps,
        seed=args.seed, machine=args.machine, out=out,
    )
    print(render_hotpaths(record))
    if out:
        print(f"wrote {out}")
    if baseline is None:
        return 0

    from repro.bench.regression import compare_records, render_regressions
    deltas = compare_records(record, baseline, args.max_regress)
    print()
    print(render_regressions(deltas, args.max_regress))
    return 1 if any(d.regressed for d in deltas) else 0


def cmd_specs(args) -> int:
    """Print the machine presets (Table I)."""
    from repro.bench.figures import table1_specs
    from repro.bench.reporting import render_records

    print(render_records(table1_specs(), title="machine presets (Table I)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="hplai-sim",
        description=(
            "Simulated-exascale HPL-AI benchmark suite (reproduction of "
            "Lu et al., SC'22)."
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="numerically exact distributed solve")
    p.add_argument("-n", type=int, default=512, help="matrix size N")
    p.add_argument("-b", "--block", type=int, default=64, help="block size B")
    p.add_argument("-p", "--grid", type=int, default=2, help="grid dim")
    _add_machine_arg(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("run", help="event-engine timing simulation")
    _add_run_args(p)
    _add_scenario_arg(p)
    p.add_argument("--health-json", default=None, metavar="FILE",
                   help="with --scenario: write the monitored run's "
                        "health report as JSON")
    p.add_argument("--json", default=None, help="write a JSON run report")
    p.add_argument("--trace", default=None,
                   help="write the per-iteration trace as CSV")
    p.add_argument("--progress", action="store_true",
                   help="print per-panel-column GF/s and projected finish "
                        "while the run executes")
    p.add_argument("--progress-every", type=int, default=1, metavar="K",
                   help="report every K panel columns (default 1)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("model", help="analytic estimate at any scale")
    _add_run_args(p)
    _add_scenario_arg(p)
    p.add_argument("--json", default=None, help="write a JSON run report")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("tune", help="parameter sweeps")
    p.add_argument("what", choices=("block", "grid"))
    p.add_argument("-p", "--grid", type=int, default=32)
    p.add_argument("--nl", type=int, default=None)
    p.add_argument("-b", "--block", type=int, default=None)
    p.add_argument("--values", default=None,
                   help="comma-separated block sizes to sweep")
    _add_machine_arg(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("scan", help="slow-GCD mini-benchmark scan")
    p.add_argument("--gcds", type=int, default=512)
    p.add_argument("--seed", type=int, default=2022)
    p.add_argument("--top", type=int, default=10)
    _add_machine_arg(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("dat", help="run a sweep from an HPL.dat-style file")
    p.add_argument("file", help="path to the HPL.dat file")
    p.add_argument("--engine", action="store_true",
                   help="use the event engine instead of the analytic model")
    p.set_defaults(func=cmd_dat)

    p = sub.add_parser(
        "campaign",
        help="record-run campaign: one config, or a sharded resumable "
             "sweep with run cache + result store",
    )
    _add_run_args(p)
    _add_scenario_arg(p)
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--spare-nodes", type=int, default=4,
                   help="extra nodes in the pool for slow-node exclusion")
    p.add_argument("--seed", type=int, default=2022)
    p.add_argument("--no-scan", action="store_true")
    p.add_argument("--no-warmup", action="store_true")
    g = p.add_argument_group("sweep engine (docs/CAMPAIGN.md)")
    g.add_argument("--sweep", default=None, metavar="FILE",
                   help="sweep spec JSON (repro.campaign.sweep/v1); "
                        "overrides the axis flags below")
    g.add_argument("--grids", default=None, metavar="P1,P2,...",
                   help="comma-separated grid dims to sweep")
    g.add_argument("--bcasts", default=None, metavar="A1,A2,...",
                   help="comma-separated broadcast algorithms to sweep")
    g.add_argument("--scenarios", default=None, metavar="F1,F2,...",
                   help="comma-separated scenario files as a sweep axis "
                        "('none' = baseline row)")
    g.add_argument("--workers", type=int, default=1,
                   help="worker processes for the sweep (default 1)")
    g.add_argument("--store", default=None, metavar="JSONL",
                   help=f"result store path "
                        f"(default {DEFAULT_CAMPAIGN_STORE})")
    g.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="run-cache directory (default: 'cache' beside "
                        "the store)")
    g.add_argument("--queue", default=None, metavar="JSON",
                   help="queue checkpoint path (default: 'queue.json' "
                        "beside the store)")
    g.add_argument("--resume", action="store_true",
                   help="resume an interrupted sweep from the queue "
                        "checkpoint (only pending jobs run)")
    g.add_argument("--against", default=None, metavar="STORE",
                   help="baseline store (.jsonl or export JSON) to gate "
                        "per-config elapsed against (exit 1 on regression)")
    g.add_argument("--max-regress", type=float, default=0.25,
                   help="--against tolerance (default 0.25)")
    g.add_argument("--export", default=None, metavar="JSON",
                   help="write the store as one repro.campaign.store/v1 "
                        "JSON document")
    g.add_argument("--summary-json", default=None, metavar="JSON",
                   help="write the sweep outcome summary "
                        "(computed/cached/failed + cache stats)")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="long-lived campaign HTTP/JSON API (cache-deduped runs, "
             "streamed progress)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--store", default=None, metavar="JSONL",
                   help=f"result store path "
                        f"(default {DEFAULT_CAMPAIGN_STORE})")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="run-cache directory (default: 'cache' beside "
                        "the store)")
    p.add_argument("--queue", default=None, help=argparse.SUPPRESS)
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("figure", help="regenerate a paper table/figure")
    p.add_argument("id", choices=sorted(FIGURES))
    p.add_argument("--plot", action="store_true",
                   help="also render a terminal plot where available")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser(
        "trace", help="simulate with observability and export a Chrome trace"
    )
    _add_run_args(p)
    p.add_argument("--out", default="trace.json",
                   help="Chrome-trace JSON output path (default trace.json)")
    p.add_argument("--jsonl", default=None,
                   help="also write the span log as JSONL")
    p.add_argument("--json", default=None,
                   help="also write the run report (with provenance)")
    p.add_argument("--max-spans", type=int, default=None,
                   help="bound tracer memory to the newest N spans")
    p.add_argument("--category", action="append", default=None,
                   metavar="CAT",
                   help="export only this span category (repeatable: "
                        "engine, executor, comm, driver, hotpath)")
    p.add_argument("--rank", action="append", type=int, default=None,
                   metavar="R",
                   help="export only this rank's lane (repeatable; "
                        "-1 = driver lane)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="analyze a trace: critical path, imbalance, comm matrix, "
             "model deviation",
    )
    p.add_argument("trace",
                   help="exported trace (Chrome JSON or JSONL span log)")
    p.add_argument("--format", choices=("text", "json", "csv"),
                   default="text", help="output format (default text)")
    p.add_argument("--out", default=None,
                   help="write the report to a file instead of stdout")
    p.add_argument("--against", default=None, metavar="PROFILE_JSON",
                   help="baseline profile report (from --format json) to "
                        "compute regression deltas against")
    p.add_argument("--max-regress", type=float, default=0.25,
                   help="fail (exit 1) when a phase is this fraction "
                        "slower than the --against baseline (default 0.25)")
    p.add_argument("--max-dev", type=float, default=None,
                   help="fail (exit 1) when any modelled phase deviates "
                        "more than this fraction from the analytic model")
    p.add_argument("--straggler-threshold", type=float, default=0.02,
                   help="flag ranks busier than the median by this "
                        "fraction (default 0.02)")
    p.add_argument("--no-model", action="store_true",
                   help="skip the model-vs-measured section")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "metrics", help="simulate with observability and print metrics"
    )
    _add_run_args(p)
    p.add_argument("--format", choices=("table", "prometheus"),
                   default="table",
                   help="output format (default table; prometheus adds "
                        "histogram quantile summaries)")
    p.add_argument("--prom", action="store_true",
                   help="alias for --format prometheus")
    p.add_argument("--max-spans", type=int, default=None,
                   help="bound tracer memory to the newest N spans")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "health",
        help="simulate under the health monitor and report findings",
    )
    _add_run_args(p)
    _add_health_args(p)
    p.add_argument("--json", action="store_true",
                   help="emit the health report as JSON")
    p.add_argument("--out", default=None,
                   help="write the report to a file instead of stdout")
    p.add_argument("--fail-on-findings", action="store_true",
                   help="exit 1 when any detector fired (CI gate)")
    p.set_defaults(func=cmd_health)

    p = sub.add_parser(
        "dashboard",
        help="render a self-contained HTML dashboard "
             "(trace + time series + health findings)",
    )
    _add_run_args(p)
    _add_health_args(p)
    p.add_argument("--trace", default=None,
                   help="render from an exported trace instead of "
                        "simulating (Chrome JSON or JSONL)")
    p.add_argument("--health", default=None, metavar="HEALTH_JSON",
                   help="health report (from `repro health --json`) to "
                        "annotate a --trace rendering with")
    p.add_argument("--campaign", default=None, metavar="STORE",
                   help="render the campaign-level dashboard from a "
                        "result store (.jsonl) instead of one run")
    p.add_argument("--artifacts", default=None, metavar="DIR",
                   help="with --campaign: directory of per-job "
                        "<key>.profile.json / <key>.health.json artifacts "
                        "(default: the store's directory)")
    p.add_argument("--against", action="append", default=[],
                   metavar="BASELINE",
                   help="with --campaign: baseline store(s) for the "
                        "trend panel (repeatable)")
    p.add_argument("--out", default="dashboard.html",
                   help="output HTML path (default dashboard.html)")
    p.set_defaults(func=cmd_dashboard)

    p = sub.add_parser(
        "fleet",
        help="campaign analytics: GF/s heatmaps, rollups, worker "
             "utilization, store-over-store trend gate",
    )
    p.add_argument("store",
                   help="campaign result store (.jsonl) or "
                        "repro.campaign.store/v1 export to analyze")
    p.add_argument("--format", choices=("text", "json", "csv"),
                   default="text", help="report format (default text)")
    p.add_argument("--out", default=None,
                   help="write the rendered report to a file")
    p.add_argument("--artifacts", default=None, metavar="DIR",
                   help="directory of per-job <key>.profile.json / "
                        "<key>.health.json artifacts (default: the "
                        "store's directory)")
    p.add_argument("--summary", default=None, metavar="SUMMARY_JSON",
                   help="sweep summary (repro.campaign.summary/v1) for "
                        "the cache rollup")
    p.add_argument("--against", action="append", default=[],
                   metavar="BASELINE",
                   help="baseline store for the trend gate (repeatable); "
                        "exit 1 when any cell regresses")
    p.add_argument("--max-regress", type=float, default=0.25,
                   help="per-cell regression gate (default 0.25)")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("gantt", help="per-rank Gantt of a small simulation")
    _add_run_args(p)
    p.add_argument("--width", type=int, default=100)
    p.set_defaults(func=cmd_gantt)

    p = sub.add_parser(
        "report", help="regenerate the full paper-vs-measured record"
    )
    p.add_argument("--out", default=None,
                   help="write to a file instead of stdout")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "bench", help="hot-path micro/macro benchmark harness"
    )
    p.add_argument("what", choices=("hotpaths",))
    p.add_argument("-n", type=int, default=1024, help="matrix size N")
    p.add_argument("-b", "--block", type=int, default=64, help="block size B")
    p.add_argument("-p", "--grid", type=int, default=2, help="grid dim")
    p.add_argument("--reps", type=int, default=3,
                   help="repetitions per stage (default 3)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None,
                   help="JSON record path ('' to skip writing; default "
                        "benchmarks/results/BENCH_hotpaths.json)")
    p.add_argument("--against", default=None, metavar="RECORD_JSON",
                   help="baseline hotpaths record to gate against")
    p.add_argument("--max-regress", type=float, default=0.25,
                   help="fail (exit 1) when a stage's min_s is this "
                        "fraction slower than the baseline (default 0.25)")
    _add_machine_arg(p)
    p.set_defaults(func=cmd_bench)

    from repro.analyze.cli import add_lint_parser, add_verify_comm_parser

    add_lint_parser(sub)
    add_verify_comm_parser(sub)

    p = sub.add_parser("specs", help="print machine presets")
    p.set_defaults(func=cmd_specs)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
