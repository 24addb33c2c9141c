"""``nda-repro`` command-line front-end.

Subcommands::

    nda-repro table3                 # print the simulated machine
    nda-repro attack spectre_v1 --config permissive
    nda-repro matrix                 # full security matrix (Tables 1/2)
    nda-repro matrix --configs ooo strict fence-on-branch   # subset
    nda-repro bench --benchmarks mcf leela --samples 2 --jobs 4
    nda-repro run mcf --config strict --stats
    nda-repro bench-simspeed --output BENCH_simspeed.json
    nda-repro figure 4|7|8|9a|9b|9c|9d|9e
    nda-repro config ooo             # describe one configuration
    nda-repro config list            # registered schemes + named configs
    nda-repro cache info|clear       # inspect/drop the result cache
    nda-repro cache gc --older-than 14      # prune stale cached windows
    nda-repro worker --connect HOST:PORT    # join a worker-protocol run
    nda-repro fuzz run --seeds 200 --jobs 8   # differential leak fuzzing
    nda-repro fuzz replay 7 --config strict   # one seed on one config
    nda-repro fuzz minimize 7 --output w.json # ddmin to a reproducer
    nda-repro serve --workers 2 --tokens tokens.json # HTTP job server
    nda-repro submit sweep mcf --config strict --wait # job via the server
    nda-repro submit attack spectre_v1_cache --wait
    nda-repro obs trace spectre_v1 --config strict   # Perfetto export
    nda-repro obs trace merge --dir results/traces/spans  # stitch spools
    nda-repro obs top --server http://127.0.0.1:8765  # live observatory
    nda-repro obs metrics                    # render latest metric snapshot
    nda-repro obs manifest list              # run provenance records
    nda-repro obs export --benchmarks mcf    # engine job-span trace

Sweeps (``bench``/``figure``) run on the parallel suite engine and cache
windows under ``results/.cache/``; use ``--jobs N`` to size the worker
pool and ``--no-cache`` to force re-simulation.  ``--backend`` picks the
execution backend (``serial``, ``local-pool``, ``worker-protocol``),
``--remote-cache URL`` tiers the result store with a running job
server's artifact routes, and ``--checkpoint FILE`` / ``--resume FILE``
make long campaigns survive preemption (see DESIGN.md §3.7).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.attacks.taxonomy import CROSS_IMPLEMENTED, IMPLEMENTED
from repro.config import config_registry
from repro.engine import ResultCache
from repro.harness import (
    render_figure4,
    render_figure7,
    render_figure8,
    render_figure9a,
    render_figure9bc,
    render_figure9d,
    render_figure9e,
    render_table1,
    render_table2,
    render_table3,
    run_suite,
    table1_matrix,
    table2,
)
from repro.harness.figures import figure4, figure8, figure9e
from repro.workloads.profiles import DEFAULT_SUITE, PROFILES

_CONFIG_NAMES = sorted(config_registry())


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the sweep (default: cpu count)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache location (default: results/.cache, "
             "or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--remote-cache", default=None, metavar="URL",
        help="tier the result store with a job server's "
             "/v1/artifacts routes (read-through, write-back)",
    )
    parser.add_argument(
        "--backend", default=None,
        choices=["serial", "local-pool", "worker-protocol"],
        help="execution backend (default: local-pool when --jobs > 1)",
    )
    parser.add_argument(
        "--bind", default=None, metavar="HOST:PORT",
        help="worker-protocol only: coordinator listen address "
             "(default: 127.0.0.1, ephemeral port)",
    )
    parser.add_argument(
        "--no-spawn", action="store_true",
        help="worker-protocol only: do not spawn local workers; wait "
             "for external `nda-repro worker --connect` processes",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="periodically write a resumable checkpoint manifest here",
    )
    parser.add_argument(
        "--resume", default=None, metavar="FILE",
        help="replay completed jobs from a checkpoint manifest before "
             "executing the remainder",
    )


def _backend_options(args) -> Optional[dict]:
    """worker-protocol knobs from ``--bind``/``--no-spawn`` (else None)."""
    options: dict = {}
    if getattr(args, "bind", None):
        from repro.engine.backends.worker_protocol import parse_address
        try:
            host, port = parse_address(args.bind)
        except ValueError as err:
            raise SystemExit(str(err))
        options["host"] = host
        options["port"] = port
    if getattr(args, "no_spawn", False):
        options["spawn"] = False
    return options or None


def _engine_kwargs(args) -> dict:
    return {
        "jobs": args.jobs,
        "cache": not args.no_cache,
        "cache_dir": None if args.no_cache else args.cache_dir,
        "remote_cache": getattr(args, "remote_cache", None),
        "backend": getattr(args, "backend", None),
        "backend_options": _backend_options(args),
        "checkpoint": getattr(args, "checkpoint", None),
        "resume": getattr(args, "resume", None),
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nda-repro",
        description="NDA (MICRO 2019) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table3", help="print the simulated machine description")

    attack = sub.add_parser("attack", help="run one attack PoC")
    attack.add_argument(
        "name",
        choices=sorted(
            {info.name for info in IMPLEMENTED}
            | {info.name for info in CROSS_IMPLEMENTED}
        ),
    )
    attack.add_argument(
        "--config", default="ooo", choices=_CONFIG_NAMES
    )
    attack.add_argument("--secret", type=int, default=42)
    attack.add_argument("--guesses", type=int, default=64)
    attack.add_argument(
        "--contexts", type=int, default=None, choices=(1, 2),
        help="hardware contexts (cross-context attacks imply 2)",
    )
    attack.add_argument(
        "--json", action="store_true",
        help="print a repro.result/v1 attack envelope instead of text",
    )

    matrix = sub.add_parser(
        "matrix", help="run every attack on every configuration"
    )
    matrix.add_argument("--guesses", type=int, default=32)
    matrix.add_argument(
        "--configs", nargs="*", default=None, choices=_CONFIG_NAMES,
        metavar="NAME",
        help="restrict the matrix to these configurations "
             "(default: every registered one)",
    )
    matrix.add_argument(
        "--cross", action="store_true",
        help="run the two-context cross-context matrix instead "
             "(repro.smt co-residency attacks; in-order configs skipped)",
    )

    bench = sub.add_parser("bench", help="performance sweep (Fig 7/Table 2)")
    bench.add_argument(
        "--benchmarks", nargs="*", default=list(DEFAULT_SUITE),
        choices=sorted(PROFILES),
    )
    bench.add_argument("--samples", type=int, default=3)
    bench.add_argument("--warmup", type=int, default=2000)
    bench.add_argument("--measure", type=int, default=8000)
    _add_engine_args(bench)

    run_cmd = sub.add_parser(
        "run", help="run one generated workload to completion"
    )
    run_cmd.add_argument("benchmark", choices=sorted(PROFILES))
    run_cmd.add_argument("--config", default="ooo", choices=_CONFIG_NAMES)
    run_cmd.add_argument("--instructions", type=int, default=3000)
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument(
        "--stats", action="store_true",
        help="print the full counter summary (incl. simulator speed)",
    )
    run_cmd.add_argument(
        "--no-fast-forward", action="store_true",
        help="disable the bit-identical idle-cycle fast-forward",
    )
    run_cmd.add_argument(
        "--json", action="store_true",
        help="print a repro.result/v1 run envelope instead of text",
    )

    simspeed = sub.add_parser(
        "bench-simspeed",
        help="benchmark the simulator itself (host kilo-cycles/sec)",
    )
    simspeed.add_argument(
        "--workloads", nargs="*", default=None, choices=sorted(PROFILES),
        metavar="NAME",
    )
    simspeed.add_argument(
        "--configs", nargs="*", default=None, choices=_CONFIG_NAMES,
        metavar="NAME",
    )
    simspeed.add_argument("--instructions", type=int, default=None)
    simspeed.add_argument("--repeats", type=int, default=None)
    simspeed.add_argument("--seed", type=int, default=None)
    simspeed.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the JSON payload here",
    )
    simspeed.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="warn (exit 0) on >25%% regressions vs this payload",
    )
    simspeed.add_argument(
        "--obs", action="store_true",
        help="also measure telemetry-bus overhead (detached vs "
             "attached-idle vs metrics sampling)",
    )
    simspeed.add_argument(
        "--engines", nargs="*", default=None,
        choices=["reference", "fast"], metavar="ENGINE",
        help="engines to measure (default: both)",
    )
    simspeed.add_argument(
        "--profile", action="store_true",
        help="cProfile the slowest row into results/profiles/",
    )
    simspeed.add_argument(
        "--gate", action="store_true",
        help="hard-fail (exit 1) if the fast engine is under 2x the "
             "reference on mcf/ooo (stepping path)",
    )
    simspeed.add_argument(
        "--history", action="store_true",
        help="append a timestamped git-SHA-stamped row to "
             "results/bench_history.jsonl and compare against the "
             "previous row (perf trajectory across commits)",
    )

    config_cmd = sub.add_parser(
        "config", help="describe one named configuration, or list them all"
    )
    config_cmd.add_argument("name", choices=["list"] + _CONFIG_NAMES)

    cache_cmd = sub.add_parser(
        "cache", help="inspect, clear, or garbage-collect the result cache"
    )
    cache_cmd.add_argument("action", choices=["info", "clear", "gc"])
    cache_cmd.add_argument("--cache-dir", default=None, metavar="DIR")
    cache_cmd.add_argument(
        "--older-than", type=float, default=None, metavar="DAYS",
        help="gc: drop cached windows last touched more than DAYS "
             "days ago (required for gc)",
    )

    worker_cmd = sub.add_parser(
        "worker",
        help="pull jobs from a worker-protocol coordinator "
             "(see `--backend worker-protocol --no-spawn`)",
    )
    worker_cmd.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address printed by the driving sweep",
    )
    worker_cmd.add_argument(
        "--processes", type=int, default=1, metavar="N",
        help="parallel pull loops to run (default: 1)",
    )
    worker_cmd.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-connection idle timeout (default: 30)",
    )

    trace = sub.add_parser(
        "trace", help="pipeline trace of a micro-kernel (ASCII chart)"
    )
    trace.add_argument("kernel", choices=sorted(
        __import__("repro.workloads.kernels", fromlist=["ALL_KERNELS"])
        .ALL_KERNELS
    ))
    trace.add_argument("--config", default="ooo", choices=_CONFIG_NAMES)
    trace.add_argument("--instructions", type=int, default=60)
    trace.add_argument("--width", type=int, default=80)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument(
        "which", choices=["4", "7", "8", "9a", "9b", "9c", "9d", "9e"]
    )
    figure.add_argument("--benchmarks", nargs="*", default=None)
    figure.add_argument("--samples", type=int, default=3)
    _add_engine_args(figure)

    fuzz = sub.add_parser(
        "fuzz", help="differential speculative-leak fuzzing"
    )
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run = fuzz_sub.add_parser(
        "run", help="run a differential campaign (seeds x configs)"
    )
    fuzz_run.add_argument("--seeds", type=int, default=50, metavar="N",
                          help="number of fuzz seeds (default: 50)")
    fuzz_run.add_argument("--seed0", type=int, default=0, metavar="S",
                          help="first seed (default: 0)")
    fuzz_run.add_argument(
        "--configs", nargs="*", default=None, choices=_CONFIG_NAMES,
        metavar="NAME",
        help="restrict the campaign to these configurations "
             "(default: every out-of-order one)",
    )
    fuzz_run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: cpu count)",
    )
    fuzz_run.add_argument("--max-cycles", type=int, default=400_000)
    fuzz_run.add_argument(
        "--backend", default=None,
        choices=["serial", "local-pool", "worker-protocol"],
        help="execution backend (default: local-pool when --jobs > 1)",
    )
    fuzz_run.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="periodically write a resumable checkpoint manifest here",
    )
    fuzz_run.add_argument(
        "--resume", default=None, metavar="FILE",
        help="replay completed seeds from a checkpoint manifest",
    )
    fuzz_run.add_argument(
        "--smt", action="store_true",
        help="fuzz paired two-context programs on the co-residency "
             "model (cross-context channels)",
    )

    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-run one seed or corpus file on one config"
    )
    fuzz_replay.add_argument(
        "what", metavar="SEED|FILE",
        help="a fuzz seed number, or a witness corpus JSON file",
    )
    fuzz_replay.add_argument(
        "--config", default="ooo", choices=_CONFIG_NAMES
    )

    fuzz_min = fuzz_sub.add_parser(
        "minimize", help="ddmin a leaking seed to a minimal reproducer"
    )
    fuzz_min.add_argument("seed", type=int)
    fuzz_min.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the minimized witness as a corpus JSON file",
    )
    fuzz_min.add_argument(
        "--blocked-under", nargs="*", default=["full-protection"],
        choices=_CONFIG_NAMES, metavar="NAME",
        help="configs the minimized program must NOT leak under",
    )
    fuzz_min.add_argument("--max-tests", type=int, default=400)

    serve_cmd = sub.add_parser(
        "serve", help="run the HTTP job server (simulation-as-a-service)"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8765)
    serve_cmd.add_argument(
        "--queue-dir", default=None, metavar="DIR",
        help="durable queue root (default: results/queue)",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker threads draining the queue (default: 1)",
    )
    serve_cmd.add_argument(
        "--engine-jobs", type=int, default=1, metavar="N",
        help="engine worker processes per sweep job (default: 1)",
    )
    serve_cmd.add_argument(
        "--tokens", default=None, metavar="FILE",
        help="token table JSON; omitting it runs the server open",
    )
    serve_cmd.add_argument("--max-retries", type=int, default=2)
    serve_cmd.add_argument("--no-cache", action="store_true",
                           help="bypass the content-addressed result cache")
    serve_cmd.add_argument("--cache-dir", default=None, metavar="DIR")

    submit_cmd = sub.add_parser(
        "submit", help="submit a job to a running repro server"
    )
    submit_cmd.add_argument(
        "kind", choices=["sweep", "attack", "fuzz"],
        help="job kind (see DESIGN.md §3.6 for the spec fields)",
    )
    submit_cmd.add_argument(
        "target", nargs="*", default=[],
        help="attack: the attack name; sweep: benchmark names; "
             "fuzz: ignored",
    )
    submit_cmd.add_argument(
        "--server", default="http://127.0.0.1:8765", metavar="URL"
    )
    submit_cmd.add_argument("--token", default=None)
    submit_cmd.add_argument(
        "--config", default=None, metavar="NAME",
        help="attack: the config to attack; sweep: may repeat via --spec",
    )
    submit_cmd.add_argument(
        "--spec", default=None, metavar="JSON",
        help="inline JSON merged over the positional shorthand",
    )
    submit_cmd.add_argument("--priority", type=int, default=0)
    submit_cmd.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its result envelope",
    )
    submit_cmd.add_argument("--timeout", type=float, default=600.0)

    obs = sub.add_parser(
        "obs", help="telemetry: Perfetto traces, metrics, run manifests"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_trace = obs_sub.add_parser(
        "trace",
        help="run one target under the event bus and export a "
             "Chrome/Perfetto trace (open at ui.perfetto.dev); "
             "`obs trace merge` stitches distributed span spools "
             "instead",
    )
    obs_trace.add_argument(
        "target", metavar="TARGET",
        help="an attack name (e.g. spectre_v1), a micro-kernel, a "
             "workload profile, or the word 'merge' to stitch span "
             "spools from a traced distributed run",
    )
    obs_trace.add_argument(
        "--dir", dest="spool_dir", default=None, metavar="DIR",
        help="merge only: span spool directory (default: "
             "$REPRO_TRACE_DIR, else results/traces/spans)",
    )
    obs_trace.add_argument(
        "--config", default="strict", choices=_CONFIG_NAMES,
        help="configuration to trace under (default: strict, which "
             "shows NDA defer gaps)",
    )
    obs_trace.add_argument("--instructions", type=int, default=2000,
                           help="length of kernel/workload targets")
    obs_trace.add_argument("--seed", type=int, default=0)
    obs_trace.add_argument("--limit", type=int, default=20_000,
                           help="max traced instructions")
    obs_trace.add_argument("--sample-interval", type=int, default=200,
                           metavar="CYCLES",
                           help="metrics sampling period (counter tracks)")
    obs_trace.add_argument(
        "--output", default=None, metavar="FILE",
        help="trace path (default results/traces/<target>-<config>.json)",
    )

    obs_metrics = obs_sub.add_parser(
        "metrics", help="render the metric snapshot stored in a manifest"
    )
    obs_metrics.add_argument(
        "path", nargs="?", default=None,
        help="manifest file (default: the latest one)",
    )

    obs_manifest = obs_sub.add_parser(
        "manifest", help="list, show, or validate run manifests"
    )
    obs_manifest.add_argument("action", choices=["list", "show", "validate"])
    obs_manifest.add_argument(
        "path", nargs="?", default=None,
        help="manifest file (default: the latest one)",
    )

    obs_top = obs_sub.add_parser(
        "top",
        help="poll a running job server's /v1/status and print live "
             "campaign progress (queue depth, workers, cache, latency)",
    )
    obs_top.add_argument(
        "--server", default="http://127.0.0.1:8765", metavar="URL"
    )
    obs_top.add_argument("--token", default=None)
    obs_top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between polls (default: 2)",
    )
    obs_top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N polls (default: 0 = until interrupted)",
    )

    obs_export = obs_sub.add_parser(
        "export",
        help="run a small sweep with job-span collection and export the "
             "engine-level Perfetto trace",
    )
    obs_export.add_argument(
        "--benchmarks", nargs="*", default=["mcf"], choices=sorted(PROFILES)
    )
    obs_export.add_argument("--samples", type=int, default=1)
    obs_export.add_argument("--warmup", type=int, default=500)
    obs_export.add_argument("--measure", type=int, default=2000)
    obs_export.add_argument(
        "--output", default=None, metavar="FILE",
        help="trace path (default results/traces/engine.json)",
    )
    _add_engine_args(obs_export)

    return parser


#: Commands that get a root trace span when REPRO_TRACE_DIR is set —
#: the entry points named by DESIGN.md §3.10's propagation contract.
_TRACED_COMMANDS = frozenset({
    "run", "attack", "matrix", "bench", "bench-simspeed", "figure",
    "fuzz", "submit",
})


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    from repro.obs.spans import maybe_tracer
    # Untraced commands must not claim the process tracer: `serve` and
    # `worker` create their own service-named tracers on first use.
    if args.command not in _TRACED_COMMANDS:
        return _run_command(args)
    tracer = maybe_tracer("cli")
    if tracer is None:
        return _run_command(args)
    with tracer.span(
        "cli." + args.command,
        attrs={"argv": " ".join(argv if argv is not None else sys.argv[1:])},
    ) as span:
        code = _run_command(args)
        span.attrs["exit_code"] = code
        return code


def _run_command(args) -> int:
    if args.command == "table3":
        print(render_table3())
        return 0

    if args.command == "config":
        if args.name == "list":
            from repro.schemes import describe_schemes
            print(describe_schemes())
            print()
            print("Named configurations (nda-repro config <name>):")
            for name, spec in config_registry().items():
                core = "in-order" if spec.in_order else "out-of-order"
                print("  %-20s %-20s (%s)" % (name, spec.label, core))
            return 0
        spec = config_registry()[args.name]
        print(spec.config.describe())
        if spec.in_order:
            print("  core class: in-order (TimingSimpleCPU analog)")
        return 0

    if args.command == "cache":
        cache = ResultCache(args.cache_dir)
        if args.action == "clear":
            removed = cache.clear()
            print("removed %d cached windows from %s" % (removed, cache.root))
        elif args.action == "gc":
            if args.older_than is None:
                print("cache gc requires --older-than DAYS", file=sys.stderr)
                return 2
            removed = cache.gc(args.older_than)
            print("gc removed %d cached windows older than %g days from %s"
                  % (removed, args.older_than, cache.root))
        else:
            print("cache dir: %s" % cache.root)
            print("entries:   %d" % cache.size())
        return 0

    if args.command == "worker":
        from repro.engine.backends import worker_main
        return worker_main(
            args.connect, processes=args.processes, timeout=args.timeout,
        )

    if args.command == "attack":
        cross_info = next(
            (i for i in CROSS_IMPLEMENTED if i.name == args.name), None
        )
        spec = config_registry()[args.config]
        config, in_order = spec.config, spec.in_order
        from repro.attacks.common import default_guesses
        guesses = default_guesses(args.secret, args.guesses)
        if cross_info is not None:
            if args.contexts == 1:
                sys.stderr.write(
                    "error: %s is a cross-context attack; it needs "
                    "--contexts 2\n" % args.name
                )
                return 2
            if in_order:
                sys.stderr.write(
                    "error: cross-context attacks pair two out-of-order "
                    "contexts; pick an OoO --config\n"
                )
                return 2
            outcome = cross_info.module.run(
                config, secret=args.secret, guesses=guesses,
                in_order=in_order,
            )
        else:
            if args.contexts == 2:
                sys.stderr.write(
                    "error: %s is a single-context attack; drop "
                    "--contexts 2 (cross-context PoCs: %s)\n"
                    % (args.name,
                       ", ".join(i.name for i in CROSS_IMPLEMENTED))
                )
                return 2
            outcome = next(
                i for i in IMPLEMENTED if i.name == args.name
            ).module.run(
                config, secret=args.secret, guesses=guesses,
                in_order=in_order,
            )
        if args.json:
            import json as json_mod

            from repro.envelope import attack_envelope
            print(json_mod.dumps(
                attack_envelope(outcome), indent=2, sort_keys=True
            ))
        else:
            print(outcome)
            if hasattr(outcome, "bit_timings"):
                print("bit timings:", outcome.bit_timings)
            else:
                print("timings:",
                      dict(zip(outcome.guesses, outcome.timings)))
        return 0 if not outcome.leaked else 1

    if args.command == "matrix":
        configs = None
        if args.configs:
            registry = config_registry()
            configs = [registry[name] for name in args.configs]
        if args.cross:
            from repro.harness.tables import (
                cross_matrix, render_cross_matrix,
            )
            rows = cross_matrix(configs=configs, guesses=args.guesses)
            print(render_cross_matrix(rows))
        else:
            rows = table1_matrix(configs=configs, guesses=args.guesses)
            print(render_table1(rows))
        mismatches = [r for r in rows if r["leaked"] != r["expected"]]
        return 1 if mismatches else 0

    if args.command == "run":
        from repro.api import simulate
        from repro.workloads.generator import spec_program
        spec = config_registry()[args.config]
        program = spec_program(
            args.benchmark, instructions=args.instructions, seed=args.seed
        )
        outcome = simulate(
            program, spec.config, in_order=spec.in_order,
            fast_forward=not args.no_fast_forward,
        )
        if args.json:
            import json as json_mod

            from repro.envelope import run_envelope
            print(json_mod.dumps(run_envelope(
                outcome, benchmark=args.benchmark, config=args.config,
                seed=args.seed, instructions=args.instructions,
            ), indent=2, sort_keys=True))
            return 0
        print(outcome)
        if args.stats:
            for key, value in outcome.stats.summary().items():
                if isinstance(value, float):
                    print("  %-28s %.3f" % (key, value))
                else:
                    print("  %-28s %s" % (key, value))
        return 0

    if args.command == "bench-simspeed":
        import json as json_mod
        from pathlib import Path

        from repro.harness import simspeed as simspeed_mod
        kwargs = {"verbose": True}
        if args.workloads:
            kwargs["workloads"] = args.workloads
        if args.configs:
            kwargs["configs"] = args.configs
        if args.instructions is not None:
            kwargs["instructions"] = args.instructions
        if args.repeats is not None:
            kwargs["repeats"] = args.repeats
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.obs:
            kwargs["obs"] = True
        if args.engines:
            kwargs["engines"] = args.engines
        payload = simspeed_mod.run_simspeed(**kwargs)
        print()
        print(simspeed_mod.render_simspeed(payload))
        if args.output:
            Path(args.output).write_text(
                json_mod.dumps(payload, indent=2) + "\n"
            )
            print("\nwrote %s" % args.output)
        if args.profile:
            row = simspeed_mod._slowest_row(payload)
            if row is not None:
                path = simspeed_mod.profile_case(
                    row["workload"], row["config"],
                    "results/profiles/%s_%s_%s.pstats" % (
                        row["workload"], row["config"], row["engine"],
                    ),
                    instructions=payload["instructions"],
                    seed=payload["seed"], engine=row["engine"],
                )
                print("profiled slowest row to %s" % path)
        if args.baseline:
            baseline = json_mod.loads(Path(args.baseline).read_text())
            for line in simspeed_mod.compare_simspeed(payload, baseline):
                print(line)
        if args.history:
            for line in simspeed_mod.compare_history(payload):
                print(line)
            entry = simspeed_mod.append_history(payload)
            print("history: appended %s (%s) to %s"
                  % (entry["git_revision"][:12] or "no-git",
                     entry["recorded"], simspeed_mod.HISTORY_PATH))
        if args.gate:
            failures = simspeed_mod.gate_simspeed(payload)
            for line in failures:
                print(line)
            if failures:
                return 1
        return 0

    if args.command == "bench":
        suite = run_suite(
            benchmarks=args.benchmarks,
            samples=args.samples,
            warmup=args.warmup,
            measure=args.measure,
            verbose=True,
            **_engine_kwargs(args),
        )
        print("engine: %s" % suite.engine.describe())
        print()
        print(render_figure7(suite))
        print()
        print(render_table2(table2(suite)))
        return 0

    if args.command == "trace":
        from repro.core import make_core
        from repro.debug import PipelineTracer
        from repro.workloads.kernels import ALL_KERNELS
        spec = config_registry()[args.config]
        config, in_order = spec.config, spec.in_order
        if in_order:
            print("trace requires an out-of-order configuration")
            return 2
        program = ALL_KERNELS[args.kernel](args.instructions)
        core = make_core(program, config)
        tracer = PipelineTracer.attach(core, limit=args.instructions * 8)
        core.run()
        print(tracer.render(width=args.width))
        print()
        print("mean complete-to-broadcast (wake-up) delay: %.1f cycles"
              % tracer.mean_wakeup_delay())
        return 0

    if args.command == "serve":
        from repro.server import DEFAULT_QUEUE_DIR, TokenAuth, serve
        kwargs = {
            "queue_dir": args.queue_dir or DEFAULT_QUEUE_DIR,
            "workers": args.workers,
            "engine_jobs": args.engine_jobs,
            "max_retries": args.max_retries,
            "cache": not args.no_cache,
            "cache_dir": None if args.no_cache else args.cache_dir,
        }
        if args.tokens:
            kwargs["auth"] = TokenAuth.load(args.tokens)
        serve(host=args.host, port=args.port, **kwargs)
        return 0

    if args.command == "submit":
        import json as json_mod

        from repro.server import ServerClient, ServerError
        spec: dict = {}
        if args.kind == "attack" and args.target:
            spec["attack"] = args.target[0]
        elif args.kind == "sweep" and args.target:
            spec["benchmarks"] = list(args.target)
        if args.config:
            if args.kind == "attack":
                spec["config"] = args.config
            else:
                spec["configs"] = [args.config]
        if args.spec:
            spec.update(json_mod.loads(args.spec))
        client = ServerClient(args.server, token=args.token)
        # Forward the CLI's root span so the server's submit/queue/
        # execute spans land in the same trace.
        from repro.obs.spans import maybe_tracer
        tracer = maybe_tracer("cli")
        current = tracer.current() if tracer is not None else None
        try:
            job = client.submit(
                args.kind, spec, priority=args.priority,
                traceparent=current.traceparent() if current else None,
            )
            if args.wait:
                job = client.wait(job.id, timeout=args.timeout)
                if job.state == "failed":
                    print("job %s failed: %s" % (job.id[:12], job.error),
                          file=sys.stderr)
                    return 1
                print(json_mod.dumps(client.result(job.id), indent=2,
                                     sort_keys=True))
            else:
                print("job %s %s (queue position %s)"
                      % (job.id, job.state, job.queue_position))
        except ServerError as err:
            print("server error [%d %s]: %s"
                  % (err.status, err.code, err), file=sys.stderr)
            return 1
        except OSError as err:
            print("cannot reach %s: %s" % (args.server, err),
                  file=sys.stderr)
            return 1
        return 0

    if args.command == "figure":
        return _figure(args)

    if args.command == "fuzz":
        return _fuzz(args)

    if args.command == "obs":
        return _obs(args)

    return 2


def _obs_trace_program(args):
    """Resolve an ``obs trace`` target to a Program: attack name first,
    then micro-kernel, then workload profile."""
    attacks = {info.name: info for info in IMPLEMENTED}
    if args.target in attacks:
        return attacks[args.target].module.build_program()
    from repro.workloads.kernels import ALL_KERNELS
    if args.target in ALL_KERNELS:
        return ALL_KERNELS[args.target](args.instructions)
    if args.target in PROFILES:
        from repro.workloads.generator import spec_program
        return spec_program(args.target, args.instructions, args.seed)
    raise SystemExit(
        "unknown trace target %r (attacks: %s; kernels and workload "
        "profiles also accepted)"
        % (args.target, ", ".join(sorted(attacks)))
    )


def _obs(args) -> int:
    import json as json_mod
    import os

    from repro.obs import (
        EventBus,
        MetricsRegistry,
        MetricsSampler,
        build_manifest,
        counter_trace_events,
        engine_trace_events,
        latest_manifest,
        lifecycle_trace_events,
        list_manifests,
        load_manifest,
        validate_manifest,
        write_chrome_trace,
        write_manifest,
    )

    if args.obs_command == "trace" and args.target == "merge":
        from repro.obs import merge_span_spools
        directory = (
            args.spool_dir
            or os.environ.get("REPRO_TRACE_DIR")
            or os.path.join("results", "traces", "spans")
        )
        output = args.output or os.path.join(
            "results", "traces", "merged.json"
        )
        summary = merge_span_spools(directory, output)
        if not summary["spans"]:
            print("no span spools under %s (run the campaign with "
                  "REPRO_TRACE_DIR=%s first)" % (directory, directory))
            return 2
        print("merged %d spans across %d traces from %d processes (%s)"
              % (summary["spans"], summary["traces"],
                 len(summary["processes"]),
                 ", ".join(summary["processes"])))
        print("trace: %s  (open at https://ui.perfetto.dev)"
              % summary["path"])
        return 0

    if args.obs_command == "top":
        return _obs_top(args)

    if args.obs_command == "trace":
        from repro.core.inorder import InOrderCore
        from repro.core import make_core
        from repro.debug import PipelineTracer

        program = _obs_trace_program(args)
        spec = config_registry()[args.config]
        core = (
            InOrderCore(program, spec.config) if spec.in_order
            else make_core(program, spec.config)
        )
        bus = EventBus().attach(core)
        tracer = PipelineTracer(limit=args.limit)
        bus.subscribe(tracer)
        sampler = bus.add_sampler(MetricsSampler(args.sample_interval))
        outcome = core.run()

        events = lifecycle_trace_events(tracer.records)
        events += counter_trace_events(sampler)
        output = args.output or os.path.join(
            "results", "traces",
            "%s-%s.json" % (args.target, args.config),
        )
        write_chrome_trace(output, events, metadata={
            "target": args.target,
            "config": args.config,
            "scheme": spec.config.scheme,
            "cycles": outcome.stats.cycles,
        })
        manifest_path = write_manifest(build_manifest(
            spec.config, kind="trace", workload=args.target,
            seed=args.seed, stats=outcome.stats,
        ))
        deferred = sum(
            1 for r in tracer.records
            if not r.squashed and r.wakeup_delay > 1
        )
        print("traced %s on %s: %d instructions, %d samples, "
              "%d deferred wake-ups"
              % (args.target, args.config, len(tracer.records),
                 len(sampler.rows), deferred))
        print("trace:    %s  (open at https://ui.perfetto.dev)" % output)
        print("manifest: %s" % manifest_path)
        return 0

    if args.obs_command == "metrics":
        manifest = (
            load_manifest(args.path) if args.path else latest_manifest()
        )
        if manifest is None:
            print("no manifests found (run `nda-repro obs trace ...` first)")
            return 2
        snapshot = manifest.get("metrics")
        if not snapshot:
            print("manifest %s carries no metric snapshot"
                  % manifest.get("label", "?"))
            return 2
        print("%s %s (%s)" % (manifest.get("kind", "run"),
                              manifest.get("label", "?"),
                              manifest.get("git_revision", "?")[:12]))
        print(MetricsRegistry.restore(snapshot).render())
        return 0

    if args.obs_command == "manifest":
        if args.action == "list":
            paths = list_manifests()
            for path in paths:
                manifest = load_manifest(path)
                print("%-9s %-28s %s" % (
                    manifest.get("kind", "?"),
                    manifest.get("label", "?"),
                    path,
                ))
            if not paths:
                print("no manifests under %s" % (
                    os.environ.get("REPRO_MANIFEST_DIR")
                    or os.path.join("results", "manifests")
                ))
            return 0
        manifest = (
            load_manifest(args.path) if args.path else latest_manifest()
        )
        if manifest is None:
            print("no manifests found")
            return 2
        if args.action == "show":
            print(json_mod.dumps(manifest, indent=2, sort_keys=True))
            return 0
        problems = validate_manifest(manifest)
        if problems:
            for problem in problems:
                print("INVALID: %s" % problem)
            return 1
        print("valid manifest (schema %s)" % manifest["schema_version"])
        return 0

    if args.obs_command == "export":
        suite = run_suite(
            benchmarks=args.benchmarks,
            samples=args.samples,
            warmup=args.warmup,
            measure=args.measure,
            collect_trace=True,
            **_engine_kwargs(args),
        )
        output = args.output or os.path.join(
            "results", "traces", "engine.json"
        )
        write_chrome_trace(
            output, engine_trace_events(suite.engine.job_trace),
            metadata={"engine": suite.engine.describe()},
        )
        print("engine: %s" % suite.engine.describe())
        print("trace:  %s  (open at https://ui.perfetto.dev)" % output)
        return 0

    return 2


def _obs_top(args) -> int:
    """Poll ``GET /v1/status`` and print a live observatory summary."""
    import time as time_mod

    from repro.server import ServerClient, ServerError

    client = ServerClient(args.server, token=args.token)
    polls = 0
    while True:
        try:
            status = client.status()
        except ServerError as err:
            print("server error [%d %s]: %s"
                  % (err.status, err.code, err), file=sys.stderr)
            return 1
        polls += 1
        print(_render_top(status, args.server))
        if args.iterations and polls >= args.iterations:
            return 0
        try:
            time_mod.sleep(max(0.1, args.interval))
        except KeyboardInterrupt:
            print()
            return 0


def _render_top(status: dict, server: str) -> str:
    """One poll of /v1/status as a compact multi-line block."""
    import time as time_mod

    lines = ["-- %s  %s" % (server, time_mod.strftime("%H:%M:%S"))]
    queue = status.get("queue", {})
    lines.append(
        "queue    " + "  ".join(
            "%s=%d" % (state, queue.get(state, 0))
            for state in ("queued", "running", "done", "failed")
        )
    )
    jobs = status.get("jobs", {})
    for kind, counts in sorted((jobs.get("by_kind") or {}).items()):
        lines.append(
            "  %-7s %d done / %d running / %d queued / %d failed"
            " (%d cached)"
            % (kind, counts.get("done", 0), counts.get("running", 0),
               counts.get("queued", 0), counts.get("failed", 0),
               counts.get("cached", 0))
        )
    for job in status.get("running") or []:
        lines.append("  > %s %s attempt %d, %.1fs"
                     % (job.get("id"), job.get("kind"),
                        job.get("attempt", 0),
                        job.get("running_seconds", 0.0)))
    workers = status.get("workers", {})
    lines.append("workers  threads=%d executed=%d"
                 % (workers.get("threads", 0), workers.get("executed", 0)))
    for name, lease in sorted((workers.get("leases") or {}).items()):
        lines.append("  lease  %-18s %d leases, %.0fms busy, %d errors"
                     % (name, lease.get("leases", 0),
                        lease.get("busy_ms", 0.0), lease.get("errors", 0)))
    cache = status.get("cache")
    if cache:
        lines.append(
            "cache    hits=%d misses=%d stores=%d errors=%d"
            " (hit rate %.1f%%)"
            % (cache.get("hits", 0), cache.get("misses", 0),
               cache.get("stores", 0), cache.get("errors", 0),
               100.0 * cache.get("hit_rate", 0.0))
        )
    latency = status.get("latency", {})
    parts = []
    for label, key in (("queue-wait", "queue_wait"), ("execute", "execute")):
        summary = latency.get(key) or {}
        if summary.get("count"):
            parts.append("%s p50=%.0fms p95=%.0fms (n=%d)"
                         % (label, summary.get("p50_ms", 0.0),
                            summary.get("p95_ms", 0.0),
                            summary.get("count", 0)))
    if parts:
        lines.append("latency  " + "   ".join(parts))
    return "\n".join(lines)


def _fuzz(args) -> int:
    import repro.fuzz as fuzz_mod

    if args.fuzz_command == "run":
        def progress(done, total, _result):
            if done % 25 == 0 or done == total:
                sys.stderr.write("\r[%d/%d]" % (done, total))
                sys.stderr.flush()
                if done == total:
                    sys.stderr.write("\n")

        campaign = fuzz_mod.run_campaign(
            range(args.seed0, args.seed0 + args.seeds),
            config_names=args.configs,
            jobs=args.jobs,
            progress=progress,
            max_cycles=args.max_cycles,
            backend=args.backend,
            checkpoint=args.checkpoint,
            resume=args.resume,
            smt=args.smt,
        )
        print(campaign.describe())
        from repro.obs import (
            build_manifest, metrics_from_campaign, write_manifest,
        )
        manifest_path = write_manifest(build_manifest(
            config_registry()["ooo"].config,
            kind="fuzz-campaign",
            seed=args.seed0,
            metrics=metrics_from_campaign(campaign).collect(),
            extra={
                "seeds": args.seeds,
                "configs": sorted({
                    r.config_name for r in campaign.results
                }),
            },
        ))
        print("manifest: %s" % manifest_path)
        return 0 if campaign.ok else 1

    if args.fuzz_command == "replay":
        spec = config_registry()[args.config]
        if args.what.isdigit():
            run = fuzz_mod.run_seed(int(args.what), args.config)
            witnesses = run.witnesses
            print(
                "seed %d [%s -> %s] on %s: %d witnesses, %d cycles"
                % (run.seed, run.template, run.channel, args.config,
                   len(witnesses), run.cycles)
            )
        else:
            entry = fuzz_mod.load_witness_file(args.what)
            _, witnesses = fuzz_mod.run_with_oracle(
                entry["program"], spec.config,
                secret_ranges=entry["secret_ranges"],
                tainted_bytes=entry["tainted_bytes"],
            )
            print(
                "%s (%s) on %s: %d witnesses"
                % (args.what, entry["meta"].get("channel", "?"),
                   args.config, len(witnesses))
            )
        for witness in witnesses:
            print("  %s" % (witness.to_dict(),))
        return 0

    if args.fuzz_command == "minimize":
        fp = fuzz_mod.generate(args.seed)
        predicate = fuzz_mod.differential_predicate(
            secret_ranges=fp.secret_ranges,
            tainted_bytes=fp.tainted_bytes,
            channel=fp.channel,
            blocked_under=args.blocked_under,
        )
        try:
            result = fuzz_mod.minimize_program(
                fp.program, predicate, max_tests=args.max_tests
            )
        except ValueError as error:
            print("seed %d [%s]: %s" % (args.seed, fp.template, error))
            return 2
        print("seed %d [%s/%s]: %s"
              % (args.seed, fp.template, fp.channel, result.describe()))
        if args.output:
            fuzz_mod.save_witness_file(
                args.output, result.program,
                meta={
                    "template": fp.template,
                    "channel": fp.channel,
                    "seed": args.seed,
                    "analog": fp.analog,
                    "config_name": "ooo",
                    "original_size": result.original_size,
                    "minimized_size": result.size,
                },
                secret_ranges=fp.secret_ranges,
                tainted_bytes=fp.tainted_bytes,
            )
            print("wrote %s" % args.output)
        return 0

    return 2


def _figure(args) -> int:
    benchmarks = args.benchmarks or list(DEFAULT_SUITE)
    if args.which == "4":
        print(render_figure4(figure4()))
        return 0
    if args.which == "8":
        print(render_figure8(figure8()))
        return 0
    engine_kwargs = _engine_kwargs(args)
    if args.which == "9e":
        if engine_kwargs["cache"]:
            from repro.engine import open_store
            cache = open_store(
                engine_kwargs["cache_dir"],
                remote=engine_kwargs["remote_cache"],
            )
        else:
            cache = False
        print(render_figure9e(figure9e(
            benchmarks=benchmarks,
            jobs=engine_kwargs["jobs"],
            cache=cache,
            backend=engine_kwargs["backend"],
            backend_options=engine_kwargs["backend_options"],
            checkpoint=engine_kwargs["checkpoint"],
            resume=engine_kwargs["resume"],
        )))
        return 0
    suite = run_suite(
        benchmarks=benchmarks, samples=args.samples, **engine_kwargs
    )
    print("engine: %s" % suite.engine.describe())
    if args.which == "7":
        print(render_figure7(suite))
    elif args.which == "9a":
        print(render_figure9a(suite))
    elif args.which in ("9b", "9c"):
        print(render_figure9bc(suite))
    elif args.which == "9d":
        print(render_figure9d(suite))
    return 0


if __name__ == "__main__":
    sys.exit(main())
