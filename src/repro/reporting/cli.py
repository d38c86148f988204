"""Command-line interface: regenerate tables/figures, run the
pipeline, check config files, validate synthetic fleets.

Usage::

    python -m repro.reporting.cli            # everything (§4)
    python -m repro.reporting.cli table5a    # one table
    python -m repro.reporting.cli figure3 table11
    python -m repro.reporting.cli pipeline --executor process --json
    python -m repro.reporting.cli check mysql /path/to/my.cnf
    python -m repro.reporting.cli fleet --size 1500 --executor process
    python -m repro.reporting.cli serve --port 7878
    python -m repro.reporting.cli submit mysql my.cnf --port 7878

Unknown subcommands exit with status 2 and print this command list;
`check` and `submit` exit 1 when the config has errors, 0 when it is
clean.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.reporting.evalrun import Evaluation

_SECTIONS = [
    "table1", "table2", "table3", "table4", "table5a", "table5b",
    "table6", "table7", "table8", "table9", "table10", "table11",
    "table12", "figure3", "figure5", "figure6", "figure7",
]


def _usage() -> str:
    sections = ", ".join(_SECTIONS)
    return (
        "usage: python -m repro.reporting.cli [command ...]\n"
        "\n"
        "commands:\n"
        "  all (default)      regenerate every table and figure\n"
        f"  <section>          one of: {sections}\n"
        "  pipeline           run the batched multi-system campaign "
        "pipeline\n"
        "                     (--executor serial|thread|process, "
        "--systems a,b,\n"
        "                     --workers N, --repeat N, --json)\n"
        "  check SYSTEM FILE  validate one config file against the "
        "system's\n"
        "                     inferred constraints (exit 1 on errors; "
        "--json)\n"
        "  fleet              validate a synthetic user-config fleet "
        "per system\n"
        "                     (--systems a,b, --size N, --seed N, "
        "--mistake-rate F,\n"
        "                     --executor serial|thread|process, "
        "--workers N,\n"
        "                     --chunk N, --sample N, --json)\n"
        "  serve              run the always-on validation service "
        "(--host, --port,\n"
        "                     --systems a,b, --workers N, "
        "--warmup-only, --json,\n"
        "                     --trace PATH)\n"
        "  submit SYSTEM FILE check one config against a running "
        "service\n"
        "                     (--host, --port, --config-id ID, "
        "--severity error|warning,\n"
        "                     --kinds a,b, --json; exit 1 on errors)\n"
        "  help               show this message\n"
    )


def _bounded(convert, check, wanted: str):
    """An argparse `type` that rejects values failing `check`, so a bad
    flag exits 2 with a usage message like any other parse error."""

    def parse(text: str):
        value = convert(text)
        if not check(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {wanted}")
        return value

    # argparse names the type in its "invalid int value" message.
    parse.__name__ = convert.__name__
    return parse


_positive_int = _bounded(int, lambda n: n >= 1, "an integer >= 1")
_non_negative_int = _bounded(int, lambda n: n >= 0, "an integer >= 0")
_fraction = _bounded(float, lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]")


def _pipeline_command(args: list[str]) -> int:
    from repro.pipeline import CampaignPipeline, executor_names
    from repro.reporting.aggregate import render_pipeline_report

    parser = argparse.ArgumentParser(
        prog="python -m repro.reporting.cli pipeline",
        description="Run injection campaigns across systems in one sweep.",
    )
    parser.add_argument(
        "--executor", choices=list(executor_names()), default="serial"
    )
    parser.add_argument(
        "--systems",
        default=None,
        help="comma-separated subset (default: all registered systems)",
    )
    parser.add_argument("--workers", type=_positive_int, default=None)
    parser.add_argument(
        "--repeat",
        type=_positive_int,
        default=1,
        help="run the sweep N times (re-runs reuse inference and boot "
        "records)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="persist per-campaign progress checkpoints under DIR so a "
        "killed sweep resumes from its completed systems",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable summary instead of the table",
    )
    try:
        options = parser.parse_args(args)
    except SystemExit as exc:
        return int(exc.code or 0)

    checkpoint = None
    if options.checkpoint:
        from repro.resilience import CheckpointStore

        checkpoint = CheckpointStore(options.checkpoint)
    names = options.systems.split(",") if options.systems else None
    pipeline = CampaignPipeline(
        systems=names,
        executor=options.executor,
        max_workers=options.workers,
        checkpoint=checkpoint,
    )
    report = None
    try:
        for _ in range(max(1, options.repeat)):
            report = pipeline.run()
    except KeyError as exc:  # unknown system, from the registry
        print(exc.args[0], file=sys.stderr)
        return 2
    if options.json:
        print(json.dumps(report.summary_dict(), indent=2))
    else:
        print(render_pipeline_report(report))
    return 0


def _check_command(args: list[str]) -> int:
    from repro.checker import checker_for_system, validate_config
    from repro.reporting.aggregate import render_validation_report
    from repro.systems.registry import get_system, is_registered, system_names

    parser = argparse.ArgumentParser(
        prog="python -m repro.reporting.cli check",
        description=(
            "Validate one configuration file against a system's "
            "inferred constraints."
        ),
    )
    parser.add_argument("system")
    parser.add_argument("config_file")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of diagnostics",
    )
    try:
        options = parser.parse_args(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not is_registered(options.system):
        print(
            f"unknown system {options.system!r}; registered: "
            f"{', '.join(system_names())}",
            file=sys.stderr,
        )
        return 2
    try:
        with open(options.config_file, "r", encoding="utf-8") as handle:
            config_text = handle.read()
    except OSError as exc:
        print(f"cannot read {options.config_file}: {exc}", file=sys.stderr)
        return 2
    checker = checker_for_system(get_system(options.system))
    report = validate_config(checker, config_text)
    if options.json:
        print(json.dumps(report.summary_dict(), indent=2))
    else:
        print(render_validation_report(report))
    return 1 if report.flagged else 0


def _fleet_command(args: list[str]) -> int:
    from repro.checker import run_fleet
    from repro.checker.corpus import DEFAULT_MISTAKE_RATE
    from repro.checker.fleet import DEFAULT_CHUNK_SIZE
    from repro.pipeline import executor_names
    from repro.reporting.aggregate import render_fleet_report

    parser = argparse.ArgumentParser(
        prog="python -m repro.reporting.cli fleet",
        description=(
            "Generate a synthetic user-config fleet per system and "
            "validate it against compiled constraints."
        ),
    )
    parser.add_argument(
        "--systems",
        default=None,
        help="comma-separated subset (default: all registered systems)",
    )
    parser.add_argument("--size", type=_non_negative_int, default=200,
                        help="configs per system")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mistake-rate", type=_fraction, default=DEFAULT_MISTAKE_RATE
    )
    parser.add_argument(
        "--executor", choices=list(executor_names()), default="serial"
    )
    parser.add_argument("--workers", type=_positive_int, default=None)
    parser.add_argument(
        "--chunk", type=_positive_int, default=DEFAULT_CHUNK_SIZE
    )
    parser.add_argument(
        "--sample",
        type=_non_negative_int,
        default=0,
        help="ground-truth this many flagged configs under the "
        "injection harness",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="persist per-chunk progress checkpoints under DIR so a "
        "killed run resumes from its completed shards",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable summary instead of the table",
    )
    try:
        options = parser.parse_args(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    checkpoint = None
    if options.checkpoint:
        from repro.resilience import CheckpointStore

        checkpoint = CheckpointStore(options.checkpoint)
    names = options.systems.split(",") if options.systems else None
    try:
        report = run_fleet(
            systems=names,
            size=options.size,
            seed=options.seed,
            mistake_rate=options.mistake_rate,
            executor=options.executor,
            max_workers=options.workers,
            chunk_size=options.chunk,
            agreement_sample=options.sample,
            checkpoint=checkpoint,
        )
    except KeyError as exc:  # unknown system, from the registry
        print(exc.args[0], file=sys.stderr)
        return 2
    if options.json:
        print(json.dumps(report.summary_dict(), indent=2))
    else:
        print(render_fleet_report(report))
    return 0


def _serve_command(args: list[str]) -> int:
    import asyncio

    from repro.serve import ValidationServer, ValidationService

    parser = argparse.ArgumentParser(
        prog="python -m repro.reporting.cli serve",
        description=(
            "Run the always-on validation service: compiled checkers "
            "stay resident and configs are checked over a local NDJSON "
            "socket."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks an ephemeral port")
    parser.add_argument(
        "--systems",
        default=None,
        help="comma-separated subset (default: all registered systems)",
    )
    parser.add_argument("--workers", type=_positive_int, default=None)
    parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="bound the admission queue; excess requests are shed with "
        "a typed `overloaded` error instead of queueing",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline; slower checks return a typed "
        "`deadline` error and count against the circuit breaker",
    )
    parser.add_argument(
        "--warmup-only",
        action="store_true",
        help="warm every checker, print the service status, and exit "
        "(a smoke test of the serve path)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable status lines",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append NDJSON trace spans (serve.check and below) to PATH",
    )
    try:
        options = parser.parse_args(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    names = options.systems.split(",") if options.systems else None

    async def run() -> int:
        try:
            service = ValidationService(
                systems=names,
                max_workers=options.workers,
                max_pending=options.max_pending,
                deadline_seconds=options.deadline,
            )
        except KeyError as exc:  # unknown system, from the registry
            print(exc.args[0], file=sys.stderr)
            return 2
        await service.start()
        if options.warmup_only:
            status = service.status()
            if options.json:
                print(json.dumps(status.summary_dict(), indent=2))
            else:
                print(
                    f"warmed {len(status.systems)} checker(s) in "
                    f"{status.warmup_seconds:.2f}s: "
                    f"{', '.join(status.systems)}"
                )
            await service.close()
            return 0
        server = ValidationServer(
            service, host=options.host, port=options.port
        )
        await server.start()
        status = service.status()
        if options.json:
            print(
                json.dumps(
                    {
                        "host": options.host,
                        "port": server.port,
                        "systems": list(status.systems),
                        "warmup_seconds": status.warmup_seconds,
                    }
                ),
                flush=True,
            )
        else:
            print(
                f"serving {len(status.systems)} system(s) on "
                f"{options.host}:{server.port} "
                f"(warmup {status.warmup_seconds:.2f}s); Ctrl-C stops",
                flush=True,
            )
        try:
            await server.wait_closed()
        except asyncio.CancelledError:  # pragma: no cover - signal path
            await server.stop()
        return 0

    trace_handle = None
    if options.trace:
        from repro.obs import NdjsonSink, Tracer, set_tracer

        try:
            trace_handle = open(options.trace, "a", encoding="utf-8")
        except OSError as exc:
            print(
                f"cannot open trace file {options.trace}: {exc}",
                file=sys.stderr,
            )
            return 2
        previous_tracer = set_tracer(
            Tracer(sink=NdjsonSink(trace_handle))
        )
    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0
    finally:
        if trace_handle is not None:
            set_tracer(previous_tracer)
            trace_handle.close()


def _submit_command(args: list[str]) -> int:
    from repro.reporting.aggregate import render_submit_report
    from repro.serve import ServeError, submit_config

    parser = argparse.ArgumentParser(
        prog="python -m repro.reporting.cli submit",
        description=(
            "Check one configuration file against a running validation "
            "service (see the serve command)."
        ),
    )
    parser.add_argument("system")
    parser.add_argument("config_file")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--config-id",
        default=None,
        help="config identity for diagnostic history (default: the "
        "file path)",
    )
    parser.add_argument(
        "--severity",
        choices=["error", "warning"],
        default=None,
        help="only return diagnostics of this severity",
    )
    parser.add_argument(
        "--kinds",
        default=None,
        help="comma-separated diagnostic kinds to return",
    )
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up on connecting after this long (typed `deadline` "
        "error instead of hanging)",
    )
    parser.add_argument(
        "--read-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up on each response after this long",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of diagnostics",
    )
    try:
        options = parser.parse_args(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with open(options.config_file, "r", encoding="utf-8") as handle:
            config_text = handle.read()
    except OSError as exc:
        print(f"cannot read {options.config_file}: {exc}", file=sys.stderr)
        return 2
    kinds = tuple(options.kinds.split(",")) if options.kinds else ()
    config_id = options.config_id or options.config_file
    begun = time.perf_counter()
    try:
        response, diagnostics = submit_config(
            options.host,
            options.port,
            options.system,
            config_text,
            config_id=config_id,
            severity=options.severity,
            kinds=kinds,
            connect_timeout=options.connect_timeout,
            read_timeout=options.read_timeout,
        )
    except ServeError as exc:
        print(f"service refused the request: {exc.message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(
            f"cannot reach the service at {options.host}:{options.port}: "
            f"{exc}",
            file=sys.stderr,
        )
        return 2
    roundtrip = time.perf_counter() - begun
    if options.json:
        payload = response.summary_dict()
        del payload["page"]
        payload["diagnostics"] = diagnostics
        # Client-measured trace: what the *caller* paid, end to end
        # (connect + check + page drain), vs the server-side latency
        # histogram the `metrics` op exposes.
        payload["trace"] = {
            "roundtrip_seconds": roundtrip,
            "config_bytes": len(config_text.encode("utf-8")),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(render_submit_report(response, diagnostics))
    return 1 if response.flagged else 0


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] in ("help", "-h", "--help"):
        print(_usage())
        return 0
    if args and args[0] == "pipeline":
        return _pipeline_command(args[1:])
    if args and args[0] == "check":
        return _check_command(args[1:])
    if args and args[0] == "fleet":
        return _fleet_command(args[1:])
    if args and args[0] == "serve":
        return _serve_command(args[1:])
    if args and args[0] == "submit":
        return _submit_command(args[1:])
    if not args or args == ["all"]:
        print(Evaluation.shared().all_tables())
        return 0
    unknown = [a for a in args if a not in _SECTIONS]
    if unknown:
        print(f"unknown command(s): {', '.join(unknown)}", file=sys.stderr)
        print(_usage(), file=sys.stderr)
        return 2
    evaluation = Evaluation.shared()
    for name in args:
        print(getattr(evaluation, name)())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
