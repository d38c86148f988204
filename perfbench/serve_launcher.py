"""The traced server: `cli serve` with the serve-side wrappers installed.

    PYTHONPATH=src python3 perfbench/serve_launcher.py serve --json --port 0

Runs exactly the `serve` command's code path, after wrapping the names
the server reaches each layer through (`ValidationService.check`,
`validate_config` as `repro.serve.service` sees it, and the set-up
layers its warm-up compiles through).  When the server stops, it
prints one JSON line with its span summary, exact counters and the
service's cache statistics.
"""

from __future__ import annotations

import json
import sys

import tracing
from repro.obs import get_registry
from repro.reporting import cli
from repro.serve.service import ValidationService


def main() -> int:
    recorder = tracing.Recorder()
    tracing.install_program_layers(recorder)
    tracing.install_serve_layers(recorder)
    services = []
    original_start = ValidationService.start

    async def start(self):
        services.append(self)
        return await original_start(self)

    ValidationService.start = start
    code = cli.main(sys.argv[1:])
    registry = get_registry().snapshot()
    print(
        json.dumps(
            {
                "summary": recorder.summary(),
                "counts": recorder.counts,
                "spans": len(recorder.spans),
                "registry": registry,
                "cache_stats": services[0].caches.stats(),
                "launches": registry["counters"].get("launch.requests", 0),
            }
        ),
        flush=True,
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
