"""Always-on validation service throughput.

The serve tier's reason to exist: a resident service skips SPEX
inference and checker compilation on every request, so sustained
validation throughput under concurrent clients must dwarf the cold
CLI path (`python -m repro.reporting.cli check`), which pays the full
pipeline per invocation.  The measured ratio is printed with the
benchmark tier's output; `perfbench/` is the repo's recorded serve
benchmark.
"""

import asyncio
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import emit

from repro.serve import BackgroundServer, ServeClient

REPO_ROOT = Path(__file__).resolve().parent.parent

N_CLIENTS = 8
CHECKS_PER_CLIENT = 150
COLD_CLI_REPS = 3
REQUIRED_SPEEDUP = 20.0

# A small rotation so the service sees clean, flagged, and unknown-
# parameter work rather than one memo-friendly input.
CONFIGS = [
    "ft_min_word_len = 5\n",
    "ft_min_word_len = 99\nmade_up_param = 1\n",
    "port = 70000\n",
    "ft_min_word_len = 6\nmax_connections = 151\n",
]

# The declarative nginx system rides the same service; its rotation
# leans on access-control diagnostics (denied directory, bad mode).
NGINX_CLIENTS = 4
NGINX_CHECKS_PER_CLIENT = 75
NGINX_CONFIGS = [
    "worker_processes 4\n",
    "root /data/restricted_dir\nuser www-data\n",
    "upload_store_mode 899\n",
    "listen 8080\nkeepalive_timeout 65\n",
]


@pytest.fixture(scope="module")
def cold_cli_rate(tmp_path_factory):
    """Checks/second through the cold CLI: one full process + SPEX +
    compile + validate per configuration file."""
    path = tmp_path_factory.mktemp("serve-bench") / "probe.cnf"
    path.write_text(CONFIGS[1])
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    argv = [
        sys.executable, "-m", "repro.reporting.cli",
        "check", "mysql", str(path), "--json",
    ]
    started = time.perf_counter()
    for _ in range(COLD_CLI_REPS):
        completed = subprocess.run(
            argv, env=env, cwd=REPO_ROOT, capture_output=True, text=True
        )
        assert completed.returncode == 1, completed.stderr  # flagged
    duration = time.perf_counter() - started
    return COLD_CLI_REPS / duration, duration


def _measure_serve(
    system: str,
    configs: list[str],
    n_clients: int,
    checks_per_client: int,
) -> tuple[int, float, int]:
    """(total checks, wall seconds, flagged responses) for one system
    served to `n_clients` concurrent clients."""
    with BackgroundServer(systems=[system]) as handle:

        async def one_client(index: int) -> int:
            client = await ServeClient.connect(handle.host, handle.port)
            flagged = 0
            try:
                for i in range(checks_per_client):
                    text = configs[(index + i) % len(configs)]
                    response = await client.check(
                        system, text, config_id=f"bench-{system}-{index}"
                    )
                    assert response.revision == i + 1
                    if response.flagged:
                        flagged += 1
                return flagged
            finally:
                await client.close()

        async def drive() -> int:
            totals = await asyncio.gather(
                *(one_client(i) for i in range(n_clients))
            )
            return sum(totals)

        started = time.perf_counter()
        flagged = asyncio.run(drive())
        duration = time.perf_counter() - started
    return n_clients * checks_per_client, duration, flagged


def test_sustained_serve_throughput_vs_cold_cli(cold_cli_rate):
    cli_rate, cli_duration = cold_cli_rate

    checks, serve_duration, _ = _measure_serve(
        "mysql", CONFIGS, N_CLIENTS, CHECKS_PER_CLIENT
    )
    serve_rate = checks / serve_duration
    speedup = serve_rate / cli_rate
    emit(
        f"serve: {checks} checks by {N_CLIENTS} concurrent clients in "
        f"{serve_duration:.2f}s ({serve_rate:.0f} checks/s) vs cold CLI "
        f"{cli_rate:.2f} checks/s ({COLD_CLI_REPS} runs in "
        f"{cli_duration:.2f}s) - {speedup:.0f}x"
    )
    assert speedup >= REQUIRED_SPEEDUP

    # The declarative eighth system through the same service; half its
    # rotation carries access-control mistakes, so flagged responses
    # prove those diagnostics survive the serve tier under concurrency.
    nginx_checks, nginx_duration, nginx_flagged = _measure_serve(
        "nginx", NGINX_CONFIGS, NGINX_CLIENTS, NGINX_CHECKS_PER_CLIENT
    )
    nginx_rate = nginx_checks / nginx_duration
    emit(
        f"serve[nginx]: {nginx_checks} checks in {nginx_duration:.2f}s "
        f"({nginx_rate:.0f} checks/s), {nginx_flagged} flagged "
        "(access-control rotation)"
    )
    assert nginx_flagged == nginx_checks // 2
