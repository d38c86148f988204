"""Emulated operating system for subject-system execution.

Provides the deterministic world a subject server runs against: a
filesystem, a TCP/UDP port table, a user/group database, a hostname
resolver, a virtual clock, the functional-test request queue, and the
captured log streams.  SPEX-INJ's reaction classifier reads process
behaviour exclusively through this surface, the same externally
observable channel the paper uses on real systems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class FileNode:
    """One entry in the emulated filesystem.

    Immutable: every writer swaps a changed copy into `EmulatedOS.files`
    (`EmulatedOS.update_node`), so a snapshot and all of its resumes
    share the nodes they never write.
    """

    path: str
    is_dir: bool = False
    content: str = ""
    mode: int = 0o644
    owner: str = "root"
    writable: bool = True


@dataclass
class LogRecord:
    """One captured log line."""

    stream: str  # "stdout" | "stderr" | "syslog" | "console"
    text: str

    def __str__(self) -> str:
        return f"[{self.stream}] {self.text}"


DEFAULT_USERS = ("root", "nobody", "daemon", "www-data", "ftp", "mysql", "postgres")
DEFAULT_GROUPS = ("root", "nogroup", "daemon", "www-data", "ftp", "mysql", "postgres")
DEFAULT_HOSTS = {
    "localhost": "127.0.0.1",
    "db.internal": "10.0.0.5",
    "cache.internal": "10.0.0.6",
}


class EmulatedOS:
    """Deterministic OS state shared by one process run."""

    def __init__(self) -> None:
        self.files: dict[str, FileNode] = {}
        self.users: set[str] = set(DEFAULT_USERS)
        self.groups: set[str] = set(DEFAULT_GROUPS)
        self.hosts: dict[str, str] = dict(DEFAULT_HOSTS)
        self.occupied_ports: set[int] = set()
        self.bound_ports: set[int] = set()
        self.clock: float = 1_700_000_000.0
        self.virtual_time_spent: float = 0.0
        self.logs: list[LogRecord] = []
        self.requests: list[str] = []
        self.responses: list[str] = []
        self._request_cursor = 0
        # Total `next_request` polls, including empty-queue ones.  The
        # warm-boot snapshot engine watches this to find the statement
        # during which a launch first touches the request queue - the
        # point up to which execution is request-independent.
        self.request_polls = 0
        self.add_dir("/")
        self.add_dir("/etc")
        self.add_dir("/var")
        self.add_dir("/var/log")
        self.add_dir("/var/run")
        self.add_dir("/tmp")
        self.add_dir("/data")

    # -- filesystem -----------------------------------------------------

    def add_dir(self, path: str, mode: int = 0o755,
                owner: str = "root") -> FileNode:
        node = FileNode(path=path, is_dir=True, mode=mode, owner=owner)
        self.files[path] = node
        return node

    def add_file(self, path: str, content: str = "", mode: int = 0o644,
                 writable: bool = True) -> FileNode:
        self._ensure_parents(path)
        node = FileNode(
            path=path, content=content, mode=mode, writable=writable
        )
        self.files[path] = node
        return node

    def update_node(self, node: FileNode, **changes) -> FileNode:
        """Replace `node` in `files` by a copy with `changes` applied."""
        new = replace(node, **changes)
        self.files[node.path] = new
        return new

    def _ensure_parents(self, path: str) -> None:
        parts = [p for p in path.split("/") if p]
        cur = ""
        for part in parts[:-1]:
            cur += "/" + part
            if cur not in self.files:
                self.add_dir(cur)

    def lookup(self, path: str) -> FileNode | None:
        return self.files.get(path)

    # -- access control -------------------------------------------------

    def can_read(self, path: str, user: str) -> bool:
        node = self.files.get(path)
        if node is None:
            return False
        return node_allows(node.mode, node.owner, node.writable, user, False)

    def can_write(self, path: str, user: str) -> bool:
        node = self.files.get(path)
        if node is None:
            return False
        return node_allows(node.mode, node.owner, node.writable, user, True)

    def chmod(self, path: str, mode: int) -> int:
        node = self.files.get(path)
        if node is None:
            return -2  # ENOENT
        self.update_node(node, mode=mode & 0o7777)
        return 0

    def chown(self, path: str, owner: str) -> int:
        node = self.files.get(path)
        if node is None:
            return -2  # ENOENT
        if owner not in self.users:
            return -1
        self.update_node(node, owner=owner)
        return 0

    def exists(self, path: str) -> bool:
        return path in self.files

    def parent_exists(self, path: str) -> bool:
        parent = path.rsplit("/", 1)[0] or "/"
        node = self.files.get(parent)
        return node is not None and node.is_dir

    # -- network -----------------------------------------------------------

    def occupy_port(self, port: int) -> None:
        """Mark a port as taken by 'another process' (test scenario)."""
        self.occupied_ports.add(port)

    def try_bind(self, port: int) -> int:
        """POSIX-ish bind: 0 on success, negative errno-style code."""
        if port < 0 or port > 65535:
            return -22  # EINVAL
        if port in self.occupied_ports or port in self.bound_ports:
            return -98  # EADDRINUSE
        if 0 < port < 1024:
            pass  # running as root in the sandbox: privileged ports fine
        self.bound_ports.add(port)
        return 0

    def resolve_host(self, name: str) -> str | None:
        if name in self.hosts:
            return self.hosts[name]
        # Dotted-quad literals resolve to themselves when valid.
        if valid_ipv4(name):
            return name
        return None

    # -- clock -------------------------------------------------------------

    def now(self) -> float:
        return self.clock + self.virtual_time_spent

    def advance(self, seconds: float) -> None:
        self.virtual_time_spent += max(0.0, seconds)

    # -- harness I/O ---------------------------------------------------------

    def queue_requests(self, requests: list[str]) -> None:
        self.requests = list(requests)
        self._request_cursor = 0
        self.responses = []

    def next_request(self) -> str | None:
        self.request_polls += 1
        if self._request_cursor >= len(self.requests):
            return None
        req = self.requests[self._request_cursor]
        self._request_cursor += 1
        return req

    def send_response(self, text: str) -> None:
        self.responses.append(text)

    # -- logging ---------------------------------------------------------------

    def log(self, stream: str, text: str) -> None:
        for line in text.splitlines() or [""]:
            if line:
                self.logs.append(LogRecord(stream, line))

    def log_text(self) -> str:
        return "\n".join(str(r) for r in self.logs)


def node_allows(
    mode: int, owner: str, writable: bool, user: str, write: bool
) -> bool:
    """The single owner/other permission-bit rule, shared with the
    config checker's `EnvView` so the runtime and the static checker
    judge ACLs identically and cannot drift.

    Simplified POSIX: root bypasses mode bits; the owner is judged by
    the user bits, everyone else by the other bits (the emulated OS
    has no supplementary-group table).  The legacy `writable` flag
    stays an independent veto on writes - existing fixtures built on
    it keep their behaviour.
    """
    if write and not writable:
        return False
    if user == "root":
        return True
    bit = 0o200 if write else 0o400
    if user != owner:
        bit >>= 6  # the "other" bit column
    return bool(mode & bit)


def valid_ipv4(text: str) -> bool:
    """Strict dotted-quad check, shared with the config checker's
    IP/hostname semantic validators so the two layers cannot drift."""
    parts = text.split(".")
    if len(parts) != 4:
        return False
    for part in parts:
        if not part.isdigit():
            return False
        if int(part) > 255:
            return False
    return True
