"""Emulated C standard library for the MiniC runtime.

Each builtin receives the running interpreter, evaluated argument
values and the call location.  The set mirrors the APIs the SPEX
knowledge base understands (`repro.knowledge.apis`): file, socket,
user, time and string/number-conversion calls, including the *unsafe*
transformation APIs (`atoi`, `sscanf`, `sprintf`) whose C semantics
(silent garbage on bad input, wrap on overflow) are reproduced because
SPEX-INJ relies on them to expose vulnerabilities.
"""

from __future__ import annotations

import re

from repro.runtime.faults import (
    AbortFault,
    ExitProcess,
    SegmentationFault,
)
from repro.runtime.values import (
    ArrayValue,
    SparseArrayValue,
    FileHandle,
    Pointer,
)

ERANGE = 34
ENOENT = 2
EISDIR = 21
EACCES = 13

INT_MAX = (1 << 31) - 1

# Written into sscanf targets that fail to convert: C leaves them as
# stack garbage, we use a recognizable poison value.
GARBAGE_INT = -858993460


class BuiltinRegistry:
    """Name -> implementation table, extensible per subject system."""

    def __init__(self) -> None:
        self.table: dict[str, object] = {}

    def register(self, name: str):
        def deco(fn):
            self.table[name] = fn
            return fn

        return deco

    def get(self, name: str):
        return self.table.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.table


REGISTRY = BuiltinRegistry()
register = REGISTRY.register


def _as_str(value, location, what="string argument"):
    if value is None:
        raise SegmentationFault(f"NULL passed as {what}", location)
    if isinstance(value, str):
        return value
    if isinstance(value, SparseArrayValue):
        chars = []
        for i in range(min(len(value), 4096)):
            item = value.get(i)
            if not isinstance(item, int) or item == 0:
                break
            chars.append(chr(item & 0xFF))
        return "".join(chars)
    if isinstance(value, ArrayValue):
        chars = []
        for item in value.items:
            if not isinstance(item, int) or item == 0:
                break
            chars.append(chr(item & 0xFF))
        return "".join(chars)
    raise SegmentationFault(f"non-string passed as {what}: {value!r}", location)


def _as_int(value, location, what="integer argument"):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value)
    if value is None:
        return 0
    raise SegmentationFault(f"non-integer passed as {what}: {value!r}", location)


# ---------------------------------------------------------------------------
# printf-style formatting
# ---------------------------------------------------------------------------

_FORMAT_RE = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?(?:hh|h|ll|l|z)?([diouxXeEfgGscp%])")


def c_format(fmt: str, args: list) -> str:
    """Render a printf-style format with C-ish conversions."""
    out = []
    pos = 0
    arg_i = 0
    for match in _FORMAT_RE.finditer(fmt):
        out.append(fmt[pos : match.start()])
        pos = match.end()
        conv = match.group(1)
        if conv == "%":
            out.append("%")
            continue
        arg = args[arg_i] if arg_i < len(args) else 0
        arg_i += 1
        if conv in "diu":
            out.append(str(_to_int(arg)))
        elif conv in "oxX":
            spec = {"o": "o", "x": "x", "X": "X"}[conv]
            out.append(format(_to_int(arg) & 0xFFFFFFFFFFFFFFFF, spec))
        elif conv in "eEfgG":
            out.append(format(_to_float(arg), conv.lower() if conv in "eE" else "f"))
        elif conv == "c":
            out.append(chr(_to_int(arg) & 0xFF) if isinstance(arg, int) else str(arg)[:1])
        elif conv == "s":
            out.append("(null)" if arg is None else str(arg))
        elif conv == "p":
            out.append("0x0" if arg is None else f"0x{abs(id(arg)) & 0xFFFFFFFF:x}")
    out.append(fmt[pos:])
    return "".join(out)


def _to_int(value) -> int:
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return int(value)
    return 0


def _to_float(value) -> float:
    """A %e/%f/%g argument as a float; anything non-numeric reads as 0.0,
    as ``_to_int`` does for the integer conversions."""
    try:
        if isinstance(value, int):
            return float(_to_int(value))
        return float(value or 0.0)
    except (TypeError, ValueError, OverflowError):
        return 0.0


# ---------------------------------------------------------------------------
# String functions
# ---------------------------------------------------------------------------


@register("strcmp")
def _strcmp(interp, args, loc):
    a = _as_str(args[0], loc, "strcmp lhs")
    b = _as_str(args[1], loc, "strcmp rhs")
    return (a > b) - (a < b)


@register("strcasecmp")
def _strcasecmp(interp, args, loc):
    a = _as_str(args[0], loc, "strcasecmp lhs").lower()
    b = _as_str(args[1], loc, "strcasecmp rhs").lower()
    return (a > b) - (a < b)


@register("strncmp")
def _strncmp(interp, args, loc):
    n = _as_int(args[2], loc)
    a = _as_str(args[0], loc)[:n]
    b = _as_str(args[1], loc)[:n]
    return (a > b) - (a < b)


@register("strncasecmp")
def _strncasecmp(interp, args, loc):
    n = _as_int(args[2], loc)
    a = _as_str(args[0], loc)[:n].lower()
    b = _as_str(args[1], loc)[:n].lower()
    return (a > b) - (a < b)


@register("strlen")
def _strlen(interp, args, loc):
    return len(_as_str(args[0], loc, "strlen argument"))


@register("strchr")
def _strchr(interp, args, loc):
    s = _as_str(args[0], loc)
    c = chr(_as_int(args[1], loc) & 0xFF)
    idx = s.find(c)
    return None if idx < 0 else s[idx:]


@register("strstr")
def _strstr(interp, args, loc):
    s = _as_str(args[0], loc)
    sub = _as_str(args[1], loc)
    idx = s.find(sub)
    return None if idx < 0 else s[idx:]


@register("str_token")
def _str_token(interp, args, loc):
    """MiniC tokenizer: i-th whitespace-separated word, or NULL."""
    s = _as_str(args[0], loc)
    i = _as_int(args[1], loc)
    words = s.split()
    if 0 <= i < len(words):
        return words[i]
    return None


@register("str_trim")
def _str_trim(interp, args, loc):
    return _as_str(args[0], loc).strip()


@register("str_substr")
def _str_substr(interp, args, loc):
    s = _as_str(args[0], loc)
    start = _as_int(args[1], loc)
    length = _as_int(args[2], loc)
    if start < 0 or start > len(s):
        raise SegmentationFault("str_substr start out of range", loc)
    return s[start : start + max(0, length)]


@register("str_lower")
def _str_lower(interp, args, loc):
    return _as_str(args[0], loc).lower()


@register("toupper")
def _toupper(interp, args, loc):
    c = _as_int(args[0], loc)
    return ord(chr(c & 0xFF).upper())


@register("tolower")
def _tolower(interp, args, loc):
    c = _as_int(args[0], loc)
    return ord(chr(c & 0xFF).lower())


@register("isdigit")
def _isdigit(interp, args, loc):
    c = _as_int(args[0], loc)
    return 1 if chr(c & 0xFF).isdigit() else 0


# ---------------------------------------------------------------------------
# Conversions (including the deliberately unsafe ones)
# ---------------------------------------------------------------------------

_INT_PREFIX_RE = re.compile(r"\s*([+-]?\d+)")
_FLOAT_PREFIX_RE = re.compile(r"\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)")


@register("atoi")
def _atoi(interp, args, loc):
    """C atoi: leading integer prefix, 0 on garbage, wrap on overflow."""
    s = _as_str(args[0], loc, "atoi argument")
    m = _INT_PREFIX_RE.match(s)
    if not m:
        return 0
    value = int(m.group(1))
    # Overflow is UB; glibc wraps through long, we wrap at 32 bits.
    value &= 0xFFFFFFFF
    if value > INT_MAX:
        value -= 1 << 32
    return value


def _strtol_impl(interp, args, loc, bits):
    s = _as_str(args[0], loc, "strtol argument")
    endp = args[1] if len(args) > 1 else None
    base = _as_int(args[2], loc) if len(args) > 2 else 10

    text = s.lstrip()
    sign = 1
    idx = len(s) - len(text)
    if text[:1] in "+-":
        if text[0] == "-":
            sign = -1
        text = text[1:]
        idx += 1
    if base == 0:
        if text[:2].lower() == "0x":
            base = 16
            text = text[2:]
            idx += 2
        elif text[:1] == "0" and len(text) > 1:
            base = 8
            text = text[1:]
            idx += 1
        else:
            base = 10
    elif base == 16 and text[:2].lower() == "0x":
        text = text[2:]
        idx += 2

    digits = "0123456789abcdefghijklmnopqrstuvwxyz"[:base]
    count = 0
    value = 0
    for ch in text:
        pos = digits.find(ch.lower())
        if pos < 0:
            break
        value = value * base + pos
        count += 1
    idx += count
    value *= sign

    max_v = (1 << (bits - 1)) - 1
    min_v = -(1 << (bits - 1))
    if value > max_v:
        value = max_v
        interp.errno = ERANGE
    elif value < min_v:
        value = min_v
        interp.errno = ERANGE
    if isinstance(endp, Pointer):
        endp.store(interp, s[idx:] if count else s, loc)
    return value


@register("strtol")
def _strtol(interp, args, loc):
    return _strtol_impl(interp, args, loc, 64)


@register("strtoll")
def _strtoll(interp, args, loc):
    return _strtol_impl(interp, args, loc, 64)


@register("sscanf")
def _sscanf(interp, args, loc):
    """Subset sscanf: %d %i %u %s %f; failed targets get poison garbage."""
    s = _as_str(args[0], loc, "sscanf input")
    fmt = _as_str(args[1], loc, "sscanf format")
    targets = list(args[2:])
    convs = re.findall(r"%[l h]*([dius f])".replace(" ", ""), fmt)
    converted = 0
    rest = s
    for i, conv in enumerate(convs):
        if i >= len(targets):
            break
        target = targets[i]
        ok = False
        value = None
        rest = rest.lstrip()
        if conv in "di":
            m = re.match(r"[+-]?\d+", rest)
            if conv == "i":
                mx = re.match(r"[+-]?0[xX][0-9a-fA-F]+|[+-]?\d+", rest)
                m = mx or m
            if m:
                value = int(m.group(0), 0 if conv == "i" else 10)
                rest = rest[m.end() :]
                ok = True
        elif conv == "u":
            m = re.match(r"\d+", rest)
            if m:
                value = int(m.group(0))
                rest = rest[m.end() :]
                ok = True
        elif conv == "f":
            m = _FLOAT_PREFIX_RE.match(rest)
            if m:
                value = float(m.group(1))
                rest = rest[m.end() :]
                ok = True
        elif conv == "s":
            m = re.match(r"\S+", rest)
            if m:
                value = m.group(0)
                rest = rest[m.end() :]
                ok = True
        if not ok:
            # Conversion failure: C leaves the target holding garbage.
            if isinstance(target, Pointer) and conv != "s":
                target.store(interp, GARBAGE_INT, loc)
            break
        if isinstance(target, Pointer):
            target.store(interp, value, loc)
        converted += 1
    return converted


@register("sprintf")
def _sprintf(interp, args, loc):
    """MiniC sprintf returns the formatted string (asprintf-style).

    Still classified unsafe by the knowledge base: the paper's point
    is about using printf-family formatting on untrusted config input.
    """
    fmt = _as_str(args[0], loc, "sprintf format")
    return c_format(fmt, list(args[1:]))


# ---------------------------------------------------------------------------
# stdio / logging
# ---------------------------------------------------------------------------


@register("printf")
def _printf(interp, args, loc):
    fmt = _as_str(args[0], loc, "printf format")
    text = c_format(fmt, list(args[1:]))
    interp.os.log("stdout", text)
    return len(text)


@register("fprintf")
def _fprintf(interp, args, loc):
    stream = args[0]
    fmt = _as_str(args[1], loc, "fprintf format")
    text = c_format(fmt, list(args[2:]))
    _write_stream(interp, stream, text, loc)
    return len(text)


@register("syslog")
def _syslog(interp, args, loc):
    fmt = _as_str(args[1], loc, "syslog format")
    interp.os.log("syslog", c_format(fmt, list(args[2:])))
    return 0


def _write_stream(interp, stream, text, loc):
    if isinstance(stream, FileHandle):
        if stream.fd == 1:
            interp.os.log("stdout", text)
            return
        if stream.fd == 2:
            interp.os.log("stderr", text)
            return
        node = interp.os.lookup(stream.path)
        if node is not None and not node.is_dir:
            interp.os.update_node(node, content=node.content + text)
            return
    interp.os.log("stderr", text)


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

O_WRONLY = 1
O_RDWR = 2
O_CREAT = 64
O_TRUNC = 512


@register("open")
def _open(interp, args, loc):
    path = _as_str(args[0], loc, "open path")
    flags = _as_int(args[1], loc) if len(args) > 1 else 0
    node = interp.os.lookup(path)
    wants_write = bool(flags & (O_WRONLY | O_RDWR))
    if node is None:
        if flags & O_CREAT:
            if not interp.os.parent_exists(path):
                interp.errno = ENOENT
                return -1
            node = interp.os.add_file(path)
        else:
            interp.errno = ENOENT
            return -1
    if node.is_dir and wants_write:
        interp.errno = EISDIR
        return -1
    if wants_write and not node.writable:
        interp.errno = EACCES
        return -1
    if flags & O_TRUNC and not node.is_dir:
        node = interp.os.update_node(node, content="")
    handle = FileHandle(
        fd=interp.next_fd(),
        path=path,
        mode="w" if wants_write else "r",
        is_dir=node.is_dir,
        lines=node.content.splitlines() if not node.is_dir else [],
    )
    interp.fd_table[handle.fd] = handle
    return handle.fd


@register("fopen")
def _fopen(interp, args, loc):
    path = _as_str(args[0], loc, "fopen path")
    mode = _as_str(args[1], loc, "fopen mode")
    node = interp.os.lookup(path)
    writing = "w" in mode or "a" in mode
    if node is None:
        if not writing:
            interp.errno = ENOENT
            return None
        if not interp.os.parent_exists(path):
            interp.errno = ENOENT
            return None
        node = interp.os.add_file(path)
    if node.is_dir and writing:
        interp.errno = EISDIR
        return None
    if writing and not node.writable:
        interp.errno = EACCES
        return None
    if "w" in mode and not node.is_dir:
        node = interp.os.update_node(node, content="")
    handle = FileHandle(
        fd=interp.next_fd(),
        path=path,
        mode=mode,
        is_dir=node.is_dir,
        lines=node.content.splitlines() if not node.is_dir else [],
    )
    interp.fd_table[handle.fd] = handle
    return handle


def _handle_from(interp, value, loc) -> FileHandle | None:
    if isinstance(value, FileHandle):
        return value
    if isinstance(value, int):
        return interp.fd_table.get(value)
    return None


@register("fgets")
def _fgets(interp, args, loc):
    """MiniC line reader: fgets(fp) -> next line without newline, or NULL."""
    handle = _handle_from(interp, args[0], loc)
    if handle is None:
        raise SegmentationFault("fgets on NULL/invalid stream", loc)
    if handle.is_dir or handle.closed:
        interp.errno = EISDIR
        return None
    if handle.read_pos >= len(handle.lines):
        return None
    line = handle.lines[handle.read_pos]
    handle.read_pos += 1
    return line


@register("fwrite_str")
def _fwrite_str(interp, args, loc):
    handle = _handle_from(interp, args[0], loc)
    if handle is None:
        raise SegmentationFault("fwrite_str on NULL/invalid stream", loc)
    text = _as_str(args[1], loc)
    node = interp.os.lookup(handle.path)
    if node is None or node.is_dir or not node.writable:
        return -1
    interp.os.update_node(node, content=node.content + text)
    return len(text)


@register("fclose")
def _fclose(interp, args, loc):
    handle = _handle_from(interp, args[0], loc)
    if handle is None:
        raise SegmentationFault("fclose on NULL stream", loc)
    handle.closed = True
    interp.fd_table.pop(handle.fd, None)
    return 0


@register("access")
def _access(interp, args, loc):
    path = _as_str(args[0], loc, "access path")
    mode = _as_int(args[1], loc) if len(args) > 1 else 0
    node = interp.os.lookup(path)
    if node is None:
        interp.errno = ENOENT
        return -1
    if mode & 2 and not node.writable:
        interp.errno = EACCES
        return -1
    return 0


@register("is_directory")
def _is_directory(interp, args, loc):
    node = interp.os.lookup(_as_str(args[0], loc))
    return 1 if node is not None and node.is_dir else 0


@register("stat_size")
def _stat_size(interp, args, loc):
    node = interp.os.lookup(_as_str(args[0], loc))
    if node is None:
        interp.errno = ENOENT
        return -1
    return len(node.content)


@register("chmod")
def _chmod(interp, args, loc):
    path = _as_str(args[0], loc)
    if not interp.os.exists(path):
        interp.errno = ENOENT
        return -1
    return interp.os.chmod(path, _as_int(args[1], loc))


@register("chown_user")
def _chown_user(interp, args, loc):
    path = _as_str(args[0], loc)
    user = _as_str(args[1], loc)
    return 0 if interp.os.chown(path, user) == 0 else -1


@register("check_read_access")
def _check_read_access(interp, args, loc):
    """0 when `user` may read `path` under the emulated ACL model,
    -1 otherwise (missing path included).  Unlike the mode-flag
    `access` builtin this consults owner + permission bits, so subject
    systems can express per-identity requirements."""
    path = _as_str(args[0], loc, "check_read_access path")
    user = _as_str(args[1], loc, "check_read_access user")
    if not interp.os.exists(path):
        interp.errno = ENOENT
        return -1
    if not interp.os.can_read(path, user):
        interp.errno = EACCES
        return -1
    return 0


@register("check_write_access")
def _check_write_access(interp, args, loc):
    path = _as_str(args[0], loc, "check_write_access path")
    user = _as_str(args[1], loc, "check_write_access user")
    if not interp.os.exists(path):
        interp.errno = ENOENT
        return -1
    if not interp.os.can_write(path, user):
        interp.errno = EACCES
        return -1
    return 0


# ---------------------------------------------------------------------------
# Sockets / network
# ---------------------------------------------------------------------------


@register("socket")
def _socket(interp, args, loc):
    return interp.next_fd()


@register("bind")
def _bind(interp, args, loc):
    port = _as_int(args[1], loc)
    rc = interp.os.try_bind(port)
    if rc < 0:
        interp.errno = -rc
        return -1
    return 0


@register("listen")
def _listen(interp, args, loc):
    return 0


@register("htons")
def _htons(interp, args, loc):
    return _as_int(args[0], loc) & 0xFFFF


@register("inet_addr")
def _inet_addr(interp, args, loc):
    text = _as_str(args[0], loc, "inet_addr argument")
    parts = text.split(".")
    if len(parts) != 4 or not all(p.isdigit() and int(p) <= 255 for p in parts):
        return -1  # INADDR_NONE
    value = 0
    for p in parts:
        value = (value << 8) | int(p)
    return value


@register("gethostbyname")
def _gethostbyname(interp, args, loc):
    return interp.os.resolve_host(_as_str(args[0], loc))


@register("getpwnam")
def _getpwnam(interp, args, loc):
    name = _as_str(args[0], loc, "getpwnam argument")
    return name if name in interp.os.users else None


# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------


@register("time")
def _time(interp, args, loc):
    return int(interp.os.now())


@register("sleep")
def _sleep(interp, args, loc):
    interp.consume_time(_as_int(args[0], loc), loc)
    return 0


@register("usleep")
def _usleep(interp, args, loc):
    interp.consume_time(_as_int(args[0], loc) / 1_000_000.0, loc)
    return 0


@register("sleep_ms")
def _sleep_ms(interp, args, loc):
    interp.consume_time(_as_int(args[0], loc) / 1_000.0, loc)
    return 0


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

# Allocations beyond ~2 GiB emulate OOM (NULL); big-but-plausible
# requests get a sparse arena instead of a materialized list.
_MALLOC_CAP = (1 << 31) - 1
_DENSE_LIMIT = 1 << 16


def _allocate(n: int):
    if n <= 0 or n > _MALLOC_CAP:
        return None
    if n <= _DENSE_LIMIT:
        return ArrayValue(None, [0] * n)
    return SparseArrayValue(None, n)


@register("malloc")
def _malloc(interp, args, loc):
    return _allocate(_as_int(args[0], loc))


@register("memset")
def _memset(interp, args, loc):
    target = args[0]
    if target is None:
        raise SegmentationFault("memset on NULL", loc)
    value = _as_int(args[1], loc)
    n = _as_int(args[2], loc)
    if isinstance(target, SparseArrayValue):
        for i in range(min(n, len(target), 4096)):
            target.cells[i] = value & 0xFF
    elif isinstance(target, ArrayValue):
        if target.shared:
            target.privatize()
        items = target.items
        for i in range(min(n, len(items))):
            items[i] = value & 0xFF
    return target


# ---------------------------------------------------------------------------
# Process control
# ---------------------------------------------------------------------------


@register("exit")
def _exit(interp, args, loc):
    raise ExitProcess(_as_int(args[0], loc) if args else 0)


@register("abort")
def _abort(interp, args, loc):
    raise AbortFault("abort() called", loc)


# ---------------------------------------------------------------------------
# Harness interface (functional test traffic)
# ---------------------------------------------------------------------------


@register("recv_request")
def _recv_request(interp, args, loc):
    return interp.os.next_request()


@register("send_response")
def _send_response(interp, args, loc):
    interp.os.send_response(_as_str(args[0], loc, "send_response argument"))
    return 0
