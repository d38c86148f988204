"""Abstract representation (AR) of configuration files.

"We use the configuration file parser in ConfErr to parse a template
configuration file into an abstract representation (AR), and transform
the modified AR with errors injected to a usable configuration file
for testing." (§3.1)

Two dialects cover the evaluated systems: ``key = value`` (MySQL,
PostgreSQL, VSFTP style) and ``Directive value`` (Apache, Squid,
OpenLDAP, Storage-A style).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ConfigEntry:
    name: str
    value: str
    lineno: int = 0
    comment: str = ""


class ConfigDialect:
    """Parsing/serialization rules for one config file format."""

    comment_chars = ("#",)

    def parse_line(self, line: str) -> tuple[str, str] | None:
        raise NotImplementedError

    def render(self, entry: ConfigEntry) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class KeyValueDialect(ConfigDialect):
    """``name = value`` (separator configurable)."""

    separator: str = "="

    def parse_line(self, line: str) -> tuple[str, str] | None:
        if self.separator not in line:
            return None
        name, _, value = line.partition(self.separator)
        return name.strip(), value.strip()

    def render(self, entry: ConfigEntry) -> str:
        return f"{entry.name}{self.separator}{entry.value}"


@dataclass(frozen=True)
class DirectiveDialect(ConfigDialect):
    """``Directive value...`` - first token is the name."""

    def parse_line(self, line: str) -> tuple[str, str] | None:
        parts = line.split(None, 1)
        if not parts:
            return None
        name = parts[0]
        value = parts[1].strip() if len(parts) > 1 else ""
        return name, value

    def render(self, entry: ConfigEntry) -> str:
        return f"{entry.name} {entry.value}" if entry.value else entry.name


@dataclass
class ConfigAR:
    """Ordered, mutable model of one configuration file."""

    dialect: ConfigDialect
    entries: list[ConfigEntry] = field(default_factory=list)
    raw_lines: list[tuple[int, str]] = field(default_factory=list)  # comments

    @classmethod
    def parse(cls, text: str, dialect: ConfigDialect) -> "ConfigAR":
        ar = cls(dialect=dialect)
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith(dialect.comment_chars):
                ar.raw_lines.append((lineno, raw))
                continue
            parsed = dialect.parse_line(line)
            if parsed is None:
                ar.raw_lines.append((lineno, raw))
                continue
            name, value = parsed
            ar.entries.append(ConfigEntry(name, value, lineno))
        return ar

    def clone(self) -> "ConfigAR":
        return ConfigAR(
            dialect=self.dialect,
            entries=[
                ConfigEntry(e.name, e.value, e.lineno, e.comment)
                for e in self.entries
            ],
            raw_lines=list(self.raw_lines),
        )

    def get(self, name: str) -> str | None:
        for entry in self.entries:
            if entry.name == name:
                return entry.value
        return None

    def set(self, name: str, value: str) -> None:
        """Replace the entry in place, or append a new one."""
        for entry in self.entries:
            if entry.name == name:
                entry.value = value
                return
        lineno = (self.entries[-1].lineno + 1) if self.entries else 1
        self.entries.append(ConfigEntry(name, value, lineno))

    def line_of(self, name: str) -> int | None:
        for entry in self.entries:
            if entry.name == name:
                return entry.lineno
        return None

    def serialize(self) -> str:
        """Render back to config-file text (comments preserved in
        their original relative order before entries added later)."""
        numbered: list[tuple[int, str]] = list(self.raw_lines)
        for entry in self.entries:
            numbered.append((entry.lineno, self.dialect.render(entry)))
        numbered.sort(key=lambda pair: pair[0])
        return "\n".join(text for _, text in numbered) + "\n"
