"""The one door between ``repro`` and the file system.

Every file the program reads or writes goes through this module, so
what an artifact is on disk (UTF-8; one canonical JSON document, or
JSONL with one object per line) and how a bad one fails are each decided
once: missing, a directory, unreadable, not UTF-8, not JSON, not an
object, wrong schema, a field absent or mistyped — all are a
:class:`~repro.errors.ConfigError` naming the path or the field, which
the CLI maps to exit 2. ``tests/test_artifact.py`` holds the rule.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.errors import ConfigError


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of ``path``; ``what`` names the file in errors."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as error:    # a directory, unreadable, ...
        raise ConfigError(
            f"cannot read {what} {path}: {error.strerror}") from error
    except UnicodeDecodeError as error:
        raise ConfigError(f"{what} {path} is not UTF-8 text: "
                          f"{error.reason} at byte {error.start}") from error


def parse_json(text: str, what: str) -> dict:
    """``text`` as one JSON object."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigError(f"{what} is not valid JSON: {error}") from error
    return require(value, what)


def read_json(path: str | Path, what: str) -> dict:
    """``path`` as one JSON object."""
    return parse_json(read_text(path, what), f"{what} {path}")


def read_jsonl(path: str | Path, what: str) -> Iterator[tuple[str, dict]]:
    """``(where, object)`` per non-blank line; ``where`` is
    ``"<what> <path>:<line>"``, ready to hand to :func:`require`."""
    lines = read_text(path, what).splitlines()
    for number, line in enumerate(lines, start=1):
        if line.strip():
            where = f"{what} {path}:{number}"
            yield where, parse_json(line, where)


def read_records(path: str | Path, what: str, schema: str,
                 kind: str) -> tuple[dict, list[dict]]:
    """A headed JSONL artifact as ``(header, records of kind)``; lines
    of other kinds (spans and events mixed into one file) are skipped."""
    header, records = None, []
    for where, record in read_jsonl(path, what):
        if record.get("kind") == "header":
            header = require(record, where, schema=schema)
        elif record.get("kind") == kind:
            records.append(record)
    if header is None:
        raise ConfigError(f"{what} {path} has no {schema} header")
    return header, records


def _is(value: object, kinds: tuple) -> bool:
    if isinstance(value, bool):     # never a number
        return bool in kinds
    return isinstance(value, kinds) or (
        float in kinds and isinstance(value, int))


def require(value: object, what: str,
            fields: Mapping[str, type | tuple] | None = None,
            schema: str | None = None,
            optional: Mapping[str, type | tuple] | None = None) -> dict:
    """``value`` if it is an object with this ``schema`` tag, every key
    of ``fields`` and the stated types; :class:`ConfigError` otherwise.

    A type is a class or a tuple of them; ``float`` accepts an ``int``
    and a ``bool`` is never a number. ``optional`` keys may be absent.
    """
    if not isinstance(value, dict):
        raise ConfigError(
            f"{what} is not a JSON object (got {type(value).__name__})")
    if schema is not None and value.get("schema") != schema:
        raise ConfigError(f"unsupported {what} schema: "
                          f"{value.get('schema')!r} (expected {schema!r})")
    for name in fields or ():
        if name not in value:
            raise ConfigError(f"{what} missing {name!r}")
    for name, kind in {**(fields or {}), **(optional or {})}.items():
        kinds = kind if isinstance(kind, tuple) else (kind,)
        if name in value and not _is(value[name], kinds):
            raise ConfigError(
                f"{what}: {name!r} must be "
                f"{' or '.join(k.__name__ for k in kinds)}, "
                f"got {value[name]!r}")
    return value


def dumps(document: object) -> str:
    """The canonical JSON text of a document: a pure function of it."""
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False)


def write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` as UTF-8, byte for byte, creating parents."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as error:
        raise ConfigError(f"cannot write {path}: {error.strerror}") from error
    return path


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> Path:
    """Write one sorted-key JSON object per line."""
    return write_text(path, "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in records))
