"""The in-memory trace and its JSONL file format.

A trace is line-delimited JSON, one record per logged token position:

    {"example_id": str, "position": int, "early_topk": [int, ...],
     "final": int, "layer": int?}

In memory it is a ``TraceTable``, one numpy column per field, so that
synthesis, I/O and estimation work on whole columns rather than on one
object per line.  Field types are strict: a bool, float, null or
numeric string where an integer belongs is an error, never coerced.
One function, ``_mistyped``, states these types; the loader runs it
once per line, as it reads that line.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import InitVar, dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .core import DomainError

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
# rows per block when a table is turned back into Python values, which bounds that memory
_ROW_BLOCK = 4096
# an error message echoes at most this many characters of a bad value's repr
_ECHO_CHARS = 40
_ROW_COLUMNS = ("example_code", "position", "topk", "topk_len", "final", "layer", "layer_absent")


class ParseError(DomainError):
    """A trace line could not be parsed or holds a bad value; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def _column(values, name: str) -> np.ndarray:
    """A read-only int64 (bool for ``layer_absent``) column; other element kinds are rejected.

    A read-only array that owns its data, as the loader hands over, is used as it is;
    anything else is copied, so a writable array is never aliased or made read-only.
    """
    dtype, kinds = (bool, "b") if name == "layer_absent" else (np.int64, "iu")
    owned = isinstance(values, np.ndarray) and not values.flags.writeable and values.base is None
    col = values if owned else np.array(values)
    if col.size and col.dtype.kind not in kinds:
        raise DomainError(f"{name} must hold {np.dtype(dtype).name} values, got {col.dtype}")
    if col.size and col.dtype.kind == "u" and int(col.max()) > _INT64_MAX:
        raise DomainError(f"{name} must hold int64 values, got {int(col.max())} (beyond int64)")
    # numpy reads a sequence mixing bools and ints as ints, so a sequence's elements are checked
    if dtype is not bool and not isinstance(values, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.array(values, dtype=object).flat
    ):
        raise DomainError(f"{name} must hold int64 values, got a bool")
    col = col.astype(dtype, copy=False)
    col.setflags(write=False)
    return col


@dataclass(frozen=True, eq=False)
class TraceTable:
    """A trace as columns; row i is one logged token position.

    ``topk[i, :topk_len[i]]`` are row i's ranked early candidates.  The
    length column marks a row's end because no padding value could: any
    int is a valid token id.  Construction trims ``topk`` to the longest
    row and zeroes the padding.  ``layer[i]`` is meaningful only where
    ``layer_absent[i]`` is false.  ``example_ids`` is the string table
    that ``example_code`` indexes.  ``line_nos`` (not stored) gives each
    row's trace line so that a bad value is reported by line.

    Construction validates shapes, positions (>= 1) and candidate
    uniqueness; all columns are read-only.
    """

    example_ids: tuple[str, ...]
    example_code: np.ndarray   # int64 (n,)
    position: np.ndarray       # int64 (n,)
    topk: np.ndarray           # int64 (n, kmax)
    topk_len: np.ndarray       # int64 (n,)
    final: np.ndarray          # int64 (n,)
    layer: np.ndarray          # int64 (n,)
    layer_absent: np.ndarray   # bool (n,)
    line_nos: InitVar[Sequence[int] | None] = None

    def __post_init__(self, line_nos: Sequence[int] | None) -> None:
        ids = tuple(self.example_ids)
        cols = {name: _column(getattr(self, name), name) for name in _ROW_COLUMNS}
        topk, lens, codes = cols["topk"], cols["topk_len"], cols["example_code"]
        n = lens.size
        if (
            any(type(s) is not str for s in ids)
            or topk.ndim != 2
            or any(c.shape[:1] != (n,) or (c.ndim != 1 and c is not topk) for c in cols.values())
            or n and not (0 <= codes.min() and codes.max() < len(ids))
            or n and not (0 <= lens.min() and lens.max() <= topk.shape[1])
        ):
            raise DomainError(
                "trace columns must have one length n, with topk of shape (n, kmax), "
                "topk_len in [0, kmax] and example_code indexing the string table example_ids"
            )

        kmax = int(lens.max(initial=0))
        valid = np.arange(kmax) < lens[:, None]
        topk = np.where(valid, topk[:, :kmax], 0)
        layer = np.where(cols["layer_absent"], 0, cols["layer"])
        topk.setflags(write=False)
        layer.setflags(write=False)
        cols.update(topk=topk, layer=layer, example_ids=ids)
        for name, value in cols.items():
            object.__setattr__(self, name, value)

        bad_position = cols["position"] < 1
        # pad with the largest int64: the first topk_len sorted entries are then the row's ids
        ranked = np.sort(np.where(valid, topk, _INT64_MAX), axis=1)
        duplicate = ((ranked[:, 1:] == ranked[:, :-1]) & valid[:, 1:]).any(axis=1)
        bad = bad_position | duplicate
        if bad.any():
            row = int(bad.argmax())
            reason = (
                f"position must be >= 1, got {int(cols['position'][row])}" if bad_position[row]
                else f"duplicate ids in early_topk: {topk[row, : lens[row]].tolist()}"
            )
            if line_nos is not None:  # the row came from a file: report it by trace line
                raise ParseError(line_nos[row], reason)
            raise DomainError(f"row {row}: {reason}")

    def __len__(self) -> int:
        return len(self.position)

    def _rows(self) -> Iterator[tuple]:
        """Each row's column values as Python scalars, converted a block at a time."""
        for start in range(0, len(self), _ROW_BLOCK):
            block = slice(start, start + _ROW_BLOCK)
            yield from zip(*(getattr(self, name)[block].tolist() for name in _ROW_COLUMNS))

    def _row_ids(self) -> np.ndarray:
        return np.array(self.example_ids, dtype=object)[self.example_code]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceTable):
            return NotImplemented
        if len(self) != len(other):
            return False
        same_ids = (
            self.example_ids == other.example_ids
            and np.array_equal(self.example_code, other.example_code)
        ) or np.array_equal(self._row_ids(), other._row_ids())
        # construction zeroes padding and trims topk to the longest row, so equal rows
        # give equal columns
        return same_ids and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("position", "topk", "topk_len", "final", "layer", "layer_absent")
        )


def _is_int64(value: object) -> bool:
    return type(value) is int and _INT64_MIN <= value <= _INT64_MAX


def _echo(value: object) -> str:
    """``repr(value)`` for an error message, cut to ``_ECHO_CHARS`` characters."""
    text = repr(value)
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."


def _mistyped(obj: dict) -> str | None:
    """Why a line's fields are not of their strict types, or None: the one statement of a
    row's types, run once per loaded line.  A missing field reads as None; ``layer`` may be
    absent, but a present ``"layer": null`` is mistyped.  The reason starts with the field.
    """
    if type(example_id := obj.get("example_id")) is not str:
        return f"example_id must be a string, got {_echo(example_id)}"
    if not _is_int64(position := obj.get("position")):
        return f"position must be an int64 integer, got {_echo(position)}"
    early = obj.get("early_topk")
    if type(early) is not list:
        return f"early_topk must be a list of int64 token ids, got {_echo(early)}"
    if not all(map(_is_int64, early)):
        at = next(i for i, v in enumerate(early) if not _is_int64(v))
        return f"early_topk[{at}] must be an int64 token id, got {_echo(early[at])}"
    if not _is_int64(final := obj.get("final")):
        return f"final must be an int64 integer, got {_echo(final)}"
    if "layer" in obj and not _is_int64(layer := obj["layer"]):
        return f"layer must be an int64 integer or absent, got {_echo(layer)}"
    return None


def _table_from_rows(
    ids: list, positions: list, early: list, finals: list, layers: list, line_nos: list[int]
) -> TraceTable:
    """A table from the loader's per-row values, which ``_mistyped`` has passed."""
    lens = np.fromiter(map(len, early), np.int64, len(early))
    kmax = int(lens.max(initial=0))
    topk = np.zeros((len(early), kmax), np.int64)
    topk[np.arange(kmax) < lens[:, None]] = np.array(list(chain.from_iterable(early)), np.int64)
    index: dict[str, int] = {}
    codes = [index.setdefault(s, len(index)) for s in ids]
    columns = dict(
        example_code=np.array(codes, np.int64),
        position=np.array(positions, np.int64),
        topk=topk,
        topk_len=lens,
        final=np.array(finals, np.int64),
        layer=np.array([0 if v is None else v for v in layers], np.int64),
        layer_absent=np.array([v is None for v in layers], bool),
    )
    # read-only, so that the constructor takes these arrays over instead of copying them
    for col in columns.values():
        col.setflags(write=False)
    return TraceTable(example_ids=tuple(index), line_nos=line_nos, **columns)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def decode_json(text: str) -> object:
    """``text`` decoded by the stdlib with a repeated key rejected: the package's one strict
    JSON decoder, for trace lines and ``--config`` files.  DomainError gives the reason.
    """
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON ({exc.msg})") from None
    except ValueError as exc:  # a repeated key, or an int too long to convert
        raise DomainError(str(exc)) from None
    except RecursionError:
        raise DomainError("invalid JSON (nesting too deep)") from None


# a line of at most this many characters opens at most 256 arrays and objects (each takes
# two), so only a longer line needs its brackets counted
_SHALLOW_LINE = 512


def _fast_decode(line: str, loads) -> dict | None:
    """``loads(line)`` when it provably equals ``decode_json(line)``, else None.

    ``loads`` is orjson's.  Where the stdlib decoder rejects a repeated
    key, keeps an integer beyond 64 bits exact and stops at the recursion
    limit (depth ~1000), orjson keeps the last value, reads the integer as
    a float and reads any depth.  So its parse is kept only when the line
    has no backslash (every ``"`` then delimits a string), its ``"`` count
    leaves room for no string but the keys and ``example_id`` (so no key
    repeats at any depth), the line opens at most 256 arrays and objects,
    and the row passes ``_mistyped``, the loader's one type gate, which
    admits no float and no integer beyond int64.
    """
    try:
        obj = loads(line)
    except json.JSONDecodeError:
        return None
    if (
        type(obj) is dict
        and "\\" not in line
        and line.count('"') == 2 * len(obj) + 2
        and (len(line) <= _SHALLOW_LINE or line.count("[") + line.count("{") <= 256)
        and _mistyped(obj) is None
    ):
        return obj
    return None


def load_traces(source: str | Path | IO[str]) -> TraceTable:
    """Parse a JSONL trace in file order; blank lines are ignored.

    Each field must have its JSON type exactly (``position``, ``final``,
    the ``early_topk`` entries and a present ``layer`` are int64 integers;
    ``example_id`` is a string); anything else raises ParseError naming
    the first bad line, as does a key repeated within a line; unknown keys
    are ignored.  A line that is not UTF-8 raises ParseError too.  Faults
    are reported in file order, the first one only.

    orjson parses each line; the stdlib decoder, the arbiter of every
    result and message, parses a line whose orjson result could differ.
    Either way ``_mistyped`` decides the line's types once, at that line.
    """
    if isinstance(source, (str, Path)):
        # undecodable bytes become lone surrogates, which the loop below reports by line
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:
            return load_traces(fh)
    from orjson import loads  # imported here so that commands reading no trace do not pay

    columns: tuple[list, ...] = ([], [], [], [], [], [])
    ids, positions, early, finals, layers, line_nos = columns
    fault = None
    try:
        for line_no, line in enumerate(source, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeError as exc:
                    # a lone surrogate from a text stream fails the encode, whose start
                    # counts characters; report the byte offset of the bad character
                    byte = exc.start if isinstance(exc, UnicodeDecodeError) else len(
                        line[: exc.start].encode("utf-8", "surrogateescape"))
                    raise ParseError(line_no, f"not valid UTF-8 (utf-8 codec: {exc.reason} "
                                              f"at byte {byte + 1})") from None
            line = line.strip()
            if not line:
                continue
            obj = _fast_decode(line, loads)
            if obj is None:
                try:
                    obj = decode_json(line)
                except DomainError as exc:
                    raise ParseError(line_no, str(exc)) from None
                if type(obj) is not dict:
                    raise ParseError(line_no, "each line must be a JSON object")
                for key in ("example_id", "position", "early_topk", "final"):
                    if key not in obj:
                        raise ParseError(line_no, f"missing field {key!r}")
                if (why := _mistyped(obj)) is not None:
                    raise ParseError(line_no, why)
            ids.append(obj["example_id"])
            positions.append(obj["position"])
            early.append(obj["early_topk"])
            finals.append(obj["final"])
            layers.append(obj.get("layer"))
            line_nos.append(line_no)
    except ParseError as exc:
        fault = exc  # pending: a bad value on an earlier line is reported first
    table = _table_from_rows(*columns)
    if fault is not None:
        raise fault
    return table


def save_traces(table: TraceTable, sink: str | Path | IO[str]) -> None:
    """Write a table as JSONL; load_traces(save_traces(t)) is the identity.

    Each line is byte-identical to ``json.dumps`` of the row's object
    (ASCII escapes included), with ``layer`` omitted when absent.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            save_traces(table, fh)
            return
    quoted = [json.dumps(s) for s in table.example_ids]

    def lines() -> Iterator[str]:
        for code, pos, row, n, fin, lay, absent in table._rows():
            # str() of a list of ints is its JSON text
            head = (f'{{"example_id": {quoted[code]}, "position": {pos}, '
                    f'"early_topk": {row[:n]}, "final": {fin}')
            yield f"{head}}}\n" if absent else f'{head}, "layer": {lay}}}\n'

    sink.writelines(lines())
