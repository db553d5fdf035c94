"""The in-memory trace and its JSONL file format.

A trace is line-delimited JSON, one record per logged token position:

    {"example_id": str, "position": int, "early_topk": [int, ...],
     "final": int, "layer": int?}

In memory it is a ``TraceTable``, one numpy column per field, so that
synthesis, I/O and estimation work on whole columns rather than on one
object per line.  Field types are strict: a bool, float, null or
numeric string where an integer belongs is an error, never coerced.
``_mistyped`` states these types for one row; the loader's fast parse
checks the same types a column at a time over a block of lines, and the
lines of a block it declines go to the stdlib decoder and ``_mistyped``.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import InitVar, dataclass
from itertools import chain, compress, count, islice, repeat
from operator import add, itemgetter
from pathlib import Path
from typing import IO

import numpy as np

from .core import DomainError

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
# rows per block of save_traces: it formats this many rows at a time, which bounds the memory
# their Python values take (256-row blocks made it ~8 % slower)
_ROW_BLOCK = 4096
# lines per block of load_traces: each line keeps two tracked containers, its orjson dict and
# its early_topk list, alive until its block becomes numpy columns, so 256 lines stay below
# CPython's gen-0 threshold of 700 allocations and no collection runs during a load
_LINE_BLOCK = 256
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
                raise ParseError(int(line_nos[row]), reason)
            raise DomainError(f"row {row}: {reason}")

    def __len__(self) -> int:
        return len(self.position)

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
    """Why a line's fields are not of their strict types, or None: the statement of a row's
    types, run on each line that the fast parse declines.  A missing field reads as None;
    ``layer`` may be absent, but a present ``"layer": null`` is mistyped.  The reason starts
    with the field.
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
_REQUIRED = ("example_id", "position", "early_topk", "final")


def _fast_parse(lines: list[str], objs: list) -> tuple | None:
    """The columns (example ids, positions, early_topk lists, their ids flattened, finals,
    and layers with None where absent) of stripped, non-blank lines as orjson read them
    into ``objs`` (all None when it could not), when that provably equals ``decode_json``'s
    reading and every row passes ``_mistyped``; else None.

    Where the stdlib decoder rejects a repeated key, keeps an integer
    beyond 64 bits exact and stops at the recursion limit (depth ~1000),
    orjson keeps the last value, reads the integer as a float and reads
    any depth.  Each string in the lines, a repeated key too, holds two
    ``"`` and one per escaped ``"``, so a string orjson dropped shows as
    a surplus of ``"``.  The count is checked against the keys and ids, or
    else against ``orjson.dumps`` of the reading when the dump holds no
    escaped ``"`` (no ``"`` inside a string).  Each line may open at most 256
    arrays and objects, and each column must hold exactly the types that
    ``_mistyped`` admits: no bool, no float, no integer beyond int64, no
    ``"layer": null``.  orjson rejects a lone surrogate, which a line that
    is not UTF-8 holds once read, so such a line is never kept.
    """
    if {*map(type, objs)} != {dict}:
        return None
    quotes = "".join(lines).count('"')
    if quotes != 2 * sum(map(len, objs)) + 2 * len(objs):  # a string beyond those
        from orjson import dumps  # imported here, as load_traces imports loads

        try:
            dumped = dumps(objs)
        except TypeError:  # nested deeper than orjson writes
            return None
        if dumped.count(b'"') != quotes:
            return None
        # each backslash of the dump starts an escape: with the \\ pairs gone, \" is a quote
        if b'\\"' in dumped and b'\\"' in dumped.replace(b"\\\\", b""):
            return None
    if max(map(len, lines)) > _SHALLOW_LINE and any(
        line.count("[") + line.count("{") > 256 for line in lines if len(line) > _SHALLOW_LINE
    ):
        return None
    try:
        ids, positions, early, finals = (list(map(itemgetter(key), objs)) for key in _REQUIRED)
    except KeyError:
        return None
    layers = list(map(dict.get, objs, repeat("layer")))
    if {*map(type, ids)} != {str} or {*map(type, early)} != {list}:
        return None
    present = layers
    if None in layers:  # absent, or a null that _mistyped rejects
        present = [v for v in layers if v is not None]
        if sum(map(dict.__contains__, objs, repeat("layer"))) != len(present):
            return None
    flat = list(chain.from_iterable(early))
    for col in (positions, finals, flat, present):
        if col and ({*map(type, col)} != {int} or min(col) < _INT64_MIN or max(col) > _INT64_MAX):
            return None
    return ids, positions, early, flat, finals, layers


def _decode_line(raw: str, line_no: int) -> tuple:
    """One line's row (example_id, position, early_topk, final, layer or None) as the stdlib
    decoder reads it, the arbiter of every result and message, with ``_mistyped`` deciding
    its types; a fault raises ParseError.
    """
    if not raw.isascii():
        try:
            raw.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeError as exc:
            # a lone surrogate from a text stream fails the encode, whose start counts
            # characters; report the byte offset of the bad character
            byte = exc.start if isinstance(exc, UnicodeDecodeError) else len(
                raw[: exc.start].encode("utf-8", "surrogateescape"))
            raise ParseError(line_no, f"not valid UTF-8 (utf-8 codec: {exc.reason} "
                                      f"at byte {byte + 1})") from None
    try:
        obj = decode_json(raw.strip())
    except DomainError as exc:
        raise ParseError(line_no, str(exc)) from None
    if type(obj) is not dict:
        raise ParseError(line_no, "each line must be a JSON object")
    for key in _REQUIRED:
        if key not in obj:
            raise ParseError(line_no, f"missing field {key!r}")
    if (why := _mistyped(obj)) is not None:
        raise ParseError(line_no, why)
    return obj["example_id"], obj["position"], obj["early_topk"], obj["final"], obj.get("layer")


def _read_block(raw: list[str], first: int, loads) -> tuple:
    """The ``_fast_parse`` columns and the line numbers of a block of lines numbered from
    ``first``, up to its first fault, and that fault, a ParseError, or None.  Blank lines
    are skipped.

    orjson parses the block once, and the block is kept whole when ``_fast_parse`` proves
    that reading right.  Else each line goes to ``_decode_line`` in turn.
    """
    lines = list(map(str.strip, raw))
    line_nos = np.arange(first, first + len(raw))
    if not all(lines):
        line_nos = line_nos[list(map(bool, lines))]
        raw = list(compress(raw, lines))
        lines = list(filter(None, lines))
    try:
        objs = list(map(loads, lines))
    except json.JSONDecodeError:  # a line orjson cannot read: the fast parse keeps no line
        objs = [None] * len(lines)
    columns = _fast_parse(lines, objs)
    if columns is not None:
        return columns, line_nos, None
    del objs  # with orjson's dicts and lists alive too, the rows would pass gen-0's threshold
    rows, fault = [], None
    for line, line_no in zip(raw, line_nos.tolist()):
        try:
            rows.append(_decode_line(line, line_no))
        except ParseError as exc:
            fault = exc
            break
    ids, positions, early, finals, layers = zip(*rows) if rows else [()] * 5
    columns = ids, positions, early, list(chain.from_iterable(early)), finals, layers
    return columns, line_nos[: len(rows)], fault


def _arrays(columns: tuple, line_nos, index: dict[str, int]) -> tuple[np.ndarray, ...]:
    """One block's ``_fast_parse`` columns as int64 arrays (bool for layer_absent);
    ``index`` codes the example ids and grows by the block's new ones."""
    ids, positions, early, flat, finals, layers = columns
    for s in dict.fromkeys(ids):
        index.setdefault(s, len(index))
    absent = np.zeros(len(layers), bool)
    if None in layers:
        absent[:] = [v is None for v in layers]
        layers = [0 if v is None else v for v in layers]
    return (
        np.array(list(map(index.__getitem__, ids)), np.int64),
        np.array(positions, np.int64),
        np.fromiter(map(len, early), np.int64, len(early)),
        np.array(flat, np.int64),
        np.array(finals, np.int64),
        np.array(layers, np.int64),
        absent,
        np.asarray(line_nos, np.int64),
    )


def _table(blocks: list[tuple[np.ndarray, ...]], index: dict[str, int]) -> TraceTable:
    """A table from the loader's blocks of ``_arrays``."""
    code, position, lens, flat, final, layer, absent, line_nos = map(np.concatenate, zip(*blocks))
    kmax = int(lens.max(initial=0))
    topk = np.zeros((len(lens), kmax), np.int64)
    topk[np.arange(kmax) < lens[:, None]] = flat
    columns = dict(example_code=code, position=position, topk=topk, topk_len=lens,
                   final=final, layer=layer, layer_absent=absent)
    # read-only, so that the constructor takes these arrays over instead of copying them
    for col in columns.values():
        col.setflags(write=False)
    return TraceTable(example_ids=tuple(index), line_nos=line_nos, **columns)


def load_traces(source: str | Path | IO[str]) -> TraceTable:
    """Parse a JSONL trace in file order; blank lines are ignored.

    Each field must have its JSON type exactly (``position``, ``final``,
    the ``early_topk`` entries and a present ``layer`` are int64 integers;
    ``example_id`` is a string); anything else raises ParseError naming
    the first bad line, as does a key repeated within a line; unknown keys
    are ignored.  A line that is not UTF-8 raises ParseError too.  Faults
    are reported in file order, the first one only.

    Lines are read ``_LINE_BLOCK`` (256) at a time.  orjson parses a
    block, which is kept whole when ``_fast_parse`` proves that reading
    equal to the stdlib decoder's; else each of its lines goes to the
    stdlib decoder and ``_mistyped``.  Each block becomes numpy columns
    before the next, so its dicts and lists die before they add up to a
    garbage collection.
    """
    if isinstance(source, (str, Path)):
        # undecodable bytes become lone surrogates, which _decode_line reports by line
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:
            return load_traces(fh)
    from orjson import loads  # imported here so that commands reading no trace do not pay

    index: dict[str, int] = {}
    blocks = [_arrays([()] * 6, [], index)]  # empty, so that a file of no rows has columns
    source = iter(source)
    fault = None
    for first in count(1, _LINE_BLOCK):
        raw = list(islice(source, _LINE_BLOCK))
        if not raw:
            break
        columns, line_nos, fault = _read_block(raw, first, loads)
        blocks.append(_arrays(columns, line_nos, index))
        if fault is not None:
            break  # the table is built first: a bad value on an earlier line is reported first
    table = _table(blocks, index)
    if fault is not None:
        raise fault
    return table


def save_traces(table: TraceTable, sink: str | Path | IO[str]) -> None:
    """Write a table as JSONL; load_traces(save_traces(t)) is the identity.

    Each line is byte-identical to ``json.dumps`` of the row's object
    (ASCII escapes included), with ``layer`` omitted when absent.  Each
    block of ``_ROW_BLOCK`` rows is one ``%`` format: a row's template is
    its example id's head and the template of its shape, (topk length,
    layer absent), and the block's kept int64 cells fill the ``%d`` slots
    in row order.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            save_traces(table, fh)
            return
    # %d of an int is its JSON text; the quoted id is JSON text, with % doubled for the format
    heads = ['{"example_id": ' + json.dumps(s).replace("%", "%%")
             + ', "position": %d, "early_topk": [' for s in table.example_ids]
    shape = 2 * table.topk_len + table.layer_absent
    tails = {
        key: ", ".join(["%d"] * (key // 2))
        + ('], "final": %d}\n' if key % 2 else '], "final": %d, "layer": %d}\n')
        for key in np.flatnonzero(np.bincount(shape)).tolist()  # np.unique imports numpy.ma
    }
    kmax = table.topk.shape[1]
    for start in range(0, len(table), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        cells = np.column_stack(
            (table.position[rows], table.topk[rows], table.final[rows], table.layer[rows]))
        kept = np.ones(cells.shape, bool)
        kept[:, 1 : kmax + 1] = np.arange(kmax) < table.topk_len[rows, None]
        kept[:, -1] = ~table.layer_absent[rows]
        template = "".join(map(add, map(heads.__getitem__, table.example_code[rows].tolist()),
                               map(tails.__getitem__, shape[rows].tolist())))
        sink.write(template % tuple(cells[kept].tolist()))
