"""Columnar campaign store: one append-only segment file per store.

This module implements the content-keyed store contract of
:class:`~repro.harness.sweep.ResultStore` (``get``/``put``/
``put_many``/``merge_from``/``prune``/``manifest``) as a single
append-only **segment file**:

- ``store.seg`` starts with the 8-byte file magic ``REPSEG03`` and is
  otherwise a sequence of self-describing **frames** (``BLK2``).  Each
  frame holds a batch of records split into three *independently*
  compressed sections — **meta** (key refs, per-block string table,
  column directory, frame-carried manifest entries, section CRCs),
  **body** (JSON remainders + scalar + dictionary-string columns) and
  **array** (the time-series columns).  A cold open/``manifest()``
  decompresses metas only; a ``get`` decodes meta+body; the array
  section is decoded lazily, only for records that actually carry
  arrays.  Repeated strings (figure labels, lb policy / workload
  names, ``sim``/``key``/``origin``) are **dictionary-encoded**
  against a per-block sorted string table and stored once.  Every
  split is lossless: a decoded payload is canonically identical
  (``json.dumps(..., sort_keys=True)``) to what was stored.
- Reads go through an **mmap view** of the segment (remapped when the
  file grows or is replaced), falling back to buffered preads on
  platforms without :mod:`mmap` or under ``REPRO_STORE_MMAP=0``.
- The **key index** is in-memory only, rebuilt by scanning the frame
  headers/metas on open; a torn final frame (crash mid-append) is
  detected by CRC/length and dropped, and the next append truncates
  the torn tail first, so the file self-heals without a repair tool.
  A segment written by an older format (any other ``REPSEG`` magic)
  is refused the same way — it serves no keys, ``verify`` names its
  format, and the next append replaces it; delete such a directory.
- **Manifest entries ride the frames.**  Each record carries its index
  entry (label, seed, sim, origin, timestamp) inside the frame meta,
  so a put is *one* append — no per-put read-merge-write of
  ``manifest.json``.  ``manifest.json`` still exists for browsing, but
  as a *derived* artifact: it is materialized by
  :meth:`~repro.harness.sweep.ResultStore.repair_manifest` (campaign
  runs call it on finish), by ``compact`` and by ``prune``, and
  :meth:`ColumnarStore.manifest` always prefers the frame-carried
  entries.

Invariants:

- **Equal key ⟺ identical payload.**  Appends never need to compare
  contents; ``merge_from`` skips present keys and folds everything new
  in as appended frames — shard merging is an append, not N file
  copies.  Duplicate records (e.g. a ``--fresh`` re-run) are legal;
  the index resolves to the newest, and :meth:`ColumnarStore.compact`
  drops the shadowed ones.
- **manifest.json keeps one layout** — key -> {label, seed, schema,
  sim, written_at[, origin, wall_s, bytes]} — so shard origins, trend
  tooling and store browsing read it without opening the segment.

Concurrency: writes are appended under a process-local lock with
``O_APPEND``, so the campaign runner's figure threads share one store
safely.  Across *processes* an advisory ``flock`` serializes whole
appends (``REPRO_STORE_LOCK=0`` or a platform without :mod:`fcntl`
falls back to lockless appends, which converge through content keys
but may leave shadowed duplicates — run ``repro store compact``
afterwards).

``repro store compact | inspect | verify`` exposes the maintenance
surface; :func:`open_store` is the one way callers open a store.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import os
import struct
import threading
import time
import zlib

try:  # stdlib everywhere we run, but degrade to zlib-only if absent
    import lzma
except ImportError:  # pragma: no cover - platform without _lzma
    lzma = None  # type: ignore[assignment]
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

try:  # advisory append locking — POSIX only, gated (see _flock)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

try:  # zero-copy segment reads — gated (see _segment_view)
    import mmap
except ImportError:  # pragma: no cover - no-mmap platform
    mmap = None

from .sweep import SCHEMA_VERSION, ResultStore, simulator_version

#: set to ``0``/``off`` to force buffered reads instead of mmap
MMAP_ENV = "REPRO_STORE_MMAP"

#: set to ``0``/``off`` to skip the advisory inter-process append lock
LOCK_ENV = "REPRO_STORE_LOCK"

#: 8-byte file magic; the trailing digits are the segment format
FILE_MAGIC_V3 = b"REPSEG03"

#: per-frame magic
BLOCK_MAGIC_V3 = b"BLK2"

#: v3 frame header: magic, record count, meta length, meta CRC-32,
#: body length, array length (section CRCs and raw sizes ride the meta)
_FRAME3 = struct.Struct("<4sIIIII")

#: records per block when compaction rewrites the file
COMPACT_BLOCK_RECORDS = 512

#: decoded blocks kept resident per store instance (LRU): the key
#: index stays complete in memory, payloads re-load from disk on miss
BLOCK_CACHE_BLOCKS = 32

# scalar column tags (one byte per record)
_T_MISSING, _T_NULL, _T_INT, _T_FLOAT = 0, 1, 2, 3

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _scalar_tag(value) -> Optional[int]:
    """The column tag for a scalar, or ``None`` for "keep as JSON".

    Bools are ints in Python but not in the column format; non-finite
    floats stay JSON (``json.dumps`` spells them ``Infinity``/``NaN``);
    and ints outside 64 bits cannot be packed.
    """
    if value is None:
        return _T_NULL
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return _T_INT if _I64_MIN <= value <= _I64_MAX else None
    if isinstance(value, float):
        return _T_FLOAT if math.isfinite(value) else None
    return None


def _json_copy(obj):
    """Deep copy for JSON-typed trees — hot-path cheap (the generic
    ``copy.deepcopy`` machinery costs ~5x more per cached read)."""
    if isinstance(obj, dict):
        return {k: _json_copy(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_copy(v) for v in obj]
    return obj


def _is_numeric_array(value) -> bool:
    """True for a non-empty list of packable ints/floats."""
    if not isinstance(value, list) or not value:
        return False
    for v in value:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return False
        if isinstance(v, int) and not _I64_MIN <= v <= _I64_MAX:
            return False
        if isinstance(v, float) and not math.isfinite(v):
            return False
    return True


# ----------------------------------------------------------------------
# v3 frames: dictionary-encoded strings, separately compressed sections
# ----------------------------------------------------------------------
# Sentinels for the string-table substitution inside JSON trees.  A
# string present in the block's table is replaced by the two-element
# list ``["\x00r", index]``; a *real* list whose first element is one
# of the sentinel strings is wrapped as ``["\x00e", ...]`` so the
# substitution stays lossless on adversarial payloads.
_REF = "\x00r"
_ESC = "\x00e"


def _dict_pack(obj, index: Dict[str, int]):
    if isinstance(obj, str):
        ref = index.get(obj)
        return obj if ref is None else [_REF, ref]
    if isinstance(obj, list):
        packed = [_dict_pack(v, index) for v in obj]
        if obj and isinstance(obj[0], str) and obj[0] in (_REF, _ESC):
            return [_ESC] + packed
        return packed
    if isinstance(obj, dict):
        return {k: _dict_pack(v, index) for k, v in obj.items()}
    return obj


def _dict_unpack(obj, table: List[str]):
    if isinstance(obj, list):
        if obj and obj[0] == _REF:
            return table[obj[1]]
        if obj and obj[0] == _ESC:
            return [_dict_unpack(v, table) for v in obj[1:]]
        return [_dict_unpack(v, table) for v in obj]
    if isinstance(obj, dict):
        return {k: _dict_unpack(v, table) for k, v in obj.items()}
    return obj


def _count_strings(obj, counts: Dict[str, int]) -> None:
    """Count every string *value* in a JSON tree (keys stay literal)."""
    if isinstance(obj, str):
        counts[obj] = counts.get(obj, 0) + 1
    elif isinstance(obj, list):
        for v in obj:
            _count_strings(v, counts)
    elif isinstance(obj, dict):
        for v in obj.values():
            _count_strings(v, counts)


def _col_order(col: Tuple[str, Optional[str]]):
    # ``None`` names (top-level payload fields) sort before nested ones
    return (col[0], col[1] is not None, col[1] or "")


def _col_key(sect: str, name: Optional[str], kind: str) -> str:
    return (sect if name is None else f"{sect}.{name}") + f"|{kind}"


def _set_field(payload: dict, sect: str, name: Optional[str],
               value) -> None:
    if name is None:
        payload[sect] = value
    else:
        payload[sect][name] = value


def _compress_v3(raw: bytes) -> bytes:
    """The smaller of zlib-9 and LZMA for one v3 section.

    The streams self-describe: ``zlib.compress`` output always leads
    with ``0x78`` (deflate, 32K window) and ``FORMAT_ALONE`` LZMA with
    its ``0x5d`` properties byte, so the reader dispatches on the
    first byte.  LZMA's large dictionary wins on the structured
    sections (string tables, manifest entries, varint columns); zlib
    keeps the mostly-incompressible array noise cheap to round-trip.
    """
    z = zlib.compress(raw, 9)
    if lzma is None:
        return z
    x = lzma.compress(raw, format=lzma.FORMAT_ALONE, preset=6)
    return x if len(x) < len(z) else z


def _decompress_v3(buf: bytes) -> bytes:
    if buf[:1] == b"\x5d":
        if lzma is None:  # pragma: no cover - see _compress_v3
            raise ValueError("LZMA-compressed section but no lzma module")
        return lzma.decompress(buf, format=lzma.FORMAT_ALONE)
    return zlib.decompress(buf)


# v3 scalar-column tag: a float stored exactly as a scaled decimal
# integer (scale byte + zigzag varint) — the common rounded-metric
# case packs in 2-5 bytes instead of an incompressible 8-byte double
_T_FSCALED = 4

#: largest decimal scale tried for exact float-as-scaled-int packing
_MAX_FSCALE = 6


def _uvarint(out: bytearray, v: int) -> None:
    """LEB128 append (unsigned)."""
    while v >= 0x80:
        out.append((v & 0x7F) | 0x80)
        v >>= 7
    out.append(v)


def _read_uvarint(buf, off: int) -> Tuple[int, int]:
    v = shift = 0
    while True:
        b = buf[off]
        off += 1
        v |= (b & 0x7F) << shift
        if not b & 0x80:
            return v, off
        shift += 7


def _zigzag(v: int) -> int:
    return (v << 1) if v >= 0 else ((-v << 1) - 1)


def _unzigzag(z: int) -> int:
    return (z >> 1) if not z & 1 else -((z + 1) >> 1)


def _float_scale(value: float) -> Optional[Tuple[int, int]]:
    """``(scale, scaled_int)`` when ``scaled_int / 10**scale`` round-
    trips to ``value`` exactly; ``None`` for full-precision floats.

    ``-0.0`` is excluded: it compares equal to the decoded ``0.0`` but
    serializes differently, and canonical-JSON byte-identity is the
    round-trip contract.
    """
    if value == 0.0 and math.copysign(1.0, value) < 0.0:
        return None
    for k in range(_MAX_FSCALE + 1):
        m = 10 ** k
        try:
            r = round(value * m)
        except (OverflowError, ValueError):  # pragma: no cover
            return None
        if r / m == value:
            return k, r
    return None


def _scale_floats(elems: Sequence[float]
                  ) -> Optional[Tuple[int, List[int]]]:
    """One common decimal scale for a whole float array, or ``None``."""
    if any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in elems):
        return None
    for k in range(_MAX_FSCALE + 1):
        m = 10 ** k
        scaled: List[int] = []
        for v in elems:
            try:
                r = round(v * m)
            except (OverflowError, ValueError):  # pragma: no cover
                return None
            if r / m != v:
                break
            scaled.append(r)
        else:
            return k, scaled
    return None


def _hex_key_blob(keys: Sequence[str]) -> Optional[Tuple[int, bytes]]:
    """``(hex_len, packed_bytes)`` when every key is the same-length
    lowercase-hex string (sha256 content keys), else ``None``.

    Hex keys are pure entropy — zlib cannot shrink them — so packing
    them binary halves their cost; the hexlify round-trip check makes
    the transform lossless (uppercase or odd-length keys fall back).
    """
    if not keys:
        return None
    klen = len(keys[0])
    if klen == 0 or klen % 2:
        return None
    parts = []
    for k in keys:
        if len(k) != klen:
            return None
        try:
            raw = binascii.unhexlify(k)
        except (binascii.Error, ValueError):
            return None
        if binascii.hexlify(raw).decode() != k:
            return None
        parts.append(raw)
    return klen, b"".join(parts)


def _meta_keys(n: int, meta: dict) -> List[str]:
    """The record keys of a v3 frame, from either key encoding."""
    if "kx" in meta:
        klen, blob64 = meta["kx"]
        raw = base64.b64decode(blob64.encode())
        half = klen // 2
        if half <= 0 or len(raw) != n * half:
            raise ValueError("key blob length disagrees with meta")
        return [binascii.hexlify(raw[i * half:(i + 1) * half]).decode()
                for i in range(n)]
    table = meta["t"]
    keys = [table[i] for i in meta["k"]]
    if len(keys) != n:
        raise ValueError("record count disagrees with meta")
    return keys


# per-value array encodings inside a v3 array column
_ARR_INT = 0      # delta + zigzag varints
_ARR_SCALED = 1   # scale byte, then delta + zigzag varints of scaled
_ARR_RAW = 2      # int/float bitmap + raw 8-byte values
_ARR_SPLIT = 3    # full-precision floats, byte-stream-split planes


def _pack_array_v3(buf: bytearray, elems: list) -> None:
    """Append one array value: deltas of ints (monotonic timestamps,
    correlated queue depths) and of exactly-scaled decimal floats
    (rounded metric series) varint-pack to a byte or two per element;
    anything else falls back to a raw int/float-bitmap layout."""
    if all(isinstance(e, int) for e in elems):
        buf.append(_ARR_INT)
        _uvarint(buf, len(elems))
        prev = 0
        for e in elems:
            _uvarint(buf, _zigzag(e - prev))
            prev = e
        return
    if all(isinstance(e, float) for e in elems):
        scaled = _scale_floats(elems)
        if scaled is not None:
            k, ints = scaled
            buf.append(_ARR_SCALED)
            buf.append(k)
            _uvarint(buf, len(ints))
            prev = 0
            for e in ints:
                _uvarint(buf, _zigzag(e - prev))
                prev = e
            return
        # full-precision floats: split the packed doubles into byte
        # planes (all sign/exponent bytes together, then each
        # mantissa byte position) — correlated values share their
        # high bytes, turning them into zlib-friendly runs while the
        # noise bytes stay put (Parquet's BYTE_STREAM_SPLIT)
        buf.append(_ARR_SPLIT)
        _uvarint(buf, len(elems))
        packed = struct.pack(f"<{len(elems)}d", *elems)
        for plane in range(7, -1, -1):
            buf += packed[plane::8]
        return
    buf.append(_ARR_RAW)
    _uvarint(buf, len(elems))
    bitmap = bytearray((len(elems) + 7) // 8)
    for j, e in enumerate(elems):
        if isinstance(e, int):
            bitmap[j // 8] |= 1 << (j % 8)
    buf += bitmap
    for e in elems:
        buf += struct.pack("<q" if isinstance(e, int) else "<d", e)


def _unpack_array_v3(buf, off: int) -> Tuple[list, int]:
    """Inverse of :func:`_pack_array_v3`; returns ``(elems, offset)``."""
    kind = buf[off]
    off += 1
    if kind == _ARR_INT or kind == _ARR_SCALED:
        m = 1
        if kind == _ARR_SCALED:
            m = 10 ** buf[off]
            off += 1
        count, off = _read_uvarint(buf, off)
        elems: list = []
        prev = 0
        for _ in range(count):
            z, off = _read_uvarint(buf, off)
            prev += _unzigzag(z)
            elems.append(prev if kind == _ARR_INT else prev / m)
        return elems, off
    if kind == _ARR_SPLIT:
        count, off = _read_uvarint(buf, off)
        planes = bytes(buf[off:off + 8 * count])
        if len(planes) != 8 * count:
            raise ValueError("truncated byte-split float array")
        off += 8 * count
        raw = bytearray(8 * count)
        for j, plane in enumerate(range(7, -1, -1)):
            raw[plane::8] = planes[j * count:(j + 1) * count]
        return list(struct.unpack(f"<{count}d", bytes(raw))), off
    if kind != _ARR_RAW:
        raise ValueError(f"bad array encoding tag {kind}")
    count, off = _read_uvarint(buf, off)
    bitmap = buf[off:off + (count + 7) // 8]
    off += len(bitmap)
    elems = []
    for j in range(count):
        is_int = bitmap[j // 8] >> (j % 8) & 1
        (e,) = struct.unpack_from("<q" if is_int else "<d", buf, off)
        off += 8
        elems.append(e)
    return elems, off


def encode_frame_v3(records: Sequence[Tuple[str, dict]],
                    entries: Optional[Sequence[Optional[dict]]] = None
                    ) -> Tuple[bytes, Dict[str, object]]:
    """One complete v3 frame for ``records``; returns ``(frame, info)``.

    Layout: ``_FRAME3`` header + three independently zlib-compressed
    sections —

    - **meta**: the key refs, the per-block string table, the column
      directory, the frame-carried manifest entries, the array-bearing
      slot list and the body/array section CRCs.  Everything the index
      rebuild and ``manifest()`` need, and nothing else: a cold open
      decompresses *only* this section.
    - **body**: the packed JSON remainders plus the scalar (``s``) and
      dictionary-string (``d``) columns — what a ``get`` of a scalar
      payload decodes.
    - **array**: the numeric array columns (``a``, time-series
      probes), decoded lazily only when a requested record carries
      arrays.

    Strings are dictionary-encoded against a per-block sorted table:
    content keys, every ``d``-column value (figure labels, lb policy /
    workload strings, ``sim``/``key``/``origin`` fields) and any
    string repeated in the remainders or entries is stored once and
    referenced by integer.  ``info`` is the compression breakdown that
    feeds :meth:`ColumnarStore.stats`.
    """
    n = len(records)
    keys: List[str] = []
    rests: List[dict] = []
    scalars: Dict[Tuple[str, Optional[str]], Dict[int, object]] = {}
    strs: Dict[Tuple[str, Optional[str]], Dict[int, str]] = {}
    arrays: Dict[Tuple[str, Optional[str]], Dict[int, list]] = {}
    for idx, (key, payload) in enumerate(records):
        keys.append(key)
        rest: dict = {}
        for sect, val in payload.items():
            if isinstance(val, dict):
                rsect = {}
                for name, v in val.items():
                    if _scalar_tag(v) is not None:
                        scalars.setdefault((sect, name), {})[idx] = v
                    elif isinstance(v, str):
                        strs.setdefault((sect, name), {})[idx] = v
                    elif _is_numeric_array(v):
                        arrays.setdefault((sect, name), {})[idx] = v
                    else:
                        rsect[name] = v
                rest[sect] = rsect
            elif isinstance(val, str):
                strs.setdefault((sect, None), {})[idx] = val
            elif _scalar_tag(val) is not None:
                scalars.setdefault((sect, None), {})[idx] = val
            else:
                rest[sect] = val
        rests.append(rest)

    entry_list = list(entries) if entries is not None else [None] * n
    counts: Dict[str, int] = {}
    _count_strings(rests, counts)
    _count_strings([e for e in entry_list if e is not None], counts)
    # content keys are sha256 hex in practice — half-size as a packed
    # binary blob ("kx"), and kept out of the string table entirely;
    # arbitrary key strings fall back to table refs ("k")
    key_blob = _hex_key_blob(keys)
    table_set = set() if key_blob is not None else set(keys)
    for col in strs.values():
        table_set.update(col.values())
    table_set.update(s for s, c in counts.items() if c >= 2)
    table = sorted(table_set)
    index = {s: i for i, s in enumerate(table)}

    cols: List[List[object]] = []
    col_bytes: List[int] = []
    body = bytearray()
    rest_json = json.dumps(_dict_pack(rests, index),
                           separators=(",", ":")).encode()
    body += struct.pack("<I", len(rest_json)) + rest_json
    for sect, name in sorted(scalars, key=_col_order):
        cols.append([sect, name, "s"])
        values = scalars[(sect, name)]
        tags = bytearray(n)
        buf = bytearray()
        for i in range(n):
            if i not in values:
                continue
            v = values[i]
            tags[i] = _scalar_tag(v)
            if tags[i] == _T_INT:
                _uvarint(buf, _zigzag(v))
            elif tags[i] == _T_FLOAT:
                scaled = _float_scale(v)
                if scaled is not None:
                    tags[i] = _T_FSCALED
                    buf.append(scaled[0])
                    _uvarint(buf, _zigzag(scaled[1]))
                else:
                    buf += struct.pack("<d", v)
        col_bytes.append(n + len(buf))
        body += tags + buf
    for sect, name in sorted(strs, key=_col_order):
        cols.append([sect, name, "d"])
        values = strs[(sect, name)]
        tags = bytearray(n)
        buf = bytearray()
        for i in range(n):
            if i not in values:
                continue
            tags[i] = 1
            _uvarint(buf, index[values[i]])
        col_bytes.append(n + len(buf))
        body += tags + buf

    arr = bytearray()
    ab: set = set()
    for sect, name in sorted(arrays, key=_col_order):
        cols.append([sect, name, "a"])
        values = arrays[(sect, name)]
        ab.update(values)
        tags = bytearray(n)
        buf = bytearray()
        for i in range(n):
            if i not in values:
                continue
            tags[i] = 1
            _pack_array_v3(buf, values[i])
        col_bytes.append(n + len(buf))
        arr += tags + buf

    body_b, arr_b = bytes(body), bytes(arr)
    body_comp = _compress_v3(body_b)
    arr_comp = _compress_v3(arr_b) if arr_b else b""
    meta: Dict[str, object] = {
        "t": table, "c": cols,
        "cb": col_bytes, "ab": sorted(ab),
        "bc": zlib.crc32(body_comp), "ac": zlib.crc32(arr_comp),
        "bl": [len(body_b), len(arr_b)],
    }
    if key_blob is not None:
        meta["kx"] = [key_blob[0],
                      base64.b64encode(key_blob[1]).decode()]
    else:
        meta["k"] = [index[k] for k in keys]
    if any(e is not None for e in entry_list):
        meta["m"] = _dict_pack(entry_list, index)
    meta_comp = _compress_v3(
        json.dumps(meta, separators=(",", ":")).encode())
    frame = _FRAME3.pack(BLOCK_MAGIC_V3, n, len(meta_comp),
                         zlib.crc32(meta_comp), len(body_comp),
                         len(arr_comp)) + meta_comp + body_comp + arr_comp
    info = {
        "records": n, "meta_comp": len(meta_comp),
        "body_comp": len(body_comp), "array_comp": len(arr_comp),
        "body_raw": len(body_b), "array_raw": len(arr_b),
        "table": len(table),
        "cols": {_col_key(s, nm, k): b
                 for (s, nm, k), b in zip((tuple(c) for c in cols),
                                          col_bytes)},
    }
    return frame, info


def _decode_body_v3(n: int, meta: dict, body: bytes
                    ) -> Tuple[List[Tuple[str, dict]],
                               List[Optional[dict]]]:
    """Records (sans array columns) + entries from a decompressed body."""
    table = meta["t"]
    keys = _meta_keys(n, meta)
    (rlen,) = struct.unpack_from("<I", body, 0)
    rests = _dict_unpack(json.loads(body[4:4 + rlen].decode()), table)
    off = 4 + rlen
    for sect, name, kind in meta["c"]:
        if kind == "a":
            continue
        tags = body[off:off + n]
        off += n
        if kind == "s":
            for i in range(n):
                tag = tags[i]
                if tag == _T_MISSING:
                    continue
                if tag == _T_NULL:
                    v: object = None
                elif tag == _T_INT:
                    z, off = _read_uvarint(body, off)
                    v = _unzigzag(z)
                elif tag == _T_FSCALED:
                    m = 10 ** body[off]
                    z, off = _read_uvarint(body, off + 1)
                    v = _unzigzag(z) / m
                else:
                    (v,) = struct.unpack_from("<d", body, off)
                    off += 8
                _set_field(rests[i], sect, name, v)
        else:  # "d": refs into the block's string table
            for i in range(n):
                if not tags[i]:
                    continue
                ref, off = _read_uvarint(body, off)
                _set_field(rests[i], sect, name, table[ref])
    entries = _dict_unpack(meta["m"], table) if "m" in meta \
        else [None] * n
    return list(zip(keys, rests)), entries


def _decode_arrays_v3(n: int, acols: Sequence[Sequence[object]],
                      arr: bytes,
                      records: List[Tuple[str, dict]]) -> None:
    """Apply the array section's columns onto decoded ``records``."""
    off = 0
    for sect, name, _kind in acols:
        tags = arr[off:off + n]
        off += n
        for i in range(n):
            if not tags[i]:
                continue
            elems, off = _unpack_array_v3(arr, off)
            _set_field(records[i][1], sect, name, elems)


def decode_frame_v3(buf: bytes, offset: int = 0
                    ) -> Tuple[List[Tuple[str, dict]],
                               List[Optional[dict]]]:
    """Fully decode one v3 frame at ``offset`` (tests / audits)."""
    head = buf[offset:offset + _FRAME3.size]
    magic, n, mlen, mcrc, blen, alen = _FRAME3.unpack(head)
    if magic != BLOCK_MAGIC_V3:
        raise ValueError("not a v3 frame")
    pos = offset + _FRAME3.size
    meta_comp = buf[pos:pos + mlen]
    if zlib.crc32(meta_comp) != mcrc:
        raise ValueError("meta CRC mismatch")
    meta = json.loads(_decompress_v3(meta_comp).decode())
    body_comp = buf[pos + mlen:pos + mlen + blen]
    if zlib.crc32(body_comp) != meta["bc"]:
        raise ValueError("body CRC mismatch")
    records, entries = _decode_body_v3(n, meta, _decompress_v3(body_comp))
    if alen:
        arr_comp = buf[pos + mlen + blen:pos + mlen + blen + alen]
        if zlib.crc32(arr_comp) != meta["ac"]:
            raise ValueError("array CRC mismatch")
        acols = [c for c in meta["c"] if c[2] == "a"]
        _decode_arrays_v3(n, acols, _decompress_v3(arr_comp), records)
    return records, entries


_DECODE_ERRORS = (ValueError, KeyError, IndexError, TypeError,
                  struct.error, zlib.error) + \
    ((lzma.LZMAError,) if lzma is not None else ())


def _walk_frames(read, start: int, *, full: bool = True):
    """The one segment scanner: iterate events from ``start``.

    ``read(offset, n)`` returns up to ``n`` bytes at ``offset`` — an
    mmap slice or a buffered pread; the scanner never holds a file
    position.  Yields, in file order:

    - ``("magic", offset)`` — a file-magic marker.  Accepted
      anywhere, not just at offset 0: two lockless processes racing
      the very first append can each prepend the magic, and treating
      it as an 8-byte skip makes that interleaving lossless instead of
      data-destroying.
    - ``("frame", block)`` — one complete frame.  ``block`` is a dict:
      ``offset``/``end``, ``keys``, ``entries``, ``records`` (fully
      decoded payloads when ``full``, else ``None``), ``errors``
      (section CRC/decode failures, ``full`` mode only) and ``info``
      (the stats breakdown).  With ``full=False`` a frame costs **one
      meta decompression** — the body and array sections are never
      read; their presence is length-checked so torn tails still stop
      the scan.
    - ``("tail", offset, reason)`` — bytes from ``offset`` on are not
      a valid frame (torn write, corruption, another segment format,
      not a segment file); scanning stops.
    - ``("eof", offset)`` — clean end of file.

    Both the reader (:meth:`ColumnarStore._refresh`) and the auditor
    (:meth:`ColumnarStore.verify`) consume this generator, so they can
    never disagree about what is readable.
    """
    pos = start
    while True:
        head = read(pos, _FRAME3.size)
        if not head:
            yield ("eof", pos)
            return
        if head[:len(FILE_MAGIC_V3)] == FILE_MAGIC_V3:
            yield ("magic", pos)
            pos += len(FILE_MAGIC_V3)
            continue
        if head[:6] == FILE_MAGIC_V3[:6]:  # an older segment format
            version = head[6:8].decode("latin-1").lstrip("0")
            yield ("tail", pos, f"segment format {version} is not "
                                f"readable (pre-v3 store)")
            return
        if head[:4] != BLOCK_MAGIC_V3:
            yield ("tail", pos, "bad frame magic")
            return
        if len(head) < _FRAME3.size:
            yield ("tail", pos, "truncated frame header")
            return
        _m, n, mlen, mcrc, blen, alen = _FRAME3.unpack(head)
        meta_comp = read(pos + _FRAME3.size, mlen)
        if len(meta_comp) < mlen:
            yield ("tail", pos, "truncated frame meta")
            return
        if zlib.crc32(meta_comp) != mcrc:
            yield ("tail", pos, "CRC mismatch")
            return
        try:
            meta = json.loads(_decompress_v3(meta_comp).decode())
            table = meta["t"]
            keys = _meta_keys(n, meta)
            entries = _dict_unpack(meta["m"], table) if "m" in meta \
                else [None] * n
        except _DECODE_ERRORS as exc:
            yield ("tail", pos, f"undecodable block meta ({exc})")
            return
        body_off = pos + _FRAME3.size + mlen
        end = body_off + blen + alen
        # the sections stay unread unless ``full`` — but a frame whose
        # bytes never fully reached the disk is still a torn tail
        if end > pos and len(read(end - 1, 1)) < 1:
            yield ("tail", pos, "truncated frame body")
            return
        raw = meta.get("bl") or [0, 0]
        blk: Dict[str, object] = {
            "offset": pos, "end": end,
            "keys": keys, "entries": entries, "records": None,
            "errors": [],
            "info": {"records": n, "meta_comp": mlen,
                     "body_comp": blen, "array_comp": alen,
                     "body_raw": raw[0], "array_raw": raw[1],
                     "table": len(table),
                     "cols": dict(zip(
                         (_col_key(*c) for c in meta.get("c", [])),
                         meta.get("cb", [])))},
        }
        if full:
            body_comp = read(body_off, blen)
            arr_comp = read(body_off + blen, alen)
            errors = blk["errors"]
            if zlib.crc32(body_comp) != meta.get("bc"):
                errors.append("body CRC mismatch")
            if alen and zlib.crc32(arr_comp) != meta.get("ac"):
                errors.append("array CRC mismatch")
            if not errors:
                try:
                    records, _e = _decode_body_v3(
                        n, meta, _decompress_v3(body_comp))
                    if alen:
                        acols = [c for c in meta["c"] if c[2] == "a"]
                        _decode_arrays_v3(n, acols,
                                          _decompress_v3(arr_comp),
                                          records)
                    blk["records"] = records
                except _DECODE_ERRORS as exc:
                    errors.append(f"undecodable block body ({exc})")
        yield ("frame", blk)
        pos = end


class ColumnarStore(ResultStore):
    """The store: one segment file + an in-memory key index.

    Implements the :class:`~repro.harness.sweep.ResultStore` contract;
    see the module docstring for the format and its invariants.
    """

    SEGMENT = "store.seg"

    def __init__(self, root: str, *, origin: Optional[str] = None,
                 fresh: bool = False) -> None:
        super().__init__(root, origin=origin, fresh=fresh)
        self._lock = threading.RLock()
        self._index: Dict[str, Tuple[int, int]] = {}  # key -> (off, slot)
        #: bounded LRU of decoded blocks — the index is complete, the
        #: payload cache is not (misses re-load the block from disk).
        #: Each value is ``(records, pending_array_slots, array_cols)``
        #: — ``pending_array_slots`` is the mutable set of slots whose
        #: array columns are still undecoded (lazy reads), ``None``
        #: once applied or for blocks without arrays.
        self._blocks: "OrderedDict[int, tuple]" = OrderedDict()
        self._entries: Dict[str, dict] = {}  # frame-carried manifest
        self._scanned = 0        # segment bytes validated and indexed
        self._records = 0        # raw record count incl. duplicates
        self._blocks_seen = 0    # frames indexed so far
        self._tail_dirty = False  # torn/garbage tail after _scanned
        self._view = None        # mmap over the scanned segment
        self._view_len = 0
        # per-section/column accounting for stats() — folded from
        # frame metas during the scan, never from block decodes
        self._sections = dict.fromkeys(
            ("meta_comp", "body_comp", "array_comp", "body_raw",
             "array_raw", "table_strings"), 0)
        self._col_bytes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # segment access: mmap view with buffered fallback
    # ------------------------------------------------------------------
    def _segment_path(self) -> str:
        return os.path.join(self.root, self.SEGMENT)

    def _drop_view(self) -> None:
        if self._view is not None:
            try:
                self._view.close()
            except (OSError, ValueError):  # pragma: no cover
                pass
        self._view = None
        self._view_len = 0

    def _segment_view(self, size: int):
        """An mmap over the segment's first ``size`` bytes, or ``None``.

        Remapped when the file grew (append) or the size changed under
        a replace (compact); ``REPRO_STORE_MMAP=0`` or a platform
        without :mod:`mmap` degrades to buffered pread — same bytes,
        one copy more per read.
        """
        if (mmap is None or size <= 0 or
                os.environ.get(MMAP_ENV, "").strip().lower()
                in ("0", "off", "no")):
            self._drop_view()
            return None
        if self._view is not None and self._view_len == size:
            return self._view
        self._drop_view()
        try:
            fd = os.open(self._segment_path(), os.O_RDONLY)
        except OSError:
            return None
        try:
            self._view = mmap.mmap(fd, size, access=mmap.ACCESS_READ)
            self._view_len = size
        except (OSError, ValueError):  # pragma: no cover - map failure
            self._view = None
            self._view_len = 0
        finally:
            os.close(fd)
        return self._view

    @contextmanager
    def _segment_reader(self):
        """Yield ``read(off, n)`` for the current segment, or ``None``.

        The mmap path slices the shared view (no file handle, no seek
        syscalls); the fallback opens the file for the duration and
        serves buffered preads.
        """
        try:
            size = os.path.getsize(self._segment_path())
        except OSError:
            size = 0
        view = self._segment_view(size) if size > 0 else None
        if view is not None:
            yield lambda off, n: view[off:off + n]
            return
        try:
            fh = open(self._segment_path(), "rb")
        except OSError:
            yield None
            return
        try:
            def read(off: int, n: int) -> bytes:
                fh.seek(off)
                return fh.read(n)
            yield read
        finally:
            fh.close()

    def _reset(self) -> None:
        self._index.clear()
        self._blocks.clear()
        self._entries.clear()
        self._scanned = 0
        self._records = 0
        self._blocks_seen = 0
        self._tail_dirty = False
        self._drop_view()
        for key in self._sections:
            self._sections[key] = 0
        self._col_bytes.clear()

    def _fold_info(self, info: Dict[str, object]) -> None:
        """Accumulate one frame's stats breakdown (scan or append)."""
        s = self._sections
        for field in ("meta_comp", "body_comp", "array_comp",
                      "body_raw", "array_raw"):
            s[field] += info[field]
        s["table_strings"] += info["table"]
        for ckey, nbytes in info["cols"].items():
            self._col_bytes[ckey] = self._col_bytes.get(ckey, 0) + nbytes

    def _refresh(self) -> None:
        """Index any segment bytes appended since the last scan.

        Tolerant by construction: a frame that is short, fails its CRC
        or does not decode marks the tail dirty and stops the scan —
        everything before it stays served, and the next append
        truncates the torn tail away.
        """
        path = self._segment_path()
        try:
            size = os.path.getsize(path)
        except OSError:
            if self._scanned:
                self._reset()  # compacted away / removed externally
            return
        if size < self._scanned:
            self._reset()      # shrunk externally: rescan from scratch
        if size == self._scanned or self._tail_dirty:
            return
        with self._segment_reader() as read:
            if read is None:
                return
            for event in _walk_frames(read, self._scanned, full=False):
                if event[0] == "magic":
                    self._scanned = event[1] + len(FILE_MAGIC_V3)
                elif event[0] == "frame":
                    blk = event[1]
                    entries = blk["entries"]
                    for slot, key in enumerate(blk["keys"]):
                        self._index[key] = (blk["offset"], slot)
                        if entries[slot] is not None:
                            self._entries[key] = entries[slot]
                    self._records += len(blk["keys"])
                    self._blocks_seen += 1
                    self._fold_info(blk["info"])
                    self._scanned = blk["end"]
                elif event[0] == "tail":
                    self._tail_dirty = True
                    return
                # "eof": loop ends

    def _cache_block(self, offset: int, entry: tuple) -> None:
        self._blocks[offset] = entry
        self._blocks.move_to_end(offset)
        while len(self._blocks) > BLOCK_CACHE_BLOCKS:
            self._blocks.popitem(last=False)

    def _load_block(self, offset: int) -> Optional[tuple]:
        """Decode the frame at ``offset`` for point reads: meta+body
        only — ``(records, pending_array_slots, array_cols)`` — so a
        ``get`` of a scalar payload never unpacks the time-series
        arrays.
        """
        with self._segment_reader() as read:
            if read is None:
                return None
            try:
                magic, n, mlen, _mcrc, blen, _alen = \
                    _FRAME3.unpack(read(offset, _FRAME3.size))
                if magic != BLOCK_MAGIC_V3:
                    return None
                meta = json.loads(_decompress_v3(
                    read(offset + _FRAME3.size, mlen)).decode())
                body = _decompress_v3(
                    read(offset + _FRAME3.size + mlen, blen))
                records, _e = _decode_body_v3(n, meta, body)
            except (OSError,) + _DECODE_ERRORS:
                return None
        pending = set(meta.get("ab") or ())
        acols = tuple(tuple(c) for c in meta["c"] if c[2] == "a")
        return (records, pending or None, acols)

    def _apply_arrays(self, offset: int, records, pending: set,
                      acols) -> bool:
        """Decode the array section at ``offset`` into ``records``."""
        with self._segment_reader() as read:
            if read is None:
                return False
            try:
                head = read(offset, _FRAME3.size)
                _m, n, mlen, _mcrc, blen, alen = _FRAME3.unpack(head)
                arr = _decompress_v3(
                    read(offset + _FRAME3.size + mlen + blen, alen))
                _decode_arrays_v3(n, acols, arr, records)
            except (OSError,) + _DECODE_ERRORS:
                return False
        pending.clear()
        return True

    def _record(self, key: str, loc: Tuple[int, int]) -> Optional[dict]:
        offset, slot = loc
        entry = self._blocks.get(offset)
        if entry is None:
            entry = self._load_block(offset)
            if entry is None:
                return None
            self._cache_block(offset, entry)
        else:
            self._blocks.move_to_end(offset)
        records, pending, acols = entry
        if slot >= len(records) or records[slot][0] != key:
            # stale index vs an externally rewritten file (compact in
            # another process): never serve some other key's payload
            # as a cache hit — a miss just re-executes the task
            return None
        if pending and slot in pending:
            # this record carries time-series arrays and they are
            # still undecoded — pull in the array section now (once
            # per block; the cache entry is patched in place)
            if not self._apply_arrays(offset, records, pending, acols):
                return None
        return records[slot][1]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _read_raw(self, key: str) -> Optional[dict]:
        """Like :meth:`_read` but without the schema filter — what
        compaction preserves (dropping stale artifacts is prune's
        decision, not compact's)."""
        with self._lock:
            self._refresh()
            loc = self._index.get(key)
            payload = None if loc is None else self._record(key, loc)
        return None if payload is None else _json_copy(payload)

    def _read(self, key: str) -> Optional[dict]:
        payload = self._read_raw(key)
        if payload is None or payload.get("schema") != SCHEMA_VERSION:
            return None
        return payload

    def keys(self) -> List[str]:
        with self._lock:
            self._refresh()
            return sorted(self._index)

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _flock(self, fd: int) -> bool:
        """Take the advisory inter-process append lock, if available.

        Released implicitly when ``fd`` closes.  Returns False on
        platforms without :mod:`fcntl`, under ``REPRO_STORE_LOCK=0``,
        or if the lock call itself fails — appends then fall back to
        the documented lockless semantics (O_APPEND keeps each frame
        contiguous on Linux; concurrent writers may leave shadowed
        duplicates and must not race a tail heal).
        """
        if fcntl is None or os.environ.get(
                LOCK_ENV, "").strip().lower() in ("0", "off", "no"):
            return False
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            return True
        except OSError:  # pragma: no cover - e.g. locks unsupported fs
            return False

    def _append_frame(self, records: Sequence[Tuple[str, dict]],
                      entries: Sequence[Optional[dict]]) -> None:
        """Append one block and register its records in the index."""
        frame, info = encode_frame_v3(records, entries)
        path = self._segment_path()
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            # the advisory flock serializes whole appends (tail heal
            # included) across processes; without it two writers
            # converge the lockless way — shadowed duplicates, and a
            # heal racing an append can drop the other's frame
            self._flock(fd)
            if self._tail_dirty:
                # the dirty flag may be stale two ways: another
                # process healed this same tail and appended valid
                # frames, or replaced the file entirely (compact can
                # *grow* it, so the size<scanned reset never fires and
                # a resumed scan lands mid-frame).  Either way,
                # truncating on stale state destroys committed
                # artifacts — re-validate the whole file from offset 0
                # first, under the lock
                self._reset()
                self._refresh()
            if self._tail_dirty:
                # genuinely torn: drop the garbage before appending
                # over it — all the way to offset 0 when even the file
                # magic never made it to disk (the append below
                # re-creates it).  Unmap first: reads through a view
                # spanning truncated pages would fault
                self._drop_view()
                os.ftruncate(fd, self._scanned)
                self._tail_dirty = False
            data = frame
            if os.fstat(fd).st_size == 0:
                data = FILE_MAGIC_V3 + frame
            # loop on short writes (ENOSPC / RLIMIT_FSIZE can commit a
            # partial frame without raising): the index must never
            # report artifacts durable that are torn on disk
            view = memoryview(data)
            written = 0
            while written < len(view):
                n = os.write(fd, view[written:])
                if n <= 0:
                    raise OSError(
                        f"short write to {path} "
                        f"({written}/{len(view)} bytes)")
                written += n
            end = os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            os.close(fd)
        offset = end - len(frame)
        cached = [(key, _json_copy(payload)) for key, payload in records]
        self._cache_block(offset, (cached, None, ()))
        for slot, (key, _payload) in enumerate(cached):
            self._index[key] = (offset, slot)
            if entries[slot] is not None:
                self._entries[key] = entries[slot]
        if offset == max(self._scanned, len(FILE_MAGIC_V3)):
            self._scanned = end
            self._records += len(cached)
            self._blocks_seen += 1
            self._fold_info(info)
        # else: another process appended in between; _refresh picks the
        # gap (and this frame again) up from _scanned — idempotent

    def put_many(self, items: Iterable[Tuple[str, dict]], *,
                 stats: Optional[Dict[str, dict]] = None) -> None:
        """Persist several artifacts as **one** segment append.

        The manifest entries travel inside the frame, so there is no
        per-call read-merge-write of ``manifest.json`` — the whole
        sweep costs O(batches) store I/O, and the on-disk index is
        materialized once by ``repair_manifest`` when a campaign
        finishes.  ``stats`` (key → per-task accounting, see
        :meth:`~repro.harness.sweep.ResultStore.put_many`) rides the
        frame-carried entries, never the payloads.
        """
        items = list(items)
        if not items:
            return
        with self._lock:
            os.makedirs(self.root, exist_ok=True)
            self._refresh()
            now = time.time()
            self._append_frame(
                items,
                [self._manifest_entry(payload, now,
                                      (stats or {}).get(key))
                 for key, payload in items])

    def merge_from(self, other: "ColumnarStore") -> List[str]:
        """Fold ``other``'s artifacts in as appended frames; returns
        the keys actually copied.

        Content-key semantics make this idempotent and commutative: a
        key already present here is skipped (equal key ⟺ identical
        payload), so merging the same shard twice — or two shards in
        either order — converges to the same store.  Manifest entries
        travel inside the frames, preserving the writing shard's
        ``origin``; artifacts with a stale schema are left behind.
        """
        other_manifest = other.manifest()
        # stream the source in frame order, not sorted-key order:
        # content keys shuffle records across blocks, so sorted point
        # reads thrash the bounded block LRU and re-decode each block
        # once per *record* (the 50k merge scenario measured ~17x
        # slower that way); frame order decodes each source block once
        with other._lock:
            other._refresh()
            other_keys = sorted(other._index, key=other._index.get)
        merged: List[str] = []
        records: List[Tuple[str, dict]] = []
        entries: List[Optional[dict]] = []
        with self._lock:
            self._refresh()
            for key in other_keys:
                if key in self._index:
                    continue
                payload = other._read(key)
                if payload is None:
                    continue
                records.append((key, payload))
                entries.append(other_manifest.get(key) or
                               other._manifest_entry(payload,
                                                     time.time()))
                merged.append(key)
            if records:
                os.makedirs(self.root, exist_ok=True)
                # chunked like compaction: one giant block would make
                # every later cold point-read decode the whole merge
                for lo in range(0, len(records), COMPACT_BLOCK_RECORDS):
                    hi = lo + COMPACT_BLOCK_RECORDS
                    self._append_frame(records[lo:hi], entries[lo:hi])
        return merged

    def manifest(self) -> Dict[str, dict]:
        """The campaign index, frame-carried entries first.

        Starts from whatever ``manifest.json`` says, overlays the
        entries riding the segment frames, synthesizes entries for
        records that carry none, and drops entries whose record is
        gone — the frames are the source of truth.
        """
        with self._lock:
            self._refresh()
            manifest = self._read_index()
            for key, entry in self._entries.items():
                manifest[key] = dict(entry)
            for key in self._index:
                if key in manifest:
                    continue
                payload = self._read(key)
                if payload is not None:
                    manifest[key] = self._manifest_entry(
                        payload, time.time())
            for key in set(manifest) - set(self._index):
                del manifest[key]
        return manifest

    # ------------------------------------------------------------------
    # maintenance: prune / compact / verify / stats
    # ------------------------------------------------------------------
    def prune(self, keep: Optional[Iterable[str]] = None) -> List[str]:
        """Drop stale artifacts by rewriting the segment; returns the
        removed keys.

        With ``keep`` given, everything outside that key set goes.
        Without it, artifacts whose stored simulator version differs
        from the current :func:`~repro.harness.sweep.simulator_version`
        (or whose schema is outdated) are removed — the post-upgrade
        cleanup.  Orphaned ``manifest.json`` entries (index rows with
        no record behind them) are dropped either way: read-repair
        only ever adds, so without this a lost artifact would haunt
        the on-disk index forever.
        """
        keep_set = set(keep) if keep is not None else None
        with self._lock:
            self._refresh()
            removed = []
            for key in sorted(self._index):
                if keep_set is not None:
                    stale = key not in keep_set
                else:
                    payload = self._read(key)
                    stale = payload is None or \
                        payload.get("sim") != simulator_version()
                if stale:
                    removed.append(key)
            if removed:
                self._rewrite(drop=set(removed))
            orphaned = set(self._read_index()) - set(self._index)
            if removed or orphaned:
                self._write_json(os.path.join(self.root, self.MANIFEST),
                                 self.manifest())
        return removed

    def compact(self) -> Dict[str, object]:
        """Rewrite the segment file with one record per live key
        (shadowed duplicates dropped).  Returns before/after
        statistics."""
        with self._lock:
            self._refresh()
            before = self._stats_locked()
            written = self._rewrite(drop=set())
            self._write_json(os.path.join(self.root, self.MANIFEST),
                             self.manifest())
            after = self._stats_locked()
        return {"before": before, "after": after,
                "records_written": written}

    def _rewrite(self, drop: set) -> int:
        """Write a fresh segment holding every live key not in
        ``drop``; returns the records written.  Caller holds the
        lock."""
        survivors = [key for key in self.keys() if key not in drop]
        entry_for = self.manifest()  # preserves shard origins
        os.makedirs(self.root, exist_ok=True)
        tmp = self._segment_path() + \
            f".{os.getpid()}.{threading.get_ident()}.tmp"
        written = 0
        with open(tmp, "wb") as fh:
            fh.write(FILE_MAGIC_V3)
            batch: List[Tuple[str, dict]] = []
            entries: List[Optional[dict]] = []
            for key in survivors:
                payload = self._read_raw(key)
                if payload is None:
                    continue
                batch.append((key, payload))
                entries.append(entry_for.get(key))
                written += 1
                if len(batch) >= COMPACT_BLOCK_RECORDS:
                    fh.write(encode_frame_v3(batch, entries)[0])
                    batch, entries = [], []
            if batch:
                fh.write(encode_frame_v3(batch, entries)[0])
        self._drop_view()  # the view maps the file we just replaced
        os.replace(tmp, self._segment_path())
        self._reset()
        self._refresh()
        return written

    def verify(self) -> Dict[str, object]:
        """Scan the file from scratch and cross-check every record.

        Returns a report dict; ``ok`` is False on CRC failures, torn
        tails, undecodable blocks, or records whose embedded content
        key disagrees with their index key.
        """
        report: Dict[str, object] = {
            "blocks": 0, "records": 0, "unique_keys": 0,
            "duplicate_records": 0, "key_mismatches": [],
            "truncated_tail_bytes": 0, "errors": [],
        }
        seen: Dict[str, int] = {}
        path = self._segment_path()
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        if size:
            with open(path, "rb") as fh:
                def read(off: int, n: int) -> bytes:
                    fh.seek(off)
                    return fh.read(n)
                # same scanner the reader uses (full decode: every
                # section CRC-checked): verify can never call readable
                # what _refresh would refuse, or vice versa
                for event in _walk_frames(read, 0, full=True):
                    if event[0] == "frame":
                        blk = event[1]
                        report["blocks"] += 1
                        for err in blk["errors"]:
                            report["errors"].append(
                                f"{err} at offset {blk['offset']}")
                        records = blk["records"]
                        for slot, key in enumerate(blk["keys"]):
                            report["records"] += 1
                            seen[key] = seen.get(key, 0) + 1
                            if records is None:
                                continue
                            embedded = records[slot][1].get("key")
                            if embedded is not None and embedded != key:
                                report["key_mismatches"].append(key)
                    elif event[0] == "tail":
                        _kind, offset, reason = event
                        report["truncated_tail_bytes"] = size - offset
                        if not reason.startswith("truncated"):
                            report["errors"].append(
                                f"{reason} at offset {offset}")
        report["unique_keys"] = len(seen)
        report["duplicate_records"] = \
            sum(count - 1 for count in seen.values())
        report["ok"] = not (report["errors"] or report["key_mismatches"]
                            or report["truncated_tail_bytes"])
        return report

    def _stats_locked(self) -> Dict[str, object]:
        try:
            seg_bytes = os.path.getsize(self._segment_path())
        except OSError:
            seg_bytes = 0
        task_wall = 0.0
        task_bytes = 0
        timed = 0
        for entry in self._entries.values():
            wall = entry.get("wall_s")
            if isinstance(wall, (int, float)) and \
                    not isinstance(wall, bool):
                task_wall += float(wall)
                timed += 1
            nbytes = entry.get("bytes")
            if isinstance(nbytes, (int, float)) and \
                    not isinstance(nbytes, bool):
                task_bytes += int(nbytes)
        return {
            "bytes": seg_bytes,
            "blocks": self._blocks_seen,
            # raw frame records, not unique index keys: the duplicate
            # surplus is the `repro store inspect` signal to compact
            "records": self._records,
            "duplicates": self._records - len(self._index),
            "keys": len(self._index),
            # a torn/corrupt tail stops the scan, so the counts above
            # cover only the readable prefix — statistics must say so
            "tail_dirty": self._tail_dirty,
            # header-only breakdown: every number below comes from the
            # frame headers/metas the scan already paid for — stats()
            # never decodes a block body through the LRU cache
            "sections": dict(self._sections),
            "columns": dict(self._col_bytes),
            # recorded task accounting riding the manifest entries
            "task_wall_s": round(task_wall, 6),
            "task_bytes": task_bytes,
            "tasks_timed": timed,
        }

    def stats(self) -> Dict[str, object]:
        """Browsable store statistics (``repro store inspect``).

        Cheap by construction: the refresh scan reads frame headers
        and metas only (no body decompression, nothing pushed through
        the block LRU), and the compression breakdown
        (``sections``/``columns``) is folded from the per-frame
        ``info`` the scanner already produced.
        """
        with self._lock:
            self._refresh()
            return self._stats_locked()


def open_store(root: str, *, origin: Optional[str] = None,
               fresh: bool = False) -> ColumnarStore:
    """The store for ``root`` (created on the first write)."""
    return ColumnarStore(root, origin=origin, fresh=fresh)
