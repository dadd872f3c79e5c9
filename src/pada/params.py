"""Named float32 parameter storage and the bit-exact .pada/.padm container format.

A :class:`ParameterSet` is an ordered collection of named tensors with
per-tensor prunable flags.  Checkpoints round-trip every float bit-exactly
(bits are compared as raw integers in tests) and preserve tensor order,
names, shapes and flags.  The same binary container, with a different magic
and a packed-bit payload, stores pruning masks (see :mod:`pada.pruning`).
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from typing import NewType, get_args, get_origin

import numpy as np

CHECKPOINT_MAGIC = b"PADA"
MASK_MAGIC = b"PADM"
FORMAT_VERSION = 1

ROLES = ("pretrained", "finetuned_target", "finetuned_donor", "adapted")


class FormatError(Exception):
    """A file that does not hold what its format says; the message names the file."""


class StructureMismatchError(ValueError):
    """Two parameter sets (or masks) do not share the same structure."""


def default_prunable(shape) -> bool:
    """Weight matrices (rank >= 2) default to prunable, vectors/scalars do not."""
    return len(shape) >= 2


@dataclass(eq=False)
class Tensor:
    """One named float32 tensor. ``data`` is kept C-contiguous (row-major)."""

    name: str
    data: np.ndarray
    prunable: bool | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("tensor name must be nonempty")
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if any(d <= 0 for d in self.data.shape):
            raise ValueError(f"tensor {self.name!r}: dims must be positive, got {self.data.shape}")
        if self.prunable is None:
            self.prunable = default_prunable(self.data.shape)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def copy(self) -> "Tensor":
        return Tensor(self.name, self.data.copy(), self.prunable)

    def __eq__(self, other) -> bool:
        """Bit-exact equality: float payloads are compared as raw bytes."""
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.name == other.name
            and self.shape == other.shape
            and self.prunable == other.prunable
            and self.data.tobytes() == other.data.tobytes()
        )


@dataclass(eq=False)
class ParameterSet:
    """Ordered, named tensors plus a role tag and free-form string metadata.

    Iteration order is insertion order and is stable across save/load.
    """

    tensors: list[Tensor] = field(default_factory=list)
    role: str = "pretrained"
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}, expected one of {ROLES}")
        names = [t.name for t in self.tensors]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise ValueError(f"duplicate tensor name {dup!r}")
        _check_meta(self.meta)

    def __iter__(self):
        return iter(self.tensors)

    def __len__(self) -> int:
        return len(self.tensors)

    def __getitem__(self, name: str) -> Tensor:
        for t in self.tensors:
            if t.name == name:
                return t
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(t.name == name for t in self.tensors)

    def names(self) -> list[str]:
        return [t.name for t in self.tensors]

    def prunable_tensors(self) -> list[Tensor]:
        return [t for t in self.tensors if t.prunable]

    @property
    def d_prunable(self) -> int:
        return sum(t.size for t in self.tensors if t.prunable)

    def copy(self) -> "ParameterSet":
        return ParameterSet([t.copy() for t in self.tensors], self.role, dict(self.meta))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterSet):
            return NotImplemented
        return (
            self.role == other.role
            and self.meta == other.meta
            and len(self.tensors) == len(other.tensors)
            and all(a == b for a, b in zip(self.tensors, other.tensors))
        )


def _check_meta(meta: dict[str, str]) -> None:
    # the checkpoint format writes "role" itself, from ParameterSet.role, and holds only strings
    if "role" in meta:
        raise ValueError("metadata key 'role' is reserved; set ParameterSet.role instead")
    bad = next((item for item in meta.items() if not all(type(v) is str for v in item)), None)
    if bad is not None:
        raise ValueError(f"metadata keys and values must be strings, got {bad[0]!r}: {bad[1]!r}")


def flat_prunable_values(ps: ParameterSet) -> np.ndarray:
    """Concatenated float32 values of all prunable tensors, ``ps.d_prunable`` of them.

    Tensors come in insertion order, the elements of each in row-major order.
    The array is always a fresh copy, so a caller may overwrite it.
    """
    parts = [t.data.ravel() for t in ps.tensors if t.prunable]
    if not parts:
        return np.empty(0, dtype=np.float32)
    return np.concatenate(parts)


def structural_mismatch(a, b) -> str | None:
    """Describe the first structural difference between two layouts, or None.

    ``a`` and ``b`` are parameter sets or ordered sequences of named, shaped
    items (tensors, mask entries).  Position by position it compares the
    item count, names and shapes, and prunable flags only where both items
    carry one (mask entries do not).  Values are never compared.
    """
    a, b = list(a), list(b)
    if len(a) != len(b):
        return f"tensor count differs: {len(a)} vs {len(b)}"
    for i, (ta, tb) in enumerate(zip(a, b)):
        if ta.name != tb.name:
            return f"tensor {i}: name {ta.name!r} vs {tb.name!r}"
        if ta.shape != tb.shape:
            return f"tensor {i} ({ta.name!r}): shape {ta.shape} vs {tb.shape}"
        flags = getattr(ta, "prunable", None), getattr(tb, "prunable", None)
        if None not in flags and flags[0] != flags[1]:
            return f"tensor {i} ({ta.name!r}): prunable {flags[0]} vs {flags[1]}"
    return None


# ---------------------------------------------------------------------------
# Binary container, laid out as docs/formats.md's tables say
# ---------------------------------------------------------------------------

# its integer fields, little-endian; write_container packs them and _Reader unpacks them
_U8, _U16, _U32 = struct.Struct("<B"), struct.Struct("<H"), struct.Struct("<I")


def _text(text: str, width: struct.Struct, what: str) -> bytes:
    """``text`` as UTF-8 after its byte length in ``width``, as :meth:`_Reader.text` reads it."""
    raw = text.encode("utf-8")
    if len(raw) >> 8 * width.size:
        raise ValueError(f"{what} too long: {text!r}")
    return width.pack(len(raw)) + raw


class _Reader:
    """Reads the fields of ``buf`` in order; a payload is a memoryview slice, never a copy."""

    def __init__(self, buf: bytes, path):
        self.buf = memoryview(buf)
        self.path = path
        self.off = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.off + n > len(self.buf):
            raise FormatError(
                f"{self.path}: truncated {what} (need {n} bytes at offset {self.off})"
            )
        chunk = self.buf[self.off : self.off + n]
        self.off += n
        return chunk

    def uint(self, width: struct.Struct, what: str) -> int:
        try:
            (value,) = width.unpack_from(self.buf, self.off)
        except struct.error:  # the file ends inside the field
            self.take(width.size, what)  # raises the truncation's FormatError
        self.off += width.size
        return value

    def text(self, width: struct.Struct, what: str) -> str:
        n = self.uint(width, what)  # a cut length prefix is a truncated ``what`` too
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: {what} is not UTF-8 ({exc})") from exc


def read_file(path) -> bytes:
    """The bytes of input file ``path``; a failure is an OSError ``cannot read <path>: <reason>``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror}") from exc


def read_json(path):
    """Input file ``path`` as one UTF-8 JSON document, else a ValueError ``not JSON (…)``."""
    try:
        return json.loads(read_file(path).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValueError(f"not JSON ({exc})") from exc


NonNegativeInt = NewType("NonNegativeInt", int)  # a count, or a seed: numpy refuses a negative one
ErrorRate = NewType("ErrorRate", float)  # a fraction of the evaluation rows


def _number(integral: bool, lo: float, hi: float):
    """Whether a value is a number in [lo, hi] (so not NaN), integral (2000.0 counts) if asked."""
    return lambda v: ((type(v) is int or type(v) is float and (not integral or v.is_integer()))
                      and lo <= v <= hi)


# each annotation's (what it asks for, whether a value is one, what that value reads as)
_SCALARS = {
    int: ("an integer", _number(True, -math.inf, math.inf), int),
    NonNegativeInt: ("a non-negative integer", _number(True, 0, math.inf), int),
    float: ("a number", _number(False, -sys.float_info.max, sys.float_info.max), float),
    ErrorRate: ("a number in [0, 1]", _number(False, 0, 1), float),
    **{tp: (kind, lambda v, tp=tp: type(v) is tp, tp)  # never converted
       for tp, kind in ((str, "a string"), (bool, "a bool"), (dict, "an object"))},
}


def _check(tp) -> tuple:
    """``_SCALARS[tp]``, or the like entry built for ``list[X]``, ``tuple[X, ...]``, ``X|None``."""
    origin, args = get_origin(tp), get_args(tp)
    if not args:
        return _SCALARS[tp]
    kind, ok, read = _check(args[0])
    if type(None) in args:
        return (f"{kind} or null", lambda v: v is None or ok(v),
                lambda v: v if v is None else read(v))
    return (f"a list, each {kind}", lambda v: type(v) is list and all(map(ok, v)),
            lambda v: origin(map(read, v)))


def json_object(doc, name: str) -> dict:
    """``doc`` if it is a JSON object, else a ValueError ``<name> must be an object, got …``."""
    if type(doc) is not dict:
        raise ValueError(f"{name} must be an object, got {doc!r}")
    return doc


class Fields:
    """What a JSON object must hold, ``{key: annotation}``: the one checker of every JSON input.

    An unknown key is refused, and a missing one unless ``optional``.  An integer may be
    written ``2000.0``; a number must be finite and reads as a float.  Each annotation
    becomes its check once, here.
    """

    def __init__(self, types: dict, optional=()):
        self.checks, self.optional = {key: _check(tp) for key, tp in types.items()}, {*optional}

    def read(self, doc, path: str = "", name: str = "") -> dict:
        """``doc`` at ``path`` (``name`` at the top), each value as read; else a ValueError."""
        json_object(doc, path or name)
        where, checks, values = f"{path}." if path else "", self.checks, dict(doc)
        for key in [*doc, *checks] if doc.keys() != checks.keys() else ():
            if key not in checks or key not in doc and key not in self.optional:
                raise ValueError(f"{'missing' if key in checks else 'unknown'} field: {where}{key}")
        for key, value in doc.items():
            kind, ok, read = checks[key]
            if not ok(value):
                raise ValueError(f"{where}{key} must be {kind}, got {value!r}")
            if type(value) is not read:  # an int for a float, 2000.0 for an int, or a list
                values[key] = read(value)
        return values


def _atomic_write(path: str, payload: bytes) -> None:
    # write-temp-then-rename so partially written files are never observed; "x" makes the temp
    # file as open(path, "w") would make the file, so the umask sets its mode
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".pada-tmp-{os.urandom(8).hex()}")
    try:
        with open(tmp, "xb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise OSError(f"cannot write {path}: {exc.strerror}") from exc


def atomic_write_text(path: str, text: str) -> None:
    """Write a text file atomically (UTF-8, write-temp-then-rename)."""
    _atomic_write(path, text.encode("utf-8"))


def write_csv(path: str, header, rows) -> None:
    """Write comma-joined lines, each value by ``str`` (a float's ``repr``); no NaN or infinity."""
    rows = [header, *rows]
    text = "".join(",".join(map(str, row)) + "\n" for row in rows)
    # a float's text holds "nan" or "inf" only when the float is not finite
    if ("nan" in text or "inf" in text) and any(
        isinstance(v, float) and not math.isfinite(v) for row in rows for v in row
    ):
        raise ValueError(f"cannot write {path}: a value is NaN or infinite")
    atomic_write_text(path, text)


def write_json(path: str, doc) -> None:
    """Write ``doc`` indented by 2, floats by ``repr``; strict JSON has no NaN or infinity."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc
    atomic_write_text(path, text)


def write_container(
    path: str,
    magic: bytes,
    records: list[tuple[str, bool, tuple[int, ...], bytes]],
    metadata: dict[str, str],
) -> None:
    """Serialize (name, prunable, shape, payload) records plus metadata pairs."""
    parts = [magic, _U8.pack(FORMAT_VERSION), _U32.pack(len(records))]
    for name, prunable, shape, payload in records:
        if len(shape) > 0xFF:
            raise ValueError(f"tensor rank too large: {len(shape)}")
        parts += [_text(name, _U16, "tensor name"), _U8.pack(1 if prunable else 0),
                  _U8.pack(len(shape)), *map(_U32.pack, shape), payload]
    parts.append(_U32.pack(len(metadata)))
    for key, value in metadata.items():
        parts += [_text(key, _U16, "metadata key"), _text(value, _U32, "metadata value")]
    _atomic_write(path, b"".join(parts))


def read_container(path: str, magic: bytes, label: str, payload_nbytes, required: tuple[str, ...]):
    """Parse a container; ``payload_nbytes(n_elements)`` sizes each payload.

    Returns (records, metadata) where records are (name, prunable, shape,
    payload) tuples, each payload a memoryview of the file's bytes; a metadata key of
    ``required`` that the file lacks is a FormatError.
    """
    buf = read_file(path)
    if not buf.startswith(magic):
        raise FormatError(f"{path}: not a {label} (bad magic)")
    r = _Reader(buf, path)
    r.off = len(magic)
    version = r.uint(_U8, "version byte")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    records = []
    for _ in range(r.uint(_U32, "tensor count")):
        name = r.text(_U16, "tensor name")
        prunable = bool(r.uint(_U8, "prunable flag"))
        rank = r.uint(_U8, "tensor rank")
        shape = tuple(r.uint(_U32, "tensor dims") for _ in range(rank))
        if 0 in shape:
            raise FormatError(f"{path}: tensor {name!r}: dims must be positive, got {shape}")
        payload = r.take(payload_nbytes(math.prod(shape)), "tensor data")
        records.append((name, prunable, shape, payload))
    metadata: dict[str, str] = {}
    for _ in range(r.uint(_U32, "metadata count")):
        key = r.text(_U16, "metadata key")
        metadata[key] = r.text(_U32, "metadata value")
    if r.off != len(buf):
        raise FormatError(f"{path}: {len(buf) - r.off} trailing bytes after the metadata")
    for key in required:
        if key not in metadata:
            raise FormatError(f"{path}: no {key} metadata")
    return records, metadata


def save_checkpoint(ps: ParameterSet, path: str) -> None:
    """Write ``ps`` to ``path`` in the .pada format (atomic, bit-exact)."""
    records = [
        (t.name, t.prunable, t.shape, np.ascontiguousarray(t.data, dtype="<f4").tobytes())
        for t in ps.tensors
    ]
    _check_meta(ps.meta)  # meta may have been edited after construction
    metadata = {"role": ps.role, **ps.meta}
    write_container(path, CHECKPOINT_MAGIC, records, metadata)


def load_checkpoint(path: str) -> ParameterSet:
    """Read a .pada file; exact inverse of :func:`save_checkpoint`."""
    records, metadata = read_container(
        path, CHECKPOINT_MAGIC, "PADA checkpoint", lambda n: 4 * n, ("role",)
    )
    role = metadata.pop("role")
    try:
        tensors = [
            Tensor(name, np.frombuffer(payload, dtype="<f4").reshape(shape).copy(), prunable)
            for name, prunable, shape, payload in records
        ]
        ps = ParameterSet(tensors, role, metadata)
    except ValueError as exc:  # well-formed container, invalid content (e.g. an unknown role)
        raise FormatError(f"{path}: {exc}") from exc
    # magnitude ranking would never prune a NaN (it ranks after +inf)
    bad = next((t.name for t in tensors if not np.isfinite(t.data).all()), None)
    if bad is not None:
        raise FormatError(f"{path}: tensor {bad!r} holds NaN or inf weights")
    return ps
