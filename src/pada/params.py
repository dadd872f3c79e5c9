"""Named float32 parameter storage and the bit-exact .pada/.padm container format.

A :class:`ParameterSet` is an ordered collection of named tensors with
per-tensor prunable flags.  Checkpoints round-trip every float bit-exactly
(bits are compared as raw integers in tests) and preserve tensor order,
names, shapes and flags.  The same binary container, with a different magic
and a packed-bit payload, stores pruning masks (see :mod:`pada.pruning`).
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

CHECKPOINT_MAGIC = b"PADA"
MASK_MAGIC = b"PADM"
FORMAT_VERSION = 1

ROLES = ("pretrained", "finetuned_target", "finetuned_donor", "adapted")


class FormatError(Exception):
    """Base class for container format errors."""


class NotACheckpointError(FormatError):
    """The file does not start with the expected magic bytes."""


class UnsupportedVersionError(FormatError):
    """The file declares a format version this library cannot read."""


class TruncatedFileError(FormatError):
    """The file ends before a declared record is complete."""


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
    # the checkpoint format writes "role" itself, from ParameterSet.role
    if "role" in meta:
        raise ValueError("metadata key 'role' is reserved; set ParameterSet.role instead")


def flat_prunable_values(ps: ParameterSet) -> np.ndarray:
    """Concatenated float32 values of all prunable tensors, ``ps.d_prunable`` of them.

    Tensors come in insertion order, the elements of each in row-major order.
    """
    parts = [t.data.ravel() for t in ps.tensors if t.prunable]
    if not parts:
        return np.empty(0, dtype=np.float32)
    return np.concatenate(parts)


def structural_mismatch(a: ParameterSet, b: ParameterSet) -> str | None:
    """Describe the first structural difference between two sets, or None."""
    if len(a.tensors) != len(b.tensors):
        return f"tensor count differs: {len(a.tensors)} vs {len(b.tensors)}"
    for i, (ta, tb) in enumerate(zip(a.tensors, b.tensors)):
        if ta.name != tb.name:
            return f"tensor {i}: name {ta.name!r} vs {tb.name!r}"
        if ta.shape != tb.shape:
            return f"tensor {i} ({ta.name!r}): shape {ta.shape} vs {tb.shape}"
        if ta.prunable != tb.prunable:
            return f"tensor {i} ({ta.name!r}): prunable {ta.prunable} vs {tb.prunable}"
    return None


# ---------------------------------------------------------------------------
# Binary container
#
# Layout (all integers little-endian, see docs/formats.md for a hex example):
#   magic[4]  version:u8  tensor_count:u32
#   per tensor: name_len:u16  name(utf8)  prunable:u8  rank:u8  dims:u32[rank]
#               payload (float32[n] for checkpoints, packed bits for masks)
#   metadata: pair_count:u32, then per pair key_len:u16 key(utf8)
#             value_len:u32 value(utf8)
# ---------------------------------------------------------------------------


class _Reader:
    def __init__(self, buf: bytes, path: str):
        self.buf = buf
        self.path = path
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.buf):
            raise TruncatedFileError(
                f"{self.path}: truncated {what} (need {n} bytes at offset {self.off})"
            )
        chunk = self.buf[self.off : self.off + n]
        self.off += n
        return chunk

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: {what} is not UTF-8 ({exc})") from exc

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def _atomic_write(path: str, payload: bytes) -> None:
    # write-temp-then-rename so partially written files are never observed
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pada-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write a text file atomically (UTF-8, write-temp-then-rename)."""
    try:
        _atomic_write(path, text.encode("utf-8"))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_container(
    path: str,
    magic: bytes,
    records: list[tuple[str, bool, tuple[int, ...], bytes]],
    metadata: dict[str, str],
) -> None:
    """Serialize (name, prunable, shape, payload) records plus metadata pairs."""
    parts = [magic, bytes([FORMAT_VERSION]), struct.pack("<I", len(records))]
    for name, prunable, shape, payload in records:
        name_b = name.encode("utf-8")
        if len(name_b) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        if len(shape) > 0xFF:
            raise ValueError(f"tensor rank too large: {len(shape)}")
        parts.append(struct.pack("<H", len(name_b)))
        parts.append(name_b)
        parts.append(bytes([1 if prunable else 0]))
        parts.append(bytes([len(shape)]))
        parts.append(struct.pack(f"<{len(shape)}I", *shape) if shape else b"")
        parts.append(payload)
    parts.append(struct.pack("<I", len(metadata)))
    for key, value in metadata.items():
        key_b = key.encode("utf-8")
        value_b = value.encode("utf-8")
        parts.append(struct.pack("<H", len(key_b)))
        parts.append(key_b)
        parts.append(struct.pack("<I", len(value_b)))
        parts.append(value_b)
    try:
        _atomic_write(path, b"".join(parts))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_container(path: str, magic: bytes, label: str, payload_nbytes):
    """Parse a container; ``payload_nbytes(n_elements)`` sizes each payload.

    Returns (records, metadata) where records are
    (name, prunable, shape, payload_bytes) tuples.
    """
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    if len(buf) < 4 or buf[:4] != magic:
        raise NotACheckpointError(f"{path}: not a {label} (bad magic)")
    r = _Reader(buf, path)
    r.off = 4
    version = r.u8("version byte")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported format version {version}")
    count = r.u32("tensor count")
    records = []
    for _ in range(count):
        name_len = r.u16("tensor name length")
        name = r.text(name_len, "tensor name")
        prunable = bool(r.u8("prunable flag"))
        rank = r.u8("tensor rank")
        shape = tuple(r.u32("tensor dims") for _ in range(rank))
        if 0 in shape:
            raise FormatError(f"{path}: tensor {name!r}: dims must be positive, got {shape}")
        n = 1
        for d in shape:
            n *= d
        payload = r.take(payload_nbytes(n), "tensor data")
        records.append((name, prunable, shape, payload))
    metadata: dict[str, str] = {}
    pair_count = r.u32("metadata count")
    for _ in range(pair_count):
        key_len = r.u16("metadata key length")
        key = r.text(key_len, "metadata key")
        value_len = r.u32("metadata value length")
        value = r.text(value_len, "metadata value")
        metadata[key] = value
    if r.off != len(buf):
        raise FormatError(f"{path}: {len(buf) - r.off} trailing bytes after the metadata")
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
        path, CHECKPOINT_MAGIC, "PADA checkpoint", lambda n: 4 * n
    )
    role = metadata.pop("role", "pretrained")
    try:
        tensors = [
            Tensor(name, np.frombuffer(payload, dtype="<f4").reshape(shape).copy(), prunable)
            for name, prunable, shape, payload in records
        ]
        ps = ParameterSet(tensors, role, metadata)
    except ValueError as exc:  # well-formed container, invalid content (e.g. an unknown role)
        raise FormatError(f"{path}: {exc}") from exc
    # magnitude ranking would never prune a NaN (argsort puts it last)
    bad = next((t.name for t in tensors if not np.isfinite(t.data).all()), None)
    if bad is not None:
        raise FormatError(f"{path}: tensor {bad!r} holds NaN or inf weights")
    return ps
