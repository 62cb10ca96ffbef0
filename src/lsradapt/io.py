"""Matrix and decomposition file formats.

Text matrices: first line ``rows cols``, then one line per row of
space-separated decimal floats written with shortest-round-trip
formatting (reading recovers the exact values); only blank lines follow.

Binary matrices: magic ``LSRB``, one version byte, unsigned 32-bit
little-endian rows and cols, then rows*cols little-endian IEEE float64
values in row-major order.  Round-trips are bit-exact.

A separated representation is stored as a manifest (text) naming the
shape, the term count, and per term the weight plus relative paths of
the factor files, named after the manifest: printable ASCII with no path
separator and no leading or trailing space, so the reader finds them.

Both matrix readers refuse a header whose ``rows*cols`` float64 values
exceed ``LSR_MEM_CAP_MB`` (``MemoryCapError``) before they allocate.
Every malformed file, a non-ASCII byte in a text file included, is a
``ValueError`` whose message names the file.
"""

import math
import os
import struct
from pathlib import Path

import numpy as np

from .kron_core import Matrix, Shape, as_matrix
from .lsr_repr import SeparatedMatrix

MAGIC = b"LSRB"
VERSION = 1
_HEADER = struct.Struct("<4sBII")

MEM_CAP_ENV = "LSR_MEM_CAP_MB"
DEFAULT_MEM_CAP_MB = 512.0


class MemoryCapError(ValueError):
    """A matrix file declares more values than ``LSR_MEM_CAP_MB`` allows."""


def mem_cap_bytes() -> float:
    """The cap in bytes; refuses a value that is not a finite MiB >= 0."""
    text = os.environ.get(MEM_CAP_ENV, str(DEFAULT_MEM_CAP_MB))
    try:
        cap = float(text)
    except ValueError:
        cap = math.nan
    if not 0 <= cap < math.inf:
        raise ValueError(f"{MEM_CAP_ENV}={text!r} is not a finite MiB >= 0")
    return cap * 2**20


def _check_mem_cap(path, rows: int, cols: int) -> None:
    if rows * cols * 8 > mem_cap_bytes():
        raise MemoryCapError(
            f"{path}: {rows}x{cols} needs {rows * cols * 8 / 2**20:g} MiB, "
            f"over the memory cap {MEM_CAP_ENV}={mem_cap_bytes() / 2**20:g}")


def write_matrix_binary(path, M) -> None:
    _write_binary(path, M)


def _write_binary(path, M, opener=None) -> None:
    # the binary format's one writer; write_separated passes _no_follow
    M = as_matrix(M, "M")
    with open(path, "wb", opener=opener) as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, *M.shape))
        fh.write(np.ascontiguousarray(M, dtype="<f8").tobytes())


def write_matrix_text(path, M) -> None:
    M = as_matrix(M, "M")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(map(repr, row.tolist())) + "\n")


def read_matrix(path) -> Matrix:
    """Read either format, sniffing the binary magic."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == MAGIC:
            rest = fh.read(_HEADER.size - 4)
            if len(rest) != _HEADER.size - 4:
                raise ValueError(f"{path}: truncated binary header")
            _, version, rows, cols = _HEADER.unpack(head + rest)
            if version != VERSION:
                raise ValueError(f"{path}: unsupported version {version}")
            payload_bytes = os.fstat(fh.fileno()).st_size - _HEADER.size
            if payload_bytes != rows * cols * 8:
                raise ValueError(
                    f"{path}: payload holds {payload_bytes // 8} values, "
                    f"header declares {rows}x{cols}")
            _check_mem_cap(path, rows, cols)
            # reshape raises ValueError if the file changed since the stat
            data = np.frombuffer(fh.read(), dtype="<f8").reshape(rows, cols)
            return as_matrix(data, str(path))
    try:
        return _read_matrix_text(path)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not ASCII text "
                         f"(byte {exc.object[exc.start]:#04x})") from exc


def _read_matrix_text(path) -> Matrix:
    with open(path, "r", encoding="ascii") as fh:
        line = fh.readline()
        header = line.split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected 'rows cols' header")
        try:
            rows, cols = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError(f"{path}: bad header {header}") from exc
        # every value takes at least one character plus a separator, so
        # the file size bounds what the header may ask to allocate
        body = os.fstat(fh.fileno()).st_size - len(line)
        if rows < 1 or cols < 1 or 2 * rows * cols - 1 > body:
            raise ValueError(f"{path}: header declares {rows}x{cols}, which "
                             f"{body} bytes of values cannot hold")
        _check_mem_cap(path, rows, cols)
        data = np.empty((rows, cols))
        for i in range(rows):
            parts = fh.readline().split()
            if len(parts) != cols:
                raise ValueError(f"{path}: row {i} has {len(parts)} values, "
                                 f"expected {cols}")
            try:
                data[i] = np.array(parts, dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from exc
        # read in bounded chunks, so a long tail is never held at once
        for tail in iter(lambda: fh.read(1 << 16), ""):
            if not tail.isspace():
                raise ValueError(f"{path}: text past the {rows} declared rows")
    return as_matrix(data, str(path))


def check_name(name: str) -> None:
    """A ``ValueError`` unless ``read_separated`` can read back the files
    ``write_separated`` names after ``name``."""
    if (not (name.isascii() and name.isprintable()) or name != name.strip()
            or "/" in name or "\\" in name):
        raise ValueError(f"name {name!r} must be printable ASCII with no "
                         f"path separator and no leading or trailing space")


def _no_follow(path, flags: int) -> int:
    # an opener for open(): a symbolic link at the target fails to open
    # (where the OS has O_NOFOLLOW), rather than being written through
    return os.open(path, flags | getattr(os, "O_NOFOLLOW", 0), 0o666)


def write_separated(S: SeparatedMatrix, directory, name: str = "decomp") -> Path:
    """Write factor files (binary) plus a manifest; returns the manifest
    path.  Factor paths inside the manifest are relative to it.  A name the
    reader could not read back (``check_name``), or a target file name
    that is a symbolic link, is a ``ValueError`` before any file is
    written; each file is opened without following a link made after that
    check (``_no_follow``)."""
    check_name(name)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = directory / f"{name}.manifest"
    rels = [[f"{name}_t{k:03d}_f{i}.lsrb" for i in range(len(S.stacks))]
            for k in range(S.separation_rank)]
    for path in (manifest, *(directory / r for term in rels for r in term)):
        if path.is_symlink():
            raise ValueError(f"{path} is a symbolic link, not written through")
    lines = [f"lsr-manifest {VERSION}",
             f"shape {S.shape.rows} {S.shape.cols}",
             f"terms {len(S.terms)}"]
    for k, term in enumerate(S.terms):
        lines += [f"term {k}", f"weight {term.weight!r}"]
        for rel, factor in zip(rels[k], term.factors):
            _write_binary(directory / rel, factor, _no_follow)
            lines.append(f"factor {rel}")
    with open(manifest, "w", encoding="ascii", opener=_no_follow) as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def read_separated(manifest_path) -> SeparatedMatrix:
    """Read a manifest written by ``write_separated``.  Every refusal,
    a factor file that cannot be opened or parsed included, is a
    ``ValueError`` (a ``MemoryCapError`` for an oversized factor) whose
    message starts with the manifest path; only a manifest that cannot be
    opened raises ``OSError``."""
    manifest_path = Path(manifest_path)
    try:
        return _read_manifest(manifest_path)
    except ValueError as exc:
        # new args rather than a new exception keep its type and traceback
        exc.args = (f"{manifest_path}: {exc}",)
        raise


def _read_manifest(manifest_path: Path) -> SeparatedMatrix:
    try:
        text = manifest_path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not ASCII text (byte {exc.object[exc.start]:#04x} "
                         f"at offset {exc.start})") from exc
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["lsr-manifest", str(VERSION)]:
        raise ValueError("not a supported manifest")

    def expect(i, key, count):
        """The ``count`` values of the line at index i, which must start
        with ``key``."""
        if i >= len(lines):
            raise ValueError(f"truncated, expected '{key}' on line {i + 1}")
        parts = lines[i].split()
        if parts[0] != key or len(parts) != count + 1:
            raise ValueError(f"expected '{key}' and {count} value(s) on line "
                             f"{i + 1}, got {lines[i]!r}")
        return parts[1:]

    rows, cols = (int(v) for v in expect(1, "shape", 2))
    n_terms = int(expect(2, "terms", 1)[0])
    if n_terms < 0:
        raise ValueError(f"negative term count {n_terms}")
    base = manifest_path.parent
    root = os.path.realpath(base)

    def read_factor(line):
        rel = line.split(maxsplit=1)[1]
        path = base / rel
        # containment on resolved path strings: symlinks are followed,
        # and a factor that resolves outside the directory is refused
        if (os.path.isabs(rel) or os.path.commonpath(
                (root, os.path.realpath(path))) != root):
            raise ValueError(f"factor path {rel!r} leaves the manifest "
                             f"directory")
        try:
            return read_matrix(path)
        except OSError as exc:
            raise ValueError(f"cannot read factor {rel!r}: "
                             f"{exc.strerror or exc}") from exc

    weights, terms = [], []
    i = 3
    for k in range(n_terms):
        if expect(i, "term", 1) != [str(k)]:
            raise ValueError(f"expected 'term {k}' on line {i + 1}, got "
                             f"{lines[i]!r}")
        weights.append(float(expect(i + 1, "weight", 1)[0]))
        i += 2
        factors = []
        while i < len(lines) and lines[i].startswith("factor "):
            factors.append(read_factor(lines[i]))
            i += 1
        # stacking by position needs term 0's factor count and shapes:
        # zip would silently drop an extra factor
        shapes = [F.shape for F in factors]
        if terms and shapes != [F.shape for F in terms[0]]:
            raise ValueError(f"term {k} has factor shapes {shapes}, but "
                             f"term 0 has {[F.shape for F in terms[0]]}")
        terms.append(factors)
    if i < len(lines):
        raise ValueError(f"unexpected line {i + 1} after the last term: "
                         f"{lines[i]!r}")
    return SeparatedMatrix(Shape(rows, cols), weights, tuple(zip(*terms)))
