"""Plain-text matrix files and CSV tables shared by the command-line tools.

Matrix format: first line ``rows cols``, then one whitespace-separated
row per line, written with 17 significant digits so a write/read round
trip is exact in double precision.
"""

from dataclasses import fields

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix

__all__ = ["write_matrix", "read_matrix", "format_value", "write_table"]


def write_matrix(path, M):
    """Write ``M`` to ``path`` in the shared text format."""
    A = as_matrix(M, "M")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{A.shape[0]} {A.shape[1]}\n")
        for row in A:
            fh.write(" ".join(f"{x:.17g}" for x in row))
            fh.write("\n")


def format_value(name, value):
    """The text of a table value: empty for None, 17 significant digits for a
    float (3 decimals for ``wall_ms``), ``str`` for anything else."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}" if name == "wall_ms" else f"{value:.17g}"
    return str(value)


def write_table(fh, row_type, rows):
    """Write ``rows`` of the dataclass ``row_type`` as CSV: every table's writer.

    The header is the field names, or a field's ``column`` metadata where
    it has one; each value is written by :func:`format_value`.
    """
    names = [(f.name, f.metadata.get("column", f.name)) for f in fields(row_type)]
    fh.write(",".join(column for _, column in names) + "\n")
    for row in rows:
        fh.write(",".join(format_value(n, getattr(row, n)) for n, _ in names) + "\n")


def _read_text(path, encoding):
    """The text of the file at ``path``, decoded as ``encoding``.

    A file that cannot be read raises ``InvalidInputError`` naming it, and a
    byte that does not decode names its line too.
    """
    try:
        with open(path, "r", encoding=encoding) as fh:
            return fh.read()
    except OSError as err:
        raise InvalidInputError(f"{path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        # read() decodes the whole file at once, so err.object is all of it.
        line = err.object.count(b"\n", 0, err.start) + 1
        byte = err.object[err.start]
        raise InvalidInputError(
            f"{path}:{line}: byte {byte:#04x} is not {encoding} text"
        ) from None


def read_matrix(path):
    """Read a matrix written by :func:`write_matrix`.

    Raises ``InvalidInputError`` with the offending line number on any
    malformed content.
    """
    lines = _read_text(path, "ascii").splitlines()
    if not lines:
        raise InvalidInputError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise InvalidInputError(f"{path}:1: expected 'rows cols', got {lines[0]!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        raise InvalidInputError(f"{path}:1: expected integer 'rows cols'") from None
    if rows < 1 or cols < 1:
        raise InvalidInputError(f"{path}:1: non-positive dimensions {rows}x{cols}")
    # Each data row with its line number in the file, blank lines skipped.
    body = [(i, ln) for i, ln in enumerate(lines[1:], 2) if ln.strip()]
    if len(body) != rows:
        raise InvalidInputError(f"{path}: expected {rows} data rows, found {len(body)}")
    out = np.empty((rows, cols), dtype=np.float64)
    for row, (i, ln) in zip(out, body):
        parts = ln.split()
        if len(parts) != cols:
            raise InvalidInputError(
                f"{path}:{i}: expected {cols} values, found {len(parts)}"
            )
        try:
            row[:] = [float(p) for p in parts]
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{i}: {exc}") from None
        if not np.isfinite(row).all():
            raise InvalidInputError(f"{path}:{i}: non-finite entries")
    return out
