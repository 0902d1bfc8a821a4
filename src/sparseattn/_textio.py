"""The ASCII layout shared by tensor, graph, projection and centroid files.

A file is one header line of whitespace-separated non-negative integers,
led by a literal keyword in some formats, then N rows of C numbers each.
Each format's reader says how N and C follow from its header fields and
checks what is specific to it.
"""

import numpy as np

from .errors import DataError


def read_rows(path, fields, shape, keyword=None, dtype=np.float64):
    """Parse ``path``; returns (header integers, (N, C) array of ``dtype``).

    ``fields`` names the header's integer fields, ``keyword`` is the literal
    word in front of them (if any), and ``shape(*header)`` gives (N, C).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: non-ASCII byte") from None
    lines = text.splitlines()
    if not lines:
        raise DataError(f"{path}:1: empty file")
    spec = ([keyword] if keyword else []) + list(fields)
    words = lines[0].split()
    if len(words) != len(spec) or (keyword and words[0] != keyword):
        raise DataError(f"{path}:1: expected header '{' '.join(spec)}'")
    try:
        header = [int(w) for w in words[-len(fields):]]
    except ValueError:
        raise DataError(f"{path}:1: non-integer header field") from None
    if min(header) < 0:
        raise DataError(f"{path}:1: header fields must be non-negative")
    n, c = shape(*header)
    if max(n, c) * np.dtype(dtype).itemsize >= 2**63:
        raise DataError(f"{path}:1: header field too large")
    body = [line.split() for line in lines[1:]]
    if len(body) != n:
        raise DataError(f"{path}: header promises {n} rows, found {len(body)}")
    for lineno, row in enumerate(body, start=2):
        if len(row) != c:
            raise DataError(f"{path}:{lineno}: expected {c} values, found {len(row)}")
    try:
        return header, np.array(body, dtype=dtype).reshape(n, c)
    except (ValueError, OverflowError):
        for lineno, row in enumerate(body, start=2):
            try:
                np.array(row, dtype=dtype)
            except (ValueError, OverflowError):
                raise DataError(f"{path}:{lineno}: unparsable value") from None
        raise


def write_rows(path, header, rows, fmt="%.17g"):
    """Write the ``header`` words, then each row of ``rows`` formatted by ``fmt``."""
    rows = np.asarray(rows)
    line = " ".join([fmt] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(" ".join(str(word) for word in header) + "\n")
        fh.write((line * rows.shape[0]) % tuple(rows.ravel().tolist()))
