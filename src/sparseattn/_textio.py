"""Every encoding of the files the package reads and writes.

A matrix file (tensor, graph, projection, centroids) is one header line of
whitespace-separated non-negative integers, led by a literal keyword in
some formats, then N rows of C numbers each; each format's reader says how
N and C follow from its header fields and checks what is specific to it.
JSON files have one-space indents, sorted keys and a final newline, CSV
files the ``csv`` module's default dialect.  A malformed file is a
DataError that names it.
"""

import csv
import io
import json

import numpy as np

from .errors import DataError


def read_ascii(path):
    """The text of ``path``; a non-ASCII byte is a DataError at its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: non-ASCII byte") from None


def read_rows(path, fields, shape, keyword=None, dtype=np.float64):
    """Parse ``path``; returns (header integers, (N, C) array of ``dtype``).

    ``fields`` names the header's integer fields, ``keyword`` is the literal
    word in front of them (if any), and ``shape(*header)`` gives (N, C).
    """
    lines = read_ascii(path).splitlines()
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


def read_json(path):
    """The JSON document in ``path``; a missing file or invalid JSON is a DataError."""
    try:
        text = read_ascii(path)
    except FileNotFoundError:
        raise DataError(f"{path}: file not found") from None
    try:
        return json.loads(text)
    except ValueError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None


def write_json(path, doc):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header):
    """``(line number, row)`` of each row of ``path`` after its first, which
    must be ``header``; every row has as many fields as the header."""
    reader = csv.reader(io.StringIO(read_ascii(path), newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows or rows[0][1] != header:
        raise DataError(f"{path}:1: expected header {','.join(header)}")
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise DataError(f"{path}:{line}: expected {len(header)} fields, found {len(row)}")
    return rows[1:]


def index_entries(doc, key, path):
    """``((layer, head, instance), entry)`` for each entry of ``doc[key]``,
    the non-empty list of objects of the index file ``path``.  Layer and
    head are JSON integers, instance is one too or absent (0), and
    ``"path"`` is a string."""
    entries = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not entries or not all(isinstance(e, dict) for e in entries):
        raise DataError(f"{path}: {key!r} must be a non-empty list of objects")
    out = []
    for entry in entries:
        ids = (entry.get("layer"), entry.get("head"), entry.get("instance", 0))
        if not all(type(i) is int for i in ids):
            raise DataError(f"{path}: {key} entry {entry!r}: layer, head and instance "
                            f"must be JSON integers")
        if not isinstance(entry.get("path"), str):
            raise DataError(f"{path}: {key} entry {entry!r}: path must be a string")
        out.append((ids, entry))
    return out
