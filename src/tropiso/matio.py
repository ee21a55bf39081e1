"""Matrix file formats.

JSON is the canonical format::

    {"semiring": "min", "rows": 3, "cols": 3, "data": [[0, 1, "5/4"], ...]}

CSV holds one matrix row per line with comma-separated tokens.  In both
formats rationals are written ``p/q`` or as decimal strings (parsed with
exact decimal semantics) and Bottom is ``inf`` (min-plus) or ``-inf``
(max-plus).  Parsing round-trips values bit-exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .core import Entry, Semiring, TropMatrix, _coerce_entry, as_rational
from .errors import FormatError


def format_scalar(entry: Entry, semiring: Semiring) -> str:
    """Render an entry as a file token (exact; integers stay bare)."""
    if entry is None:
        return semiring.bottom_token
    if entry.denominator == 1:
        return str(entry.numerator)
    return f"{entry.numerator}/{entry.denominator}"


def parse_scalar(token: str, semiring: Semiring) -> Entry:
    """Inverse of :func:`format_scalar`; accepts p/q, decimals, and inf tokens."""
    return _coerce_entry(token, semiring)


def _json_scalar(entry: Entry, semiring: Semiring):
    if entry is None or entry.denominator != 1:
        return format_scalar(entry, semiring)
    return entry.numerator


def matrix_to_json_obj(A: TropMatrix) -> dict:
    return {
        "semiring": A.semiring.value,
        "rows": A.rows,
        "cols": A.cols,
        "data": [[_json_scalar(cell, A.semiring) for cell in row] for row in A.entries],
    }


def matrix_from_json_obj(obj) -> TropMatrix:
    if not isinstance(obj, dict):
        raise FormatError("matrix JSON must be an object with a 'data' field")
    try:
        mode = obj["semiring"]
        data = obj["data"]
    except KeyError as exc:
        raise FormatError(f"matrix JSON is missing field {exc}") from exc
    try:
        sr = Semiring(mode)
    except ValueError as exc:
        raise FormatError(f"unknown semiring {mode!r}") from exc
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise FormatError("'data' must be a list of rows")
    A = TropMatrix.from_rows(data, sr)
    if "rows" in obj and obj["rows"] != A.rows:
        raise FormatError(f"declared rows={obj['rows']} but data has {A.rows}")
    if "cols" in obj and obj["cols"] != A.cols:
        raise FormatError(f"declared cols={obj['cols']} but data has {A.cols}")
    return A


def dumps_matrix_json(A: TropMatrix) -> str:
    return json.dumps(matrix_to_json_obj(A), sort_keys=True)


def _parse_json(text: str):
    """The JSON value of ``text``; every parse failure becomes a FormatError."""
    try:
        # parse_float sees the literal token, so decimals stay exact
        return json.loads(text, parse_float=as_rational)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # over-long integer, deep nesting
        raise FormatError(f"unparsable JSON: {exc}") from exc


def loads_matrix_json(text: str) -> TropMatrix:
    return matrix_from_json_obj(_parse_json(text))


def matrix_to_csv(A: TropMatrix) -> str:
    return "\n".join(
        ",".join(format_scalar(cell, A.semiring) for cell in row)
        for row in A.entries
    ) + "\n"


def _csv_cells(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line.strip()]


def matrix_from_csv(text: str, semiring: Semiring) -> TropMatrix:
    rows = _csv_cells(text)
    if not rows:
        raise FormatError("empty CSV matrix")
    return TropMatrix.from_rows(rows, semiring)


def _read(path) -> tuple[bool, object]:
    """``(True, text)`` for a .csv file, else ``(False, parsed JSON)``.

    Every read, decoding and parse failure becomes a :class:`FormatError`.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {p}: {exc}") from exc
    if p.suffix.lower() == ".csv":
        return True, text
    return False, _parse_json(text)


def load_matrix(path, semiring: Semiring | None = None) -> TropMatrix:
    """Load a matrix file; format chosen by extension (.json / .csv).

    For JSON the embedded semiring wins and a conflicting ``semiring``
    argument is an error; CSV carries no metadata and requires one.
    """
    is_csv, content = _read(path)
    if is_csv:
        if semiring is None:
            raise FormatError("CSV matrices need an explicit semiring (--semiring)")
        return matrix_from_csv(content, semiring)
    A = matrix_from_json_obj(content)
    if semiring is not None and A.semiring is not semiring:
        raise FormatError(
            f"file declares semiring {A.semiring.value!r}, got {semiring.value!r}"
        )
    return A


def save_matrix(path, A: TropMatrix, fmt: str = "json") -> None:
    text = matrix_to_csv(A) if fmt == "csv" else dumps_matrix_json(A) + "\n"
    Path(path).write_text(text)


def load_plain_matrix(path) -> list[list[Fraction]]:
    """Load an ordinary (non-tropical) rational matrix.

    Accepts a bare JSON array of rows, a matrix JSON object (semiring
    ignored, Bottom forbidden), or CSV without infinity tokens.
    """
    is_csv, content = _read(path)
    if is_csv:
        content = _csv_cells(content)
    elif isinstance(content, dict):
        content = content.get("data")
    if not isinstance(content, list) or not all(isinstance(r, list) for r in content):
        raise FormatError("expected a JSON array of rows or a 'data' field")
    rows = [[as_rational(cell) for cell in row] for row in content]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise FormatError("ordinary matrix must be a nonempty rectangular grid")
    return rows
