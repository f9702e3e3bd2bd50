"""Exception hierarchy shared by the panqa modules.

The CLI maps InputError to exit code 2 and DegeneracyError to exit code 3.
named() is the one rule that blames an error on the input it came from.
"""

import json
import numbers
from contextlib import contextmanager


class PanqaError(Exception):
    """Base class for all panqa errors."""


class InputError(PanqaError):
    """Invalid input: bad files, shape mismatches, out-of-range arguments."""


class DegeneracyError(PanqaError):
    """Numeric degeneracy: zero variance, empty support, rank deficiency."""


@contextmanager
def named(prefix: str):
    """Re-raises a PanqaError or OSError raised inside as the same type,
    its message prefix followed by the original's, chained from it."""
    try:
        yield
    except (PanqaError, OSError) as exc:
        raise type(exc)(f"{prefix}{exc}") from exc


def checked(kind, value, key: str):
    """value as a kind (int or float) number. A string, a boolean, for
    int a number with a fraction (4.5, not 4.0), or for float an integer
    too large for one raises InputError naming key."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or (kind is int and value % 1 != 0)):
        raise InputError(f"wrong type for {key}: {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise InputError(
            f"out of range for {key}: an integer too large for a float"
        ) from None


def checked_list(kind, values, key: str) -> list:
    """checked() of each item of a list or tuple."""
    if not isinstance(values, (list, tuple)):
        raise InputError(f"wrong type for {key}: {values!r}")
    return [checked(kind, v, key) for v in values]


def require_keys(doc, keys, what: str, allowed=()) -> None:
    """doc must be a JSON object with every key of keys, others in allowed."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object")
    for key in keys:
        if key not in doc:
            raise InputError(f"{what} is missing key {key!r}")
    unknown = set(doc).difference(keys, allowed)
    if unknown:
        raise InputError(f"{what} has unknown keys {sorted(unknown)}")


def read_json(path, what: str):
    """The JSON document in the file at path; one that does not decode
    raises InputError naming what it is and the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InputError(f"malformed {what} {path}: {exc}") from None
