"""Exception hierarchy shared by the panqa modules.

The CLI maps InputError to exit code 2 and DegeneracyError to exit code 3.
"""

import json


class PanqaError(Exception):
    """Base class for all panqa errors."""


class InputError(PanqaError):
    """Invalid input: bad files, shape mismatches, out-of-range arguments."""


class DegeneracyError(PanqaError):
    """Numeric degeneracy: zero variance, empty support, rank deficiency."""


def checked(convert, value, key: str):
    """convert(value); a value of the wrong type raises InputError naming
    key."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise InputError(f"wrong type for {key}: {value!r}") from None


def read_json(path, what: str):
    """The JSON document in the file at path; one that does not decode
    raises InputError naming what it is and the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InputError(f"malformed {what} {path}: {exc}") from None
