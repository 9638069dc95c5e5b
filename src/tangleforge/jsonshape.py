"""Shape checks for JSON inputs. Each raises InputError naming what is
wrong, and the list checks return their value unchanged, so a loader never
meets a value of the wrong type further in."""

from __future__ import annotations

from .errors import InputError


def require(ok: bool, message: str) -> None:
    if not ok:
        raise InputError(message)


def scalars(values, what: str) -> list:
    """values, checked to be a JSON list of distinct scalars."""
    require(
        isinstance(values, list)
        and not any(isinstance(v, (list, dict)) for v in values)
        and len(set(values)) == len(values),
        f"{what} must be a list of distinct scalars",
    )
    return values


def members(values, allowed: set, what: str) -> list:
    """values, checked to be a JSON list of members of `allowed`."""
    require(
        isinstance(values, list) and all(_is_in(v, allowed) for v in values),
        f"{what} must be a list of known elements",
    )
    return values


def rows(values, columns: tuple, what: str) -> list:
    """values, checked to be a JSON list of lists whose i-th entry lies in
    columns[i]."""
    require(
        isinstance(values, list)
        and all(
            isinstance(r, list) and len(r) == len(columns) and all(map(_is_in, r, columns))
            for r in values
        ),
        f"{what} must be a list of {len(columns)}-entry lists of known elements",
    )
    return values


def _is_in(value, allowed: set) -> bool:
    return not isinstance(value, (list, dict)) and value in allowed
