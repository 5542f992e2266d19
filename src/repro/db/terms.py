"""Terms: variables and constants.

A term is either a :class:`Var` or a constant.  Constants are plain,
hashable Python values (strings or integers in practice); anything that is
not a :class:`Var` is treated as a constant.  This mirrors the paper's
countably infinite, disjoint sets ``C`` (constants) and ``V`` (variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Union


@dataclass(frozen=True, order=True)
class Var:
    """A first-order variable, identified by its name.

    Two variables with the same name are the same variable.  Variables sort
    lexicographically by name, which gives deterministic iteration orders
    throughout the library.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __str__(self) -> str:
        return self.name


#: A term is a variable or a constant.
Term = Union[Var, Hashable]


def is_var(term: Term) -> bool:
    """Return ``True`` iff *term* is a variable."""
    return isinstance(term, Var)


def is_constant(term: Term) -> bool:
    """Return ``True`` iff *term* is a constant (i.e. not a variable)."""
    return not isinstance(term, Var)


def term_str(term: Term) -> str:
    """Render a term the way the paper writes it: bare names for both
    variables and constants."""
    if isinstance(term, Var):
        return term.name
    return str(term)
