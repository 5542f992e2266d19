"""Abstract syntax of first-order formulas.

Formulas are immutable value objects.  Free variables are computed
structurally; evaluation (active-domain semantics) lives in
:mod:`repro.queries.eval`.  ``str`` is the paper's notation, which
prints constants bare (``R(x, 1)`` for both ``1`` and ``'1'``), so it
is display text only; the dataclass ``repr`` is structural and is what
identity keys hash.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.db.atoms import Atom
from repro.db.terms import Term, Var, is_var, term_str


class Formula(ABC):
    """Base class of all first-order formulas."""

    @abstractmethod
    def free_variables(self) -> FrozenSet[Var]:
        """The free variables of the formula."""

    @abstractmethod
    def constants(self) -> FrozenSet[Term]:
        """All constants mentioned anywhere in the formula."""

    @abstractmethod
    def __str__(self) -> str:
        ...

    # Operator sugar --------------------------------------------------
    def __and__(self, other: "Formula") -> "And":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class AtomFormula(Formula):
    """A relational atom ``R(t1, ..., tn)`` used as a formula."""

    atom: Atom

    def free_variables(self) -> FrozenSet[Var]:
        return self.atom.variables

    def constants(self) -> FrozenSet[Term]:
        return self.atom.constants

    def __str__(self) -> str:
        return str(self.atom)


@dataclass(frozen=True)
class Equality(Formula):
    """``left = right`` over terms."""

    left: Term
    right: Term

    def free_variables(self) -> FrozenSet[Var]:
        return frozenset(t for t in (self.left, self.right) if is_var(t))

    def constants(self) -> FrozenSet[Term]:
        return frozenset(t for t in (self.left, self.right) if not is_var(t))

    def __str__(self) -> str:
        return f"{term_str(self.left)} = {term_str(self.right)}"


@dataclass(frozen=True)
class Not(Formula):
    """Negation."""

    operand: Formula

    def free_variables(self) -> FrozenSet[Var]:
        return self.operand.free_variables()

    def constants(self) -> FrozenSet[Term]:
        return self.operand.constants()

    def __str__(self) -> str:
        return f"!({self.operand})"


@dataclass(frozen=True)
class And(Formula):
    """Conjunction of one or more formulas."""

    operands: Tuple[Formula, ...]

    def __post_init__(self) -> None:
        if not self.operands:
            raise ValueError("And needs at least one operand")

    def free_variables(self) -> FrozenSet[Var]:
        out: frozenset = frozenset()
        for op in self.operands:
            out |= op.free_variables()
        return out

    def constants(self) -> FrozenSet[Term]:
        out: frozenset = frozenset()
        for op in self.operands:
            out |= op.constants()
        return out

    def __str__(self) -> str:
        return "(" + " & ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction of one or more formulas."""

    operands: Tuple[Formula, ...]

    def __post_init__(self) -> None:
        if not self.operands:
            raise ValueError("Or needs at least one operand")

    def free_variables(self) -> FrozenSet[Var]:
        out: frozenset = frozenset()
        for op in self.operands:
            out |= op.free_variables()
        return out

    def constants(self) -> FrozenSet[Term]:
        out: frozenset = frozenset()
        for op in self.operands:
            out |= op.constants()
        return out

    def __str__(self) -> str:
        return "(" + " | ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Implies(Formula):
    """Material implication ``premise -> conclusion``."""

    premise: Formula
    conclusion: Formula

    def free_variables(self) -> FrozenSet[Var]:
        return self.premise.free_variables() | self.conclusion.free_variables()

    def constants(self) -> FrozenSet[Term]:
        return self.premise.constants() | self.conclusion.constants()

    def __str__(self) -> str:
        return f"({self.premise} -> {self.conclusion})"


@dataclass(frozen=True)
class Exists(Formula):
    """Existential quantification over one or more variables."""

    variables: Tuple[Var, ...]
    operand: Formula

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("Exists needs at least one variable")

    def free_variables(self) -> FrozenSet[Var]:
        return self.operand.free_variables() - frozenset(self.variables)

    def constants(self) -> FrozenSet[Term]:
        return self.operand.constants()

    def __str__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"exists {names} ({self.operand})"


@dataclass(frozen=True)
class Forall(Formula):
    """Universal quantification over one or more variables."""

    variables: Tuple[Var, ...]
    operand: Formula

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("Forall needs at least one variable")

    def free_variables(self) -> FrozenSet[Var]:
        return self.operand.free_variables() - frozenset(self.variables)

    def constants(self) -> FrozenSet[Term]:
        return self.operand.constants()

    def __str__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"forall {names} ({self.operand})"


@dataclass(frozen=True)
class TrueFormula(Formula):
    """The constant ``true``."""

    def free_variables(self) -> FrozenSet[Var]:
        return frozenset()

    def constants(self) -> FrozenSet[Term]:
        return frozenset()

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseFormula(Formula):
    """The constant ``false``."""

    def free_variables(self) -> FrozenSet[Var]:
        return frozenset()

    def constants(self) -> FrozenSet[Term]:
        return frozenset()

    def __str__(self) -> str:
        return "false"
