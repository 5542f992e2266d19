"""Parser for first-order formulas and queries.

Syntax (binding strength, loosest first): ``->`` (right associative),
``|`` / ``or``, ``&`` / ``and``, ``!`` / ``not``, quantifiers
(``exists x, y ...`` / ``forall x ...``, scoping as far right as
possible), atoms ``R(x, 'a')``, equalities ``x = y`` / ``x != y``, and the
constants ``true`` / ``false``.  Example — the paper's "most preferred
product" query (Example 7)::

    Q(x) :- forall y (Pref(x, y) | x = y)

Bare identifiers are variables; quoted strings and integers are constants.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.db.atoms import Atom
from repro.db.terms import Term, Var, is_var
from repro.parsing import ParseError, Token, TokenStream, parse_term_token
from repro.queries.ast import (
    And,
    AtomFormula,
    Equality,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    TrueFormula,
)
from repro.queries.cq import ConjunctiveQuery
from repro.queries.query import Query

_TERM_KINDS = ("IDENT", "STRING", "NUMBER")


def parse_formula(text: str) -> Formula:
    """Parse a first-order formula from text."""
    stream = TokenStream(text)
    formula = _parse_implication(stream)
    stream.expect_end()
    return formula


def _parse_implication(stream: TokenStream) -> Formula:
    left = _parse_disjunction(stream)
    if stream.accept("ARROW") or stream.accept("IMPLIES"):
        right = _parse_implication(stream)
        return Implies(left, right)
    return left


def _parse_disjunction(stream: TokenStream) -> Formula:
    operands = [_parse_conjunction(stream)]
    while stream.accept("OR"):
        operands.append(_parse_conjunction(stream))
    return operands[0] if len(operands) == 1 else Or(tuple(operands))


def _parse_conjunction(stream: TokenStream) -> Formula:
    operands = [_parse_unary(stream)]
    while stream.accept("AND"):
        operands.append(_parse_unary(stream))
    return operands[0] if len(operands) == 1 else And(tuple(operands))


def _parse_unary(stream: TokenStream) -> Formula:
    if stream.accept("NOT"):
        return Not(_parse_unary(stream))
    token = stream.peek()
    if token is not None and token.kind in ("EXISTS", "FORALL"):
        stream.next()
        variables = _parse_quantified_variables(stream)
        operand = _parse_implication(stream)
        if token.kind == "EXISTS":
            return Exists(variables, operand)
        return Forall(variables, operand)
    return _parse_atomic(stream)


def _parse_quantified_variables(stream: TokenStream) -> Tuple[Var, ...]:
    """Variables after ``exists``/``forall``.

    ``exists y, z (phi)`` is disambiguated from an atom start using the
    paper's capitalization convention: relation names start uppercase, so
    a lowercase ``IDENT (`` is a quantified variable followed by a
    parenthesised formula, not an atom.
    """
    variables = [Var(stream.expect("IDENT").value)]
    while True:
        mark = stream.index
        if stream.accept("COMMA"):
            token = stream.peek()
            follow = (
                stream.tokens[stream.index + 1].kind
                if stream.index + 1 < len(stream.tokens)
                else None
            )
            looks_like_atom = (
                token is not None
                and token.kind == "IDENT"
                and follow == "LPAREN"
                and token.value[:1].isupper()
            )
            if token is not None and token.kind == "IDENT" and not looks_like_atom:
                variables.append(Var(stream.expect("IDENT").value))
                continue
        stream.index = mark
        break
    return tuple(variables)


def _parse_atomic(stream: TokenStream) -> Formula:
    token = stream.peek()
    if token is None:
        raise ParseError("unexpected end of formula", stream.text, len(stream.text))
    if token.kind == "LPAREN":
        stream.next()
        inner = _parse_implication(stream)
        stream.expect("RPAREN")
        return inner
    if token.kind == "TRUE":
        stream.next()
        return TrueFormula()
    if token.kind == "FALSE" or token.kind == "BOTTOM":
        stream.next()
        return FalseFormula()
    if token.kind == "IDENT":
        follow = (
            stream.tokens[stream.index + 1].kind
            if stream.index + 1 < len(stream.tokens)
            else None
        )
        if follow == "LPAREN":
            return AtomFormula(_parse_atom(stream))
    if token.kind in _TERM_KINDS:
        left = parse_term_token(stream.next())
        if stream.accept("EQ"):
            right = parse_term_token(stream.next())
            return Equality(left, right)
        if stream.accept("NEQ"):
            right = parse_term_token(stream.next())
            return Not(Equality(left, right))
        raise ParseError("expected '=' or '!=' after term", stream.text, token.pos)
    raise ParseError(f"unexpected token {token.value!r}", stream.text, token.pos)


def _parse_atom(stream: TokenStream) -> Atom:
    name = stream.expect("IDENT")
    stream.expect("LPAREN")
    terms: List[Term] = []
    while True:
        terms.append(parse_term_token(stream.next()))
        if stream.accept("COMMA"):
            continue
        stream.expect("RPAREN")
        break
    return Atom(name.value, tuple(terms))


def _parse_query_head(stream: TokenStream) -> Tuple[str, Tuple[Var, ...]]:
    name = "Q"
    token = stream.peek()
    if token is not None and token.kind == "IDENT":
        name = stream.next().value
    stream.expect("LPAREN")
    variables: List[Var] = []
    if not stream.accept("RPAREN"):
        while True:
            variables.append(Var(stream.expect("IDENT").value))
            if stream.accept("COMMA"):
                continue
            stream.expect("RPAREN")
            break
    return name, tuple(variables)


def parse_query(text: str) -> Union[Query, ConjunctiveQuery]:
    """Parse ``Name(x, y) :- formula`` into a query.

    The head name is optional (``(x) :- ...``) and ``:=`` is accepted in
    place of ``:-``.  A boolean query has an empty head: ``Q() :- ...``.
    Free variables of the body that do not appear in the head are
    existentially quantified, as in Datalog: ``Q(y) :- R(x, y)`` means
    ``{y | exists x R(x, y)}``.

    A conjunctive body (atoms under ``&`` / ``exists``, every head
    variable in an atom) comes back as a :class:`ConjunctiveQuery`
    (:meth:`ConjunctiveQuery.from_query`); anything else as a
    first-order :class:`Query`.
    """
    stream = TokenStream(text)
    name, head = _parse_query_head(stream)
    stream.expect("DEFINE")
    formula = _parse_implication(stream)
    stream.expect_end()
    dangling = tuple(
        sorted(formula.free_variables() - frozenset(head), key=lambda v: v.name)
    )
    if dangling:
        formula = Exists(dangling, formula)
    query = Query(head, formula, name=name)
    return ConjunctiveQuery.from_query(query) or query


def parse_cq(text: str) -> ConjunctiveQuery:
    """Parse ``Name(x, y) :- R(x, z), S(z, y)`` into a :class:`ConjunctiveQuery`."""
    stream = TokenStream(text)
    name = "Q"
    token = stream.peek()
    if token is not None and token.kind == "IDENT":
        name = stream.next().value
    stream.expect("LPAREN")
    head: List[Term] = []
    if not stream.accept("RPAREN"):
        while True:
            head.append(parse_term_token(stream.next()))
            if stream.accept("COMMA"):
                continue
            stream.expect("RPAREN")
            break
    stream.expect("DEFINE")
    body = [_parse_atom(stream)]
    while stream.accept("COMMA"):
        body.append(_parse_atom(stream))
    stream.expect_end()
    return ConjunctiveQuery(tuple(head), tuple(body), name=name)
