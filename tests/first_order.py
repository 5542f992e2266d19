"""Query texts and their first-order reference form.

``parse_query`` lowers every conjunctive body to a ``ConjunctiveQuery``.
Tests of the first-order path, and tests that check the lowering against
it, build the first-order ``Query`` from the same text with
:func:`first_order`.
"""

from repro.db.terms import Var
from repro.queries import Exists, Query, parse_formula

#: Texts ``parse_query`` lowers, one per shape the lowering handles.
CONJUNCTIVE_TEXTS = (
    "Q(x) :- R(x, y)",  # projection
    "Q(x, x) :- R(x, y)",  # repeated head variable
    "Q(x, z) :- R(x, y) & R(y, z)",  # join
    "Q(x) :- R(x, 1)",  # integer constant
    "Q(x) :- R(x, '1')",  # string constant
    "Q(x) :- exists y (R(x, y) & exists y R(y, x))",  # shadowed exists y
    "Q(x) :- R(x, y) & exists x R(y, x)",  # exists x over a head variable
    "Q(x) :- exists z R(x, y)",  # vacuous exists z
    "Q() :- R(x, y) & R(y, x)",  # boolean
    "Q() :- R('a', 1)",  # ground body
)

#: Texts outside the conjunctive fragment: ``parse_query`` keeps them
#: first-order.
FIRST_ORDER_TEXTS = (
    "Q(x) :- R(x, y) & !R(y, x)",  # negation
    "Q(x) :- forall y (R(x, y) | x = y)",  # forall
    "Q(x) :- R(x, 'a') | R('a', x)",  # disjunction
    "Q(x) :- R(x, x) -> R(x, 'a')",  # implication
    "Q(x) :- exists y (R(x, y) & x = y)",  # equality
    "Q(x) :- exists y (R(x, y) & x != y)",  # disequality
    "Q() :- true",
    "Q(x) :- R(x, x) & false",
    "Q(x, y) :- R(x, z)",  # head variable in no atom
    "Q(x) :- exists x R(x, x)",  # the head variable is bound away
)


def first_order(text: str) -> Query:
    """``Name(x, ...) :- formula`` as ``Query(head, parse_formula(formula))``.

    Body variables missing from the head are existentially quantified,
    as ``parse_query`` does.
    """
    head_text, body = text.split(":-", 1)
    names = head_text[head_text.index("(") + 1 : head_text.rindex(")")]
    head = tuple(Var(name.strip()) for name in names.split(",") if name.strip())
    formula = parse_formula(body)
    dangling = tuple(
        sorted(formula.free_variables() - set(head), key=lambda v: v.name)
    )
    if dangling:
        formula = Exists(dangling, formula)
    return Query(head, formula)
