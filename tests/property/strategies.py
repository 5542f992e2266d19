"""Shared Hypothesis strategies for property-based tests.

Instances are kept deliberately small: exact chain exploration is
exponential (Theorem 5), so databases here have at most a handful of
conflicting facts.
"""

from fractions import Fraction

from hypothesis import strategies as st

from repro.constraints import ConstraintSet, key, non_symmetric
from repro.db.atoms import Atom
from repro.db.facts import Database, Fact
from repro.db.terms import Var

CONSTANTS = ("a", "b", "c", "d")


@st.composite
def binary_facts(draw, relation="R", constants=CONSTANTS):
    """A single binary fact over a tiny constant pool."""
    left = draw(st.sampled_from(constants))
    right = draw(st.sampled_from(constants))
    return Fact(relation, (left, right))


@st.composite
def small_binary_databases(
    draw, relation="R", min_size=0, max_size=5, constants=CONSTANTS
):
    """A small database over one binary relation."""
    facts = draw(
        st.lists(
            binary_facts(relation=relation, constants=constants),
            min_size=min_size,
            max_size=max_size,
        )
    )
    return Database(facts)


@st.composite
def key_violation_databases(draw, relation="R", max_keys=3, max_values=3):
    """Databases whose only possible violations are key conflicts.

    At most one conflict group may have three members — exhaustive chain
    exploration over several size-3 groups is exponential (Theorem 5!),
    so unconstrained instances routinely blow the test state budget.
    """
    n_keys = draw(st.integers(1, max_keys))
    facts = []
    allow_triple = True
    for i in range(n_keys):
        values = draw(
            st.lists(
                st.sampled_from([f"v{j}" for j in range(max_values)]),
                min_size=1,
                max_size=3 if allow_triple else 2,
                unique=True,
            )
        )
        if len(values) > 2:
            allow_triple = False
        for value in values:
            facts.append(Fact(relation, (f"k{i}", value)))
    return Database(facts)


@st.composite
def preference_databases(draw, relation="Pref", max_products=4, max_facts=6):
    """Databases over Pref with possible symmetric conflicts."""
    products = [f"p{i}" for i in range(draw(st.integers(2, max_products)))]
    facts = draw(
        st.lists(
            st.tuples(st.sampled_from(products), st.sampled_from(products)).map(
                lambda pair: Fact(relation, pair)
            ),
            max_size=max_facts,
        )
    )
    # self-loops Pref(p, p) are irreparable under the DC by single
    # deletions? They are deletable; keep them — they exercise collapsed
    # violations.
    return Database(facts)


@st.composite
def trust_maps(draw, database):
    """A trust assignment over every fact of *database*."""
    values = {}
    for fact in database.sorted_facts:
        numerator = draw(st.integers(1, 9))
        values[fact] = Fraction(numerator, 10)
    return values


def key_sigma(relation="R"):
    """Key on the first attribute of a binary relation."""
    return ConstraintSet(key(relation, 2, [0]))


def pref_sigma(relation="Pref"):
    """The non-symmetric preference DC."""
    return ConstraintSet([non_symmetric(relation)])
