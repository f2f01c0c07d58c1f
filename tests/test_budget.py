"""The listing budget: every route that lists an over-budget view is refused
at the view, through one guard and one error type.

The route tests call every method of ``Mapping`` and every package function
that takes a boundary on a 64-marking glued view and on a forgetful view of
2^60 entries; each call answers or raises ``ResourceGuardError`` at once.
Two glued views on one m compare and combine by their rule, so those routes
answer for the glued view and stay refused for the forgetful one.
The builders of a 2^n count (the gonal profile, the lambda families) refuse
the same way, before they enumerate.
The source tests read the package's syntax trees, so that a check at a call
site cannot come back unnoticed.
"""

import ast
import inspect
from collections import deque
from collections.abc import Iterator, Mapping, MappingView

import pytest

import effcone
from effcone import corpus, gonal, picard
from effcone.corpus import gonal_support
from effcone.gluing import forget_pullback, glue_pullback, lambda_family
from effcone.picard import (
    CurveProfile,
    DivisorClassM1n,
    DivisorClassMg,
    ResourceGuardError,
    linear_combine,
    m1n_class_to_json,
    pair,
    permute_markings,
)
from effcone.writer import write_json
from test_gluing import wall_clock_bound
from test_independence import MODULES, _parse
from texts import json_text

BUILD = {
    "glued": lambda: glue_pullback(DivisorClassMg(33, 1, 1, [1] * 16), 32),
    "forgetful": lambda: forget_pullback(DivisorClassM1n(4, 0, {3: 1}), 64),
}
CLASSES = {which: build() for which, build in BUILD.items()}
# an equal class of the same kind, built separately, by its view's type
TWINS = {type(CLASSES[which].boundary): build() for which, build in BUILD.items()}
OTHER = {"glued": "forgetful", "forgetful": "glued"}

# every method a Mapping has, from the class itself and its bases, so that
# a method a later Python adds is called too
MAPPING_METHODS = sorted(
    {name for base in Mapping.__mro__[:-1] for name, attr in vars(base).items() if inspect.isfunction(attr)}
)


def outcome(call):
    """The exception ``call`` raises within 2 s, or None when it answers;
    an iterator or a mapping view it returns is drained first."""
    with wall_clock_bound(2):
        try:
            result = call()
            if isinstance(result, (Iterator, MappingView)):
                deque(result, maxlen=0)
        except Exception as exc:  # TimeoutError included: it fails the test
            return type(exc)
    return None


# package functions and builtins that take a boundary, as calls on a class
# and a class of the other kind on the same 64 markings; the same-kind
# routes compare the class with its twin instead
ROUTES = {
    "dict": lambda cls, other: dict(cls.boundary),
    "==": lambda cls, other: cls.boundary == other.boundary,
    "!=": lambda cls, other: cls.boundary != other.boundary,
    "== same kind": lambda cls, other: cls.boundary == TWINS[type(cls.boundary)].boundary,
    "!= same kind": lambda cls, other: cls.boundary != TWINS[type(cls.boundary)].boundary,
    "repr": lambda cls, other: repr(cls),
    "DivisorClassM1n": lambda cls, other: DivisorClassM1n(64, 0, cls.boundary),
    "CurveProfile": lambda cls, other: CurveProfile(64, 0, cls.boundary),
    "linear_combine": lambda cls, other: linear_combine([(1, cls)]),
    "permute_markings": lambda cls, other: permute_markings(cls, range(1, 65)),
    "m1n_class_to_json": lambda cls, other: m1n_class_to_json(cls),
    "json_text": lambda cls, other: json_text(cls),
    "pair": lambda cls, other: pair(CurveProfile(64, 0, {3: 1}), cls),
}
# the routes that must list the whole view; the others may answer
REFUSED = {
    "dict", "==", "!=", "== same kind", "!= same kind", "DivisorClassM1n", "CurveProfile", "linear_combine",
    "permute_markings", "m1n_class_to_json", "json_text",
}
# routes of REFUSED that a glued view answers from its rule: two glued views
# on one m compare and combine by their rule slots
BY_RULE = {("glued", "== same kind"), ("glued", "!= same kind"), ("glued", "linear_combine")}


class TestListingRoutes:
    def test_the_method_list_is_not_vacuous(self):
        assert {"__eq__", "__iter__", "__len__", "get", "items", "keys", "values"} <= set(MAPPING_METHODS)

    @pytest.mark.parametrize("name", MAPPING_METHODS)
    @pytest.mark.parametrize("which", CLASSES)
    def test_mapping_method(self, which, name):
        # a method that takes arguments and is missing here fails with TypeError
        args = {"__getitem__": (3,), "get": (3,), "__contains__": (3,), "__eq__": (CLASSES[OTHER[which]].boundary,)}
        view = CLASSES[which].boundary
        assert outcome(lambda: getattr(view, name)(*args.get(name, ()))) in (None, ResourceGuardError)

    @pytest.mark.parametrize("name", ROUTES)
    @pytest.mark.parametrize("which", CLASSES)
    def test_route(self, which, name):
        call = ROUTES[name]
        found = outcome(lambda: call(CLASSES[which], CLASSES[OTHER[which]]))
        if (which, name) in BY_RULE:
            assert found is None
        elif name in REFUSED:
            assert found is ResourceGuardError
        else:
            assert found in (None, ResourceGuardError)

    def test_the_rule_routes_answer_right(self):
        cls, twin = CLASSES["glued"], TWINS[type(CLASSES["glued"].boundary)]
        with wall_clock_bound(2):
            assert cls.boundary == twin.boundary and not cls.boundary != twin.boundary
            assert linear_combine([(1, cls)]) == cls

    def test_runs_is_refused(self):
        assert outcome(lambda: CLASSES["glued"].boundary.runs(range(65))) is ResourceGuardError

    def test_a_refused_write_writes_nothing(self):
        written = []
        assert outcome(lambda: write_json(CLASSES["glued"], written.append)) is ResourceGuardError
        assert written == []

    @pytest.mark.parametrize("which", CLASSES)
    def test_the_pairing_answers(self, which):
        with wall_clock_bound(2):
            assert ROUTES["pair"](CLASSES[which], None) == CLASSES[which].coeff(3) != 0

    @pytest.mark.parametrize("which, sizing", [("glued", OverflowError), ("forgetful", MemoryError)])
    def test_sized_listings_fail_on_the_size_hint(self, which, sizing):
        # list() and sorted() ask len() for a size hint before they iterate:
        # past sys.maxsize it overflows, and 2^60 pointers cannot be allocated
        view = CLASSES[which].boundary
        for call in (lambda: list(view), lambda: sorted(view), lambda: list(view.values())):
            assert outcome(call) is sizing


def _functions(node, prefix):
    """``(name, node)`` of every function and method under ``node``, named
    ``module.Class.method``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if isinstance(child, ast.FunctionDef):
                yield name, child
            yield from _functions(child, name)


FUNCTIONS = {name: list(ast.walk(node)) for module in MODULES for name, node in _functions(_parse(module), module)}


def _named(node, name):
    return getattr(node, "id", getattr(node, "attr", None)) == name


def _with(predicate):
    """The functions with a node for which ``predicate`` holds."""
    return {name for name, nodes in FUNCTIONS.items() if any(map(predicate, nodes))}


class TestOneGuard:
    def test_one_error_type_under_every_name(self):
        assert effcone.ResourceGuardError is gonal.ResourceGuardError is picard.ResourceGuardError
        assert issubclass(ResourceGuardError, ValueError)

    @pytest.mark.parametrize("call, limit, asked", [
        (lambda: dict(CLASSES["forgetful"].boundary), picard.EXPORT_BUDGET, 1 << 60),
        (lambda: next(CLASSES["glued"].boundary.runs(range(65))), picard.EXPORT_BUDGET, (1 << 64) - 65),
        pytest.param(lambda: corpus.profile("gonal", 10), picard.EXPORT_BUDGET, 2621421, id="profile-gonal-10"),
        (lambda: glue_pullback(DivisorClassMg(34, 1, 1, [1] * 17), 33), picard.MAX_MARKINGS, 66),
        # the builders of a 2^n count refuse before they enumerate
        *(pytest.param(lambda d=d: corpus.profile("gonal", d), picard.EXPORT_BUDGET, gonal_support(d),
                       id=f"profile-gonal-{d}") for d in (12, 17)),
        pytest.param(lambda: gonal.pairing_direct(10), picard.EXPORT_BUDGET, gonal_support(10),
                     id="pairing_direct-10"),
        pytest.param(lambda: lambda_family(16, 32), picard.EXPORT_BUDGET, 601080390, id="lambda_family-16-32"),
        pytest.param(lambda: lambda_family(1, 40), picard.MAX_MARKINGS, 80, id="lambda_family-1-40"),
    ])
    def test_the_error_carries_its_limit_and_what_was_asked(self, call, limit, asked):
        with wall_clock_bound(2), pytest.raises(ResourceGuardError) as refused:
            call()
        assert (refused.value.limit, refused.value.asked) == (limit, asked)
        assert type(refused.value.limit) is int and type(refused.value.asked) is int

    def test_the_error_type_is_defined_once_in_picard(self):
        defined = [
            module
            for module in MODULES
            for node in ast.walk(_parse(module))
            if isinstance(node, ast.ClassDef) and node.name == "ResourceGuardError"
        ]
        assert defined == ["picard"]

    def test_only_the_guard_raises_on_the_budget(self):
        compares = _with(lambda n: isinstance(n, ast.Compare) and any(_named(x, "EXPORT_BUDGET") for x in ast.walk(n)))
        # _sparse_repr reads the budget only to choose not to list
        assert compares == {"picard._check_budget", "picard._sparse_repr"}
        assert compares & _with(lambda n: isinstance(n, ast.Raise)) == {"picard._check_budget"}

    def test_the_guard_is_called_by_the_views_and_the_cli_prechecks_alone(self):
        assert _with(lambda n: isinstance(n, ast.Call) and _named(n.func, "_check_budget")) == {
            "gluing.GluedBoundary.items",
            "gluing.GluedBoundary.runs",
            "gluing.ForgetfulBoundary.items",
            "cli._cmd_pullback",
            "cli._cmd_verify",
            "corpus.profile",
            "gluing.lambda_family",
        }

    def test_the_error_is_built_by_the_two_guards_alone(self):
        def builds(node):
            return isinstance(node, ast.Call) and _named(node.func, "ResourceGuardError")

        guards = ("picard._check_budget", "picard._check_n")
        assert _with(builds) == set(guards)
        # nor at module level: every build in a module lies in the two guards
        everywhere = sum(builds(n) for module in MODULES for n in ast.walk(_parse(module)))
        assert everywhere == sum(builds(n) for name in guards for n in FUNCTIONS[name]) == 2
