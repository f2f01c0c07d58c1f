"""The independent routes stay independent of the code they check.

The hand-entered golden expansions, the binomial and closed-form gonal
routes and the Riemann-Roch route to the Hodge degree are evidence only as
long as none of them is derived from the route it is compared with.  These
tests read the package source: calls are followed transitively through the
package's top-level functions and classes.
"""

import ast
from pathlib import Path

import pytest

import effcone

PACKAGE = Path(effcone.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def _parse(module):
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reference_graph():
    """Map ``module.name`` of every top-level function and class to the
    package names its body refers to: ``module.name`` for a definition,
    the bare module name for a module used as a value."""
    graph = {}
    for module in MODULES:
        tree = _parse(module)
        local = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = f"{node.module}.{alias.name}" if node.module else alias.name
                    local[alias.asname or alias.name] = target
        defs = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        local.update({d.name: f"{module}.{d.name}" for d in defs})
        for d in defs:
            refs = set()
            for node in ast.walk(d):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if local.get(node.value.id) in MODULES:
                        refs.add(f"{local[node.value.id]}.{node.attr}")
                if isinstance(node, ast.Name) and node.id in local:
                    refs.add(local[node.id])
            graph[f"{module}.{d.name}"] = refs
    return graph


GRAPH = _reference_graph()


def reach(start):
    """Every package name reachable from ``start``, itself excluded."""
    seen, todo = set(), list(GRAPH[start])
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(GRAPH.get(name, ()))
    return seen


def _local_closure(function, variable):
    """Local names the assignment of ``variable`` inside ``function`` is
    computed from, followed back through the function's own assignments."""
    tree = _parse(function.split(".")[0])
    (body,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function.split(".")[1]]
    sources = {}
    for node in ast.walk(body):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    sources[target.id] = {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
    seen, todo = set(), list(sources[variable])
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(sources.get(name, ()))
    return seen


GONAL_CHECKED = {"picard.pair", "gluing.glue_pullback", "corpus.profile"}


class TestGonalRoutes:
    @pytest.mark.parametrize(
        "route", ["gonal.pairing_binomial", "gonal.pairing_closed", "gonal.even_subset_sum"]
    )
    def test_route_reaches_no_pairing_of_the_pullback(self, route):
        assert reach(route) & GONAL_CHECKED == set()

    def test_the_direct_route_is_seen_to_reach_them(self):
        # the walk is not vacuous: the route under check is found through it
        assert GONAL_CHECKED <= reach("gonal.pairing_direct")


class TestGoldenExpansions:
    @pytest.mark.parametrize("name", ["corpus.golden_pullback", "corpus._glued_block_count"])
    def test_uses_nothing_from_gluing(self, name):
        used = {r for r in reach(name) if r == "gluing" or r.startswith("gluing.")}
        assert used == set()

    def test_the_comparison_is_seen_to_use_gluing(self):
        assert "gluing.glue_pullback" in reach("cli._golden_match")


class TestHodgeRoutes:
    NOETHER_ROUTE = {"kd_squared", "c2_td"}

    def test_riemann_roch_route_skips_the_noether_inputs(self):
        assert _local_closure("chow.family_invariants", "hodge_lambda_rr") & self.NOETHER_ROUTE == set()

    def test_the_noether_route_is_seen_to_use_them(self):
        assert self.NOETHER_ROUTE <= _local_closure("chow.family_invariants", "hodge_lambda")


class TestLambdaFamily:
    # both refuse an over-budget enumeration through the one guard, counted
    # with binom (math.comb); neither reads a coefficient rule
    BUDGET = {"picard._check_budget", "scalars.binom"} | reach("picard._check_budget")

    def test_reaches_nothing_of_the_glued_view(self):
        glued = {"gluing.GluedBoundary"} | reach("gluing.GluedBoundary")
        assert reach("gluing.lambda_family") & glued <= self.BUDGET
        assert self.BUDGET == {"picard._check_budget", "picard.ResourceGuardError", "scalars.binom"}

    def test_the_row_is_seen_to_use_both(self):
        # the walk is not vacuous: the property suite compares the two
        assert {"gluing.GluedBoundary", "gluing.lambda_family"} <= reach("cli.property_suite")
