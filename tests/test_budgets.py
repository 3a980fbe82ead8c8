"""Every bounded routine refuses oversized work with one error type, which
carries the figure it compared with its limit, through one rule."""

import ast
import math
import pathlib

import pytest

from conftest import complete_graph, cycle_graph, er_graph, path_graph
from paper_lemmas import sauer_shelah_check
import robustiso
from robustiso import Graph, QapInstance
from robustiso.approx import approximate_qap
from robustiso.errors import BudgetExceededError
from robustiso.graphs import edit_distance_bruteforce
from robustiso.qap import ged_to_qap, qap_bruteforce
from robustiso.setsystems import neighbourhood_system, vc_dimension_exact, weak_vc_test
from robustiso.wl import k_wl_stable

K3_P3 = ged_to_qap(complete_graph(3), path_graph(3))
# VC dimension 2; the search builds 17 nonempty shattered sets
GNP10 = neighbourhood_system(er_graph(10, 0.5, 1))

CASES = {
    # n = 4 against a cap of 3
    "edit_distance_bruteforce": (
        lambda: edit_distance_bruteforce(Graph(4), Graph(4), cap=3), 4
    ),
    "qap_bruteforce": (lambda: qap_bruteforce(QapInstance(4, {}), cap=3), 4),
    # 21! colour-preserving bijections do not fit the int64 ranks
    "colour_preserving_bijections": (
        lambda: edit_distance_bruteforce(Graph(21), Graph(21), cap=21), math.factorial(21)
    ),
    # C(6, 3) = 20 subsets of the C6 ground set
    "sauer_shelah_check": (
        lambda: sauer_shelah_check(neighbourhood_system(cycle_graph(6)), 3, budget=19),
        20,
    ),
    # one threshold (0) times C(3, 2) * P(3, 2) = 18 alphas of size 2
    "weak_vc_test": (lambda: weak_vc_test(K3_P3, 1, budget=17), 18),
    # a round of 3-WL on C6 reads 6^4 = 1296 (tuple, vertex) pairs
    "k_wl_stable": (lambda: k_wl_stable(cycle_graph(6), 3, budget=6**4 - 1), 1296),
    # 3 * 3 alphas of size 1 plus C(3, 2) * P(3, 2) = 18 of size 2
    "approximate_qap": (lambda: approximate_qap(K3_P3, 1, 2, seed=1, budget=26), 27),
    # P(3, 2) = 6 images of one source set of size 2
    "approximate_qap sampled": (
        lambda: approximate_qap(K3_P3, 1, 2, seed=1, mode="sampled", budget=5), 6
    ),
    "vc_dimension_exact": (lambda: vc_dimension_exact(GNP10, budget=16), 17),
}


@pytest.mark.parametrize("name", list(CASES))
def test_budget_error_carries_what_was_counted(name):
    run, attempted = CASES[name]
    with pytest.raises(BudgetExceededError) as err:
        run()
    assert err.value.attempted == attempted


def test_vc_search_runs_within_its_node_count():
    assert vc_dimension_exact(GNP10, budget=17) == 2


def test_graph_keeps_no_derived_state():
    # a Graph is a plain value: no cached_property on the class, and no
    # module reads a per-graph adjacency attribute that could cache one
    package = pathlib.Path(robustiso.__file__).parent
    adj_reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "adj"
    ]
    assert adj_reads == []
    (graph,) = [
        node
        for node in ast.parse((package / "graphs.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and node.name == "Graph"
    ]
    decorators = [
        ast.unparse(d)
        for item in graph.body if isinstance(item, ast.FunctionDef)
        for d in item.decorator_list
    ]
    assert not any(d.endswith("cached_property") for d in decorators), decorators


def test_one_rule_constructs_every_budget_error():
    # BudgetExceededError.check raises through `cls`, so no module of the
    # package names the class as a constructor or raises it bare
    found = []
    for path in sorted(pathlib.Path(robustiso.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            target = (
                node.func if isinstance(node, ast.Call)
                else node.exc if isinstance(node, ast.Raise)
                else None
            )
            name = getattr(target, "id", getattr(target, "attr", None))
            if name == "BudgetExceededError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    with pytest.raises(BudgetExceededError, match="^3 nodes, over the limit of 2$") as err:
        BudgetExceededError.check(3, 2, "nodes")
    assert err.value.attempted == 3
    BudgetExceededError.check(2, 2, "nodes")
    BudgetExceededError.check(10**30, None, "nodes")
