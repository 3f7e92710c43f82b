"""Orphan guard: every public function and class of the library has a caller.

A public module-level function or class must be named by some module of
``src/fblearn`` other than ``__init__.py`` (whose re-exports name
everything), or be listed below with the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "fblearn"

# "module.name" -> why it stays without a caller inside the library
ALLOWED = {
    "studies.measure_disturbances": "perfbench's disturbance workload and c07",
    "studies.mc_gradient_samples": "c03 and c04",
    "linearize.exact_tracking_control": "c01",
    "plants.simulate_closed_loop": "c01",
    "learning.step_rng": "the per-step oracle of step_normals; traced by perfbench",
    "learning.update_params": "traced by perfbench until benchmark v2",
    "analysis.ltv_matrix": "traced by perfbench until benchmark v2",
}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _public_definitions(trees):
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{module}.{node.name}"


def _named(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_definition_has_a_caller_or_a_reason():
    trees = _trees()
    named = set().union(*(_named(tree) for module, tree in trees.items()
                          if module != "__init__"))
    orphans = [name for name in _public_definitions(trees)
               if name.split(".")[1] not in named and name not in ALLOWED]
    assert orphans == []


def test_allow_list_names_only_orphans_that_exist():
    trees = _trees()
    defined = set(_public_definitions(trees))
    assert set(ALLOWED) <= defined
    named = set().union(*(_named(tree) for module, tree in trees.items()
                          if module != "__init__"))
    assert not any(name.split(".")[1] in named for name in ALLOWED)
