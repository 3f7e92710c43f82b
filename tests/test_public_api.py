"""Orphan guards: every public definition has a caller, every dataclass field a reader.

One-integrator guard: ``plants.rk4_step`` is named only by the package's
three integrators (listed in ``RK4_USERS``), so no second copy of the
sampled-data step or of the idealized flow can come back beside them.

One-kernel guard: ``learning._lockstep`` is named only by the runners in
``KERNEL_USERS``, so no study runs lanes outside the ensemble runner that
the benchmark's hooks count; the episode runners keep the policy config at
position 7, where the hooks read it.

One-rule guard: ``COND_LIMIT`` is named only by the singularity rule
(``plants.linearizing_terms`` and its helper ``_judge_alpha``, which also
forms the condition number a ``SingularMatrixError`` reports), so no second
judgement of a singular ``alpha`` can come back beside it.  The check also
keeps out a separate ``frobenius_cond`` helper: the rule forms that number
itself.  Likewise ``STATE_BOUND`` is read only by ``learning._lockstep``, so
the kernel's one failure path is the only place a lane can fail: no runner
or study rechecks the bound on what the kernel returns.

A public module-level function or class must be named by some module of
``src/fblearn`` other than ``__init__.py`` (whose re-exports name
everything), or be listed below with the reason it stays.

A field of a dataclass in ``src/fblearn`` must be read as an attribute
somewhere in ``src/fblearn`` or ``perfbench/``, or belong to a class that is
written out whole (an instance passed to ``dataclasses.asdict``, or a
config dataclass, which ``ExperimentConfig.to_dict`` walks), or be listed
below with the reason it stays.  Reads are matched by attribute name alone,
so a field with a generic name such as ``name`` or ``t`` passes as soon as
any object's attribute of that name is read.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "fblearn"
PERFBENCH = Path(__file__).parent.parent / "perfbench"

# "module.name" -> why it stays without a caller inside the library
ALLOWED = {
    "studies.measure_disturbances": "perfbench's disturbance workload and c07",
    "studies.mc_gradient_samples": "c03 and c04",
    "studies.concentration_study": "c08; traced by perfbench (fblearn mc runs mc_sweep)",
    "studies.bias_study": "tests/test_studies.py; traced by perfbench",
    "linearize.exact_tracking_control": "c01",
    "plants.simulate_closed_loop": "c01",
    "learning.step_rng": "the per-step oracle of step_normals; traced by perfbench",
    "learning.update_params": "traced by perfbench until benchmark v2",
    "analysis.ltv_matrix": "traced by perfbench until benchmark v2",
}

# the top-level functions that may name rk4_step
RK4_USERS = {"learning._lockstep", "analysis.simulate_ideal", "plants.simulate_closed_loop"}

# the top-level functions that may name the lockstep kernel
KERNEL_USERS = {"learning.run_episodes", "learning.run_ensemble",
                "studies.mc_gradient_samples"}

# the top-level functions that may name COND_LIMIT (or frobenius_cond, were it back)
RULE_USERS = {"plants.linearizing_terms", "plants._judge_alpha"}

# "module.Class.field" -> why it stays without an attribute read
ALLOWED_FIELDS = {
    "learning.AdaptRunRecord.xi": "perfbench/child.py reads and rebuilds records by the "
                                  "field names in _RECORD_ARRAYS",
    "learning.AdaptRunRecord.baselines": "perfbench/child.py reads and rebuilds records by the "
                                         "field names in _RECORD_ARRAYS",
    "learning.AdaptRunRecord.config": "perfbench/child.py rebuilds records with config={}",
    "studies.BiasReport.slope": "written out whole: cmd_mc passes the BiasReport that "
                                "mc_sweep returns in a tuple to asdict",
    "studies.GradientStudy.scores": "c04's score-mean check",
    "studies.GradientStudy.target": "c03's bias check against the idealized mean",
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


def _dataclass_fields(trees):
    """``{"module.Class": [field, ...]}`` for every dataclass of the library."""
    out = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    (d.func if isinstance(d, ast.Call) else d).id == "dataclass"
                    for d in node.decorator_list):
                out[f"{module}.{node.name}"] = [stmt.target.id for stmt in node.body
                                                if isinstance(stmt, ast.AnnAssign)]
    return out


def _serialized_whole(trees, classes):
    """Config dataclasses, and the classes of values passed to ``asdict``.

    A value is traced to its class when it is assigned, in the function that
    serializes it, from a call to a library function annotated to return it.
    """
    module_of = {name.split(".")[1]: name.split(".")[0] for name in classes}
    returns = {node.name: node.returns.id for tree in trees.values() for node in tree.body
               if isinstance(node, ast.FunctionDef) and isinstance(node.returns, ast.Name)}
    whole = {name for name in classes if name.startswith("config.")}
    for tree in trees.values():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            made = {target.id: returns.get(node.value.func.id)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    for target in node.targets if isinstance(target, ast.Name)}
            for call in ast.walk(func):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "asdict" and isinstance(call.args[0], ast.Name)
                        and made.get(call.args[0].id) in module_of):
                    cls = made[call.args[0].id]
                    whole.add(f"{module_of[cls]}.{cls}")
    return whole


def test_every_dataclass_field_is_read_serialized_or_allowed():
    trees = _trees()
    readers = list(trees.values()) + [ast.parse(path.read_text())
                                      for path in sorted(PERFBENCH.glob("*.py"))]
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    classes = _dataclass_fields(trees)
    whole = _serialized_whole(trees, classes)
    unread = [f"{cls}.{name}" for cls, names in classes.items() if cls not in whole
              for name in names if name not in read and f"{cls}.{name}" not in ALLOWED_FIELDS]
    assert unread == []


def test_field_allow_list_names_fields_that_exist():
    classes = _dataclass_fields(_trees())
    assert all(name.rsplit(".", 1)[1] in classes.get(name.rsplit(".", 1)[0], ())
               for name in ALLOWED_FIELDS)


def _users(name):
    """The top-level definitions that read ``name`` (as a name or an attribute)."""
    return {f"{module}.{getattr(node, 'name', '<module>')}"
            for module, tree in _trees().items() for node in tree.body
            for ref in ast.walk(node)
            if (isinstance(ref, ast.Name) and ref.id == name and isinstance(ref.ctx, ast.Load))
            or (isinstance(ref, ast.Attribute) and ref.attr == name)}


def test_rk4_step_is_named_only_by_the_three_integrators():
    assert _users("rk4_step") <= RK4_USERS


def test_singularity_rule_is_named_only_by_linearizing_terms_and_its_helper():
    assert _users("COND_LIMIT") | _users("frobenius_cond") <= RULE_USERS


def test_state_bound_is_read_only_by_the_kernel():
    assert _users("STATE_BOUND") == {"learning._lockstep"}


def test_lockstep_is_named_only_by_the_runners():
    assert _users("_lockstep") <= KERNEL_USERS


def test_runners_take_the_policy_config_at_position_7():
    import inspect

    from fblearn.learning import run_ensemble, run_episode, run_episodes
    for runner in (run_episode, run_episodes, run_ensemble):
        assert list(inspect.signature(runner).parameters)[7] == "cfg", runner.__name__
