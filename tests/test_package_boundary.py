"""The package holds what the CLI runs.

An AST walk of ``src/seedbank`` starts from every top-level definition in
``cli.py`` and follows the names each reached definition uses: names defined
in its own module and names bound by relative imports.  Every top-level
definition it does not reach must be on ``ALLOWLIST`` with its reason; test
references belong in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import seedbank

PACKAGE = Path(seedbank.__file__).parent

PERFBENCH = "perfbench imports it (ROADMAP item 18)"
ALLOWLIST = {
    "core_model.tail_sums": PERFBENCH,
    "diffusion_limits.SdeSpec": PERFBENCH,
    "diffusion_limits.sde_constant": PERFBENCH,
    "diffusion_limits.sample_absorption": PERFBENCH,
    "diffusion_limits.TAIL_REPLICATES": PERFBENCH,
    "errors.StepSizeInvalid": PERFBENCH,
    "manifold_reduction.theta_integral": PERFBENCH,
    "manifold_reduction.THETA_T_MAX": PERFBENCH,
    "manifold_reduction.THETA_QUAD_STEP": PERFBENCH,
    "manifold_reduction.step_exponential": PERFBENCH,
    "errors.TruncationNotConverged": PERFBENCH,
    "seedbank_flows.delta_matrix": PERFBENCH,
    "seedbank_flows.drift_second_derivative": PERFBENCH,
    "seedbank_flows.eigvecs_on_gamma": PERFBENCH,
    "diffusion_limits.slow_coefficients_vec": "item 16",
}


def top_level_definitions(tree):
    """Each name a module's top-level def, class or assignment binds, with
    the statement that binds it."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
    return defs


def relative_imports(tree):
    """Local name -> (module, name) for every ``from .module import name``
    in a module, at any depth."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module or "__init__", alias.name)
    return bound


def walk_from_cli(package):
    """(definitions, reached): every top-level definition of the package as
    "module.name", and those that the walk from ``cli.py`` reaches."""
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    defs = {module: top_level_definitions(tree) for module, tree in trees.items()}
    imports = {module: relative_imports(tree) for module, tree in trees.items()}

    def resolve(module, name):
        # through re-exports, to the module that defines the name
        while name not in defs[module]:
            if name not in imports[module]:
                return None
            module, name = imports[module][name]
        return module, name

    todo = [("cli", name) for name in defs["cli"]]
    reached = set()
    while todo:
        module, name = todo.pop()
        if f"{module}.{name}" in reached:
            continue
        reached.add(f"{module}.{name}")
        for node in ast.walk(defs[module][name]):
            if isinstance(node, ast.Name) and (found := resolve(module, node.id)):
                todo.append(found)
    everything = {f"{module}.{name}" for module, names in defs.items() for name in names}
    return everything, reached


def test_every_definition_is_reached_from_the_cli_or_allowlisted():
    everything, reached = walk_from_cli(PACKAGE)
    unreached = everything - reached
    assert sorted(unreached - ALLOWLIST.keys()) == []
    # an entry the CLI now reaches, or that no longer exists, is stale
    assert sorted(ALLOWLIST.keys() - unreached) == []


def test_walk_follows_same_module_names_and_relative_imports(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .maths import double as twice\n\ndef main():\n    return twice(1)\n")
    (tmp_path / "maths.py").write_text(
        "FACTOR = 2\n\ndef double(x):\n    return FACTOR * x\n\n"
        "def unused(x):\n    return x\n")
    everything, reached = walk_from_cli(tmp_path)
    assert everything - reached == {"maths.unused"}
