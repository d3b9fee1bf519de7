"""The route rule: the routes that check one another share no code.

``verify`` checks the kernel recursion against the composition sum and the
determinant, the coefficients against their own recursion, the scaled
numbers against the two oracles, and g against its brute force;
``zeta_direct`` is the tests' reference for the evaluators.  A check is
only as independent as its two routes, so no two routes may reach the same
function, class member or module-level value of the package or of a
library, apart from ``SHARED``.  The walk follows what a call names: bare
names, ``module.name`` and members of ``CLASSES`` read through an instance;
not a dunder that an operator such as ``in`` or ``len`` calls.
"""

import ast
import itertools
from pathlib import Path

import bekernels

PACKAGE = Path(bekernels.__file__).parent

# Each route by its entries.  The recursion carries the scalings that verify
# compares with the other routes.
ROUTES = {
    "recursion": (
        "kernels.kernel_recursive", "sequences.a_from_kb", "sequences.bernoulli",
        "sequences.euler", "sequences.g_closed",
    ),
    "determinant": ("kernels.determinant_rows",),
    "compositions": ("kernels.kernel_compositions",),
    "coefficient recursion": ("sequences.a_recursive_rows",),
    "g brute force": ("sequences.g_bruteforce",),
    "tangent oracle": ("oracles.bernoulli_evens",),
    "Seidel oracle": ("oracles.euler_evens",),
    "zeta_direct": ("specfun.zeta_direct",),
}
# What two routes may both read: the standard library's exact arithmetic,
# and the kinds as identities.
SHARED_MODULES = ("math", "itertools")
SHARED = {"fractions.Fraction", "kernels.KernelKind.BERNOULLI", "kernels.KernelKind.EULER"}
# The package's classes, whose members a route reaches through an instance.
CLASSES = ("kernels.KernelKind", "kernels.KernelCache")


def _walk(nodes):
    """The nodes under ``nodes``, without annotations, which run no code."""
    todo = list(nodes)
    while todo:
        node = todo.pop()
        yield node
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                todo.extend(v for v in (value if isinstance(value, list) else [value])
                            if isinstance(v, ast.AST))


def _index():
    """(bindings, code, members) of the package's modules.

    bindings: module -> {module-level name: qualified name, such as
    "kernels._fill_block" or "math.perm"}; code: qualified name -> (module,
    the nodes a read of it runs); members: attribute -> the qualified
    members of ``CLASSES`` by that name.
    """
    bindings, code, members = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        names = bindings[module] = {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    names[bound] = alias.name if alias.asname else bound
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:  # "from . import m" binds m to "m"
                    names[alias.asname or alias.name] = f"{node.module or ''}.{alias.name}".lstrip(".")
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                qualified = names[node.name] = f"{module}.{node.name}"
                if isinstance(node, ast.FunctionDef):
                    code[qualified] = (module, node.body)
                    continue
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        code[f"{qualified}.{item.name}"] = (module, item.body)
                        attributes = [item.name] + [
                            t.attr for t in _walk(item.body)
                            if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                            and isinstance(t.value, ast.Name) and t.value.id == "self"
                        ]
                    else:
                        attributes = [t.id for t in _walk([item]) if isinstance(t, ast.Name)
                                      and isinstance(t.ctx, ast.Store)]
                    if qualified in CLASSES:
                        for attribute in attributes:
                            members.setdefault(attribute, set()).add(f"{qualified}.{attribute}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        names[target.id] = f"{module}.{target.id}"
                        code[names[target.id]] = (module, [node.value])

    def resolve(qualified):
        # A name one module imports from another: the name that module binds it to.
        module, _, name = qualified.partition(".")
        bound = bindings.get(module, {}).get(name, qualified)
        return qualified if bound == qualified else resolve(bound)

    for names in bindings.values():
        names.update((name, resolve(qualified)) for name, qualified in names.items())
    return bindings, code, members


def _reads(names, nodes, members):
    """The qualified names that ``nodes`` read: bare names, ``module.name`` and members."""
    bases = set()  # names read as the base of an attribute
    for node in _walk(nodes):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in names:
                bases.add(node.value)
                yield f"{names[node.value.id]}.{node.attr}"
            else:
                yield from members.get(node.attr, ())
        elif isinstance(node, ast.Name) and node.id in names and node not in bases:
            yield names[node.id]


def _reach(entries, index):
    """Every qualified name that ``entries`` reach; a class reached by name reaches its ``__init__``."""
    bindings, code, members = index
    seen, todo = set(), list(entries)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        if name in code:
            module, nodes = code[name]
            todo.extend(_reads(bindings[module], nodes, members))
        if f"{name}.__init__" in code:
            todo.append(f"{name}.__init__")
    return seen


def _may_share(name):
    return name in SHARED or name.split(".")[0] in SHARED_MODULES


def test_routes_share_no_code():
    index = _index()
    reach = {route: _reach(entries, index) for route, entries in ROUTES.items()}
    # The walk follows each kind of read: a helper, a module attribute, a
    # method on an instance, a module-level value, a nested function.
    assert {"kernels._fill_block", "math.perm", "kernels.KernelCache.scaled",
            "kernels._shared"} <= reach["recursion"]
    assert "kernels.KernelKind.weight_denominator" in reach["compositions"]
    assert {"specfun._mpf", "mpmath.bernoulli"} <= reach["zeta_direct"]
    overlaps = {
        (first, second): sorted(name for name in reach[first] & reach[second] if not _may_share(name))
        for first, second in itertools.combinations(ROUTES, 2)
    }
    assert not {pair: names for pair, names in overlaps.items() if names}
