"""The architecture rules of harmgerm, checked against a source tree.

    python tools/rules.py [--root TREE] [RULE ...]

runs the named rules, or every rule when none is named, on the tree at
TREE (default: the current directory). A rule reads the tree's source
with `ast` and its tracked files with `git`, and nothing here imports
harmgerm, so the rules run before the package is installed. Each rule is
one function, named after the CI step that runs it: its docstring's
first line is that step's name, and the rest names the commit and the
design decision it protects. A violated rule prints its name and message
and the script exits 1; an unknown rule name exits 2.
"""

import argparse
import ast
import pathlib
import re
import subprocess
import sys

SRC = "src/harmgerm"


def _tracked(root, *paths):
    """The files git tracks in the tree `root`, under `paths` when any are given."""
    return subprocess.run(["git", "-C", root, "ls-files", "--", *paths], capture_output=True, text=True, check=True).stdout.splitlines()


def _users(root, pattern):
    """The tracked harmgerm files whose text matches the regular expression `pattern`."""
    return [path for path in _tracked(root, SRC) if re.search(pattern, pathlib.Path(root, path).read_text(encoding="utf-8"))]


def _modules(root):
    """The syntax tree of each harmgerm module, by file name."""
    return {path.name: ast.parse(path.read_bytes()) for path in sorted(pathlib.Path(root, SRC).glob("*.py"))}


def _imported(tree):
    """The last component of each module `tree` imports, and each name it imports from one."""
    nodes = list(ast.walk(tree))
    modules = [n.module or "" for n in nodes if isinstance(n, ast.ImportFrom)]
    modules += [alias.name for n in nodes if isinstance(n, ast.Import) for alias in n.names]
    names = {alias.name for n in nodes if isinstance(n, ast.ImportFrom) for alias in n.names}
    return {module.rpartition(".")[2] for module in modules} | names


def _called(node):
    """The name of each call under `node`, in walk order from `node` itself, repeats included:
    `f` for f(...) and for obj.f(...)."""
    return [getattr(n.func, "id", getattr(n.func, "attr", None)) for n in ast.walk(node) if isinstance(n, ast.Call)]


def _reached(tree, name):
    """Names called by the module function `name` and by the module functions it reaches."""
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    names, todo = set(), {name}
    while todo:
        # a function is popped when it is walked, so each is walked once
        todo = {c for f in todo for c in _called(functions.pop(f, ast.Pass()))} - names
        names |= todo
    return names


def _callers(trees, name):
    """Each module function of `trees` that calls `name`, once per call, as "module.py:function";
    a call outside a module function fails."""
    sites = []
    for module, tree in trees.items():
        found = [f"{module}:{f.name}" for f in tree.body if isinstance(f, ast.FunctionDef) for c in _called(f) if c == name]
        assert len(found) == _called(tree).count(name), f"{SRC}/{module} calls {name} outside a module function"
        sites += found
    return sites


def _defined(nodes):
    """The functions and classes among `nodes`, by name; the first of two with one name wins."""
    return {n.name: n for n in reversed([*nodes]) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}


def no_generated_files(root):
    """No generated files in git

    282addc, extended by 1b5e78f: the one arithmetic kernel is pure
    Python, so no generated C or shared object is tracked, and neither
    are bytecode, build metadata, test caches or benchmark run records.
    """
    pattern = r"\.(c|so|pyc)$|\.egg-info/|(^|/)test_output\.txt$|__pycache__/|^\.perfbench/|\.hypothesis/|\.pytest_cache/"
    tracked = [path for path in _tracked(root) if re.search(pattern, path)]
    assert not tracked, f"generated files are tracked: {tracked}"


def only_polyring_and_zcoords_read_numerators(root):
    """Only polyring and zcoords read Poly numerators

    e97a563, extended by 6387e93: a Poly stores integer numerators over
    one denominator, and that layout is known to polyring and to the
    (z, z̄) coordinate layer alone; everything else reads coefficients.
    """
    readers = _users(root, r"\._(num|den)\b")
    assert readers == [f"{SRC}/polyring.py", f"{SRC}/zcoords.py"], f"Poly._num/_den read outside polyring.py and zcoords.py: {readers}"


def only_graded_chooses_harmonic_multiple(root):
    """Only graded chooses the harmonic-multiple read-off

    46d3631, extended by 6387e93: graded.solve_membership alone decides
    whether a graded membership is read off the (z, z̄) coefficients or
    eliminated, so each question runs at most one elimination.
    """
    callers = _users(root, r"harmonic_multiple\(")
    assert callers == [f"{SRC}/graded.py", f"{SRC}/zcoords.py"], f"harmonic_multiple called outside graded.py and zcoords.py: {callers}"


def harmonic_runs_no_elimination(root):
    """The harmonic decompositions run no elimination

    6387e93: the Almansi and harmonic splits are read off (z, z̄)
    coefficients, so harmonic.py needs no linear algebra.
    """
    assert "linalg" not in _imported(_modules(root)["harmonic.py"]), "harmonic.py imports linalg"


def determinacy_runs_no_z_read_off(root):
    """The determinacy layer runs no (z, z̄) read-off

    8257112: the determinacy report reads its translations off its own
    certificate, so determinacy.py imports neither graded nor zcoords.
    """
    found = _imported(_modules(root)["determinacy.py"]) & {"graded", "zcoords"}
    assert not found, f"determinacy.py imports {sorted(found)}"


def elimination_builds_no_fraction(root):
    """The elimination layer builds no Fraction

    d178364: linalg and the rref kernel eliminate on integer rows and
    return integers, through one RREF column reader.
    """
    for name in ("linalg.py", "_kernels.py"):
        assert "fractions" not in _imported(_modules(root)[name]), f"{SRC}/{name} imports fractions"


def certificate_keeps_integer_rows(root):
    """The determinacy certificate keeps the solve's integer rows

    b836ab2: a certificate's combinations are the solve's integer rows,
    with no Fraction per coefficient, and re-verification checks each
    row as one integer sum. Since the commit after f4a938b the
    certificate is plain data, (germ, level, cap, verdict, missing,
    rows), with no Fraction view of its rows, so determinacy.py, like
    linalg and _kernels, imports no fractions.
    """
    assert "fractions" not in _imported(_modules(root)["determinacy.py"]), f"{SRC}/determinacy.py imports fractions"


def reverification_reaches_no_elimination(root):
    """Re-verification reaches no elimination

    The commit after e6f9cb6: a certificate's checker is simpler than the
    computation it checks (McConnell et al., "Certifying algorithms",
    2011). determinacy.reverify_certificate derives the products again
    and checks each row as one integer sum over one common denominator,
    so neither it nor any module function it reaches, in determinacy,
    polyring or linalg, calls rref, solve_canonical, nullspace or _echelon.
    """
    trees = _modules(root)
    checker = ast.Module([n for name in ("determinacy.py", "polyring.py", "linalg.py") for n in trees[name].body], [])
    found = _reached(checker, "reverify_certificate") & {"rref", "solve_canonical", "nullspace", "_echelon"}
    assert not found, f"determinacy.reverify_certificate reaches {sorted(found)}"


def reduction_composes_nothing(root):
    """The reduction's construction composes nothing

    c596fce, extended by 6aeb317 and d4e3826: the reduction reads its
    translations off the germ's graded components, so `_reduction_maps`
    composes, solves and multiplies nothing, and `reduce_general`
    converts the germ to (z, z̄) once and rotates those components.
    """
    functions = _defined(_modules(root)["equivalence.py"].body)
    composers = {"jet_compose", "translation_solution", "solve_membership", "laplacian_power", "mul_truncated"}
    found = set(_called(functions["_reduction_maps"])) & composers
    assert not found, f"equivalence._reduction_maps calls {sorted(found)}"
    calls = _called(functions["reduce_general"])
    found = set(calls) & {"jet_compose", "jet_truncate"}
    assert not found, f"equivalence.reduce_general calls {sorted(found)}"
    assert calls.count("_z_components") == 1, f"equivalence.reduce_general calls _z_components {calls.count('_z_components')} times"


def products_key_on_shared_exponent_table(root):
    """The determinacy products take their keys from the shared exponent table

    2d83ab6, extended by 3b6de1f: a tuple key per term is garbage for the
    cyclic collector, so Poly.shifts reads its keys from the bounded
    monomial_basis table, and the products have one derivation,
    Poly.shifts inside determinacy.TruncatedMultiples. Since the commit
    after 072bc0a, Poly.shifts takes one multiplier degree and sorts
    only the terms it keeps, and TruncatedMultiples takes the germ and
    differentiates only the truncation of it that a block reads.
    """
    polyring = _defined(_modules(root)["polyring.py"].body)
    shifts = _defined(polyring["Poly"].body)["shifts"]
    built = [n.lineno for n in ast.walk(shifts) if isinstance(n, ast.DictComp) and isinstance(n.key, ast.Tuple)]
    assert not built, f"Poly.shifts builds a key tuple per term (line {built})"
    # a decorator's first call, in walk order, is the decorator itself
    caches = [d for d in polyring["monomial_basis"].decorator_list if isinstance(d, ast.Call) and _called(d)[0] == "lru_cache"]
    assert caches, "monomial_basis carries no lru_cache(maxsize=...)"
    sizes = [kw.value for kw in caches[0].keywords if kw.arg == "maxsize"] + caches[0].args[:1]
    assert sizes, "monomial_basis's lru_cache names no maxsize"
    assert not (isinstance(sizes[0], ast.Constant) and sizes[0].value is None), "monomial_basis's cache is unbounded"
    tree = _modules(root)["determinacy.py"]
    shifted = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "shifted"]
    assert not shifted, f"determinacy.py calls .shifted( (line {shifted})"
    assert "_truncated_multiples" not in _defined(ast.walk(tree)), "determinacy.py defines _truncated_multiples"


def only_scale_step_builds_radial_engine(root):
    """Only the scale step builds the radial engine

    3f670ff: a rotation z -> delta*z is its closed form, the
    construction's equivalence._rotated; the lazy engine _RadialImage is
    built only to solve the radial scale map (_inverse_scale_root) and to
    check it (radial_step_holds).
    """
    trees = _modules(root)
    builders = sorted(_callers(trees, "_RadialImage"))
    assert builders == ["jets.py:_inverse_scale_root", "jets.py:radial_step_holds"], f"_RadialImage built in {builders}"
    defined = _defined(node for tree in trees.values() for node in ast.walk(tree))
    assert "_linear_rotation_map" not in defined, f"{SRC} defines _linear_rotation_map"
    reduce = _defined(trees["equivalence.py"].body)["reduce_general"]
    assert "_radial_factor" not in _called(reduce), "equivalence.reduce_general calls _radial_factor"


def verification_composes_no_rotation(root):
    """Verification composes no rotation of the construction

    Up to 45ff912, jets.jet_compose rotated a map z -> delta*z with the
    _rotated that rotates the germ's (z, z̄) components in reduce_general,
    so a defect there that kept the result real passed verify(). Since
    then jet_compose substitutes a linear part by Horner's rule in (x, y):
    _rotated is defined in equivalence.py and called by reduce_general
    alone, and nothing jet_compose reaches, in jets or the modules it
    imports, calls it or a (z, z̄) change of variables.
    """
    trees = _modules(root)
    defined = [name for name, tree in trees.items() if "_rotated" in _defined(ast.walk(tree))]
    assert defined == ["equivalence.py"], f"_rotated defined in {defined}"
    callers = _callers(trees, "_rotated")
    assert callers == ["equivalence.py:reduce_general"], f"_rotated called by {callers}"
    composition = ast.Module([n for name in ("jets.py", "zcoords.py", "polyring.py") for n in trees[name].body], [])
    found = _reached(composition, "jet_compose") & {"_rotated", "_z_components", "_change_variables"}
    assert not found, f"jets.jet_compose reaches {sorted(found)}"


def refusals_are_input_errors(root):
    """Every refusal is an InputError, and cli.main alone reports it

    157b7df: the library refuses input with InputError, so a stdlib
    ValueError is a defect, not a refused input; cli.main maps exception
    types to its "usage error:" and "validation error:" messages.
    ascii_int keeps ValueError, which argparse's type= contract reads as
    "invalid ascii_int value".
    """

    def named(node, name):
        return getattr(node.func if isinstance(node, ast.Call) else node, "id", None) == name

    trees = _modules(root)
    for name, tree in trees.items():
        exempt = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "ascii_int" for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and id(node) not in exempt:
                assert not named(node.exc, "ValueError"), f"{SRC}/{name}:{node.lineno} raises ValueError"
    for node in ast.walk(trees["cli.py"]):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            assert not any(named(c, "ValueError") for c in caught), f"cli.py:{node.lineno} catches ValueError"
    texts = [n.value for n in ast.walk(trees["cli.py"]) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    for prefix in ("usage error:", "validation error:"):
        count = sum(text.count(prefix) for text in texts)
        assert count == 1, f"cli.py writes {prefix!r} {count} times"


# every public function above is a rule, in the order of the CI steps
RULES = {name: value for name, value in list(globals().items()) if callable(value) and not name.startswith("_")}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Check harmgerm's architecture rules on a source tree.")
    parser.add_argument("--root", default=".", help="the tree to check (default: the current directory)")
    parser.add_argument("rules", nargs="*", metavar="RULE", help=f"a rule to run (default: all): {', '.join(RULES)}")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.rules) - RULES.keys())
    if unknown or not __debug__:
        parser.error(f"unknown rules {unknown}" if unknown else "the rules are assertions; run without -O")
    failed = False
    for name in args.rules or RULES:
        try:
            RULES[name](args.root)
        except Exception as error:  # a tree the rule cannot read fails it too
            failed = True
            print(f"{name}: {type(error).__name__}: {error}", file=sys.stderr)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
