"""Imports: every name a library module imports is used there, the package
namespace resolves lazily, and each CLI command loads only what it uses."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import endoscopylab

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "endoscopylab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import():
    source = "from typing import Sequence, NamedTuple\nimport os\nx: NamedTuple\n"
    assert unused_imports(source) == ["Sequence (line 1)", "os (line 2)"]


def guard_error_calls(source: str) -> list[int]:
    """Lines that construct GuardError, by name or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "GuardError"
    ]


def test_guard_error_is_raised_only_by_the_guards_helper():
    for path in MODULES:
        if path.stem != "guards":
            assert guard_error_calls(path.read_text()) == [], path.stem
    assert len(guard_error_calls((PACKAGE / "guards.py").read_text())) == 1
    assert guard_error_calls("raise guards.GuardError('x')\n") == [1]


# the math functions that return an int on int arguments
INT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def float_uses(source: str) -> list[str]:
    """Float literals, float() calls and float-valued math names, by line.

    The one float allowed is the default of ``CheckResult.elapsed_s``, a
    check's wall time and not a reported number.
    """
    tree = ast.parse(source)
    allowed = {
        id(stmt.value)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "CheckResult"
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) == "elapsed_s"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            if id(node) not in allowed:
                found.append(f"literal {node.value!r} (line {node.lineno})")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append(f"float() (line {node.lineno})")
        elif (
            isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "math"
            and node.attr not in INT_MATH
        ):
            found.append(f"math.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(
                f"math.{alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name not in INT_MATH
            )
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_computes_no_float(path):
    # every reported number is an int or a Fraction
    assert float_uses(path.read_text()) == []


def test_float_check_sees_each_kind():
    source = (
        "import math\nfrom math import comb, sqrt\n"
        "x = 0.5\ny = float(3)\nz = math.log(2) + math.pi\nw = math.comb(4, 2)\n"
        "class CheckResult:\n    elapsed_s: float = 0.0\n    other: float = 0.0\n"
    )
    assert sorted(float_uses(source)) == [
        "float() (line 4)", "literal 0.0 (line 9)", "literal 0.5 (line 3)",
        "math.log (line 5)", "math.pi (line 5)", "math.sqrt (line 2)",
    ]


def enclosing(source: str, match) -> list[str | None]:
    """The innermost function around each node that match accepts; None for a
    node outside every function."""
    found: list[str | None] = []

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif match(node):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def callers(source: str, name: str) -> list[str | None]:
    """The innermost function around each call of name, by name or as an
    attribute; None for a call outside every function."""
    return enclosing(
        source,
        lambda node: isinstance(node, ast.Call)
        and name == getattr(node.func, "id", getattr(node.func, "attr", None)),
    )


def terms_stores(source: str) -> list[str | None]:
    """The innermost function around each assignment to an attribute _terms."""
    return enclosing(
        source,
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "_terms"
        and isinstance(node.ctx, ast.Store),
    )


def test_every_poincare_polynomial_is_built_by_its_constructor():
    # the constructor checks every coefficient, and the degree guard is the
    # library's, so the CLI refuses nothing itself
    source = (PACKAGE / "cohomology.py").read_text()
    assert callers(source, "__new__") == ["_walked"]
    built = callers(source, "PoincarePoly")
    assert {"brute_poincare", "gaussian_binomial", "_poincare_of"} <= set(built)
    assert callers((PACKAGE / "cli.py").read_text(), "refuse_above") == []
    assert callers("class P:\n    def f(self):\n        return object.__new__(P)\n"
                   "object.__new__(P)\n", "__new__") == ["f", None]


def top_level_users(source: str, match) -> set[str | None]:
    """The top-level functions that hold a node match accepts, nested
    functions included; None for a node outside every function."""
    return {
        getattr(stmt, "name", None)
        for stmt in ast.parse(source).body
        if any(match(node) for node in ast.walk(stmt))
    }


def is_print(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"


def reads(name: str, attr: str):
    return lambda node: (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and getattr(node.value, "id", None) == name
    )


def test_only_emit_writes_the_output():
    # each command returns its output in the one format main passes it, and
    # _emit alone writes it; main only flushes stdout and prints errors
    source = (PACKAGE / "cli.py").read_text()
    writes = lambda node: isinstance(node, ast.Attribute) and node.attr.startswith("write")
    assert top_level_users(source, writes) == {"_emit"}
    assert top_level_users(source, reads("sys", "stdout")) == {"_emit", "main"}
    assert top_level_users(source, reads("ns", "format")) == {"main"}
    assert top_level_users(source, is_print) == {"main"}
    for node in ast.walk(ast.parse(source)):
        if is_print(node):
            assert [ast.unparse(k) for k in node.keywords] == ["file=sys.stderr"]
    nested = (
        "def _cmd_x(ns, fmt):\n    def lines():\n        print(ns.format)\n    return lines()\n"
    )
    assert top_level_users(nested, is_print) == top_level_users(nested, reads("ns", "format"))
    assert top_level_users(nested, is_print) == {"_cmd_x"}


def test_the_poincare_memo_is_filled_only_by_the_kernel():
    # the memo key is built in one place: poincare_poly sorts the mixed pairs
    memo = {path.stem: callers(path.read_text(), "_poincare_of") for path in MODULES}
    assert {stem: f for stem, f in memo.items() if f} == {"cohomology": ["poincare_poly"]}


def test_only_the_packet_walk_skips_the_bipartition_check():
    # _walked takes pairs from the walk's checked options and the memo key
    # from its running sums; every other bipartition goes through the
    # constructor's check
    walked = {path.stem: callers(path.read_text(), "_walked") for path in MODULES}
    assert {stem: f for stem, f in walked.items() if f} == {
        "cohomology": ["enumerate_bipartitions"]
    }
    keys = {
        path.stem: enclosing(
            path.read_text(),
            lambda node: isinstance(node, ast.Attribute) and node.attr == "_key",
        )
        for path in MODULES
    }
    assert {stem: f for stem, f in keys.items() if f} == {
        "cohomology": ["poincare_poly"], "selftest": ["check_poincare_oracle"] * 2
    }


def test_only_the_selftest_lists_every_character():
    # the dominance trials draw characters as masks, so nothing but the
    # selftest's exhaustive packets builds the list of all 2^(r-1) of them
    listed = {path.stem: callers(path.read_text(), "characters") for path in MODULES}
    assert {stem for stem, f in listed.items() if f} <= {"selftest"}
    assert callers("def f(g):\n    return g.characters()\n", "characters") == ["f"]


def classes_defining(source: str, name: str) -> list[str]:
    """The classes whose body defines a function name."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == name for f in node.body)
    ]


def json_codecs(source: str) -> list[str]:
    """The top-level functions whose name ends in _json, and each class that
    defines to_json."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_json")
    ] + [f"{cls}.to_json" for cls in classes_defining(source, "to_json")]


def test_only_the_cli_renders_json():
    # the library computes values, and cli alone holds the JSON schema, both ways
    codecs = {path.stem: json_codecs(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem for stem, names in codecs.items() if names} == {"cli"}
    assert "_shape_from_json" in codecs["cli"]
    assert json_codecs(
        "def a_json(): pass\nclass A:\n    def to_json(self): pass\n    def b_json(self): pass\n"
        "class B:\n    to_json = 1\ndef f():\n    def c_json(): pass\nx_json = 1\n"
    ) == ["a_json", "A.to_json"]


ELLIPTICITY_TESTS = {"is_elliptic", "_require_elliptic"}


def ellipticity_checks(source: str) -> list[str]:
    """Each read of a self_dual attribute, and each definition, assignment or
    import of a name in ELLIPTICITY_TESTS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "self_dual":
            found.append(".self_dual")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"import {a.name}" for a in node.names if a.name in ELLIPTICITY_TESTS]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in ELLIPTICITY_TESTS:
            found.append(f"def {node.name}")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and (
            node.id in ELLIPTICITY_TESTS
        ):
            found.append(f"def {node.id}")
    return sorted(found)


def test_no_module_asks_whether_a_shape_is_elliptic():
    # every ArthurShape is elliptic by construction: its constructor alone
    # refuses a repeated block, and a block carries no self_dual flag
    for path in sorted(PACKAGE.glob("*.py")):
        assert ellipticity_checks(path.read_text()) == [], path.stem
    assert ellipticity_checks(
        "from .params import is_elliptic as ok\nimport os\n"
        "def _require_elliptic(s):\n    return s.self_dual\n"
        "class A:\n    def is_elliptic(self): pass\n"
        "is_elliptic = None\nos.sep = None\n"
        "def f(d):\n    return d['self_dual'], d.self_dual_x, is_elliptic(d)\n"
    ) == [".self_dual", "def _require_elliptic", "def is_elliptic", "def is_elliptic",
          "import is_elliptic"]


def test_blocks_are_split_only_through_the_mask_helper():
    # every split of a shape's blocks is made from two masks by _split_at
    made = {path.stem: callers(path.read_text(), "make_split") for path in MODULES}
    assert {stem: f for stem, f in made.items() if f} == {"endoscopy": ["_split_at"]}


def test_formal_dist_terms_are_set_only_by_its_two_constructors():
    # __init__ checks and canonicalizes; _of wraps a dict already canonical
    stores = {path.stem: terms_stores(path.read_text()) for path in MODULES}
    assert {stem: f for stem, f in stores.items() if f} == {
        "hyperendoscopy": ["__init__", "_of"]
    }
    assert terms_stores("def f(d):\n    d._terms = {}\n    return d._terms\n"
                        "g()._terms = {}\n") == ["f", None]


def test_the_cap_is_set_only_through_the_environment():
    from endoscopylab.guards import guard_limit

    assert len(inspect.signature(guard_limit).parameters) == 1
    for path in MODULES:
        module = importlib.import_module(f"endoscopylab.{path.stem}")
        for name in module.__all__:
            value = getattr(module, name)
            if callable(value) and not inspect.isclass(value):
                assert "guard" not in inspect.signature(value).parameters, name


def run_fresh(code: str, *args: str) -> str:
    """Run code in a new interpreter that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = """
import contextlib, io, json, sys
from endoscopylab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, [m for m in sys.modules if m.startswith("endoscopylab.")]]))
"""
SHAPE = json.dumps(
    {"summands": [{"label": "c1", "n": 1, "m": 3}, {"label": "c2", "n": 1, "m": 1},
                  {"label": "c3", "n": 2, "m": 1}]}
)


@pytest.mark.parametrize(
    "argv, unused",
    [
        pytest.param(["sx", "--N", "7", "--k", "2"],
                     {"endoscopy", "hyperendoscopy", "bounds"}, id="sx"),
        pytest.param(["endoscopy", "--N", "6", "--shape", SHAPE],
                     {"cohomology", "hyperendoscopy", "bounds"}, id="endoscopy --shape"),
        pytest.param(["packet", "--a", "3", "--b", "3", "--P", "3,2,1"],
                     {"endoscopy", "hyperendoscopy", "bounds"}, id="packet"),
        pytest.param(["chains", "--shape", SHAPE], {"cohomology", "bounds"}, id="chains"),
        pytest.param(["chains", "--shape", SHAPE, "--dominant"], {"cohomology", "bounds"},
                     id="chains --dominant"),
        pytest.param(["dominance", "--shape", SHAPE, "--trials", "3"],
                     {"decay", "cohomology", "hyperendoscopy"}, id="dominance"),
        pytest.param(["decay", "--bipartition", "[[2,2],[1,0]]"],
                     {"params", "endoscopy", "hyperendoscopy", "bounds"}, id="decay"),
        pytest.param(["poincare", "--bipartition", "[[2,1],[0,3],[1,1]]"],
                     {"params", "endoscopy", "hyperendoscopy", "bounds", "decay"}, id="poincare"),
    ],
)
def test_command_loads_only_the_modules_it_uses(argv, unused):
    code, modules = json.loads(run_fresh(LOADED, json.dumps(argv)))
    assert code == 0
    loaded = {m.split(".", 1)[1] for m in modules}
    assert "cli" in loaded
    unused = unused | {"selftest"}  # no listed command needs it
    assert loaded.isdisjoint(unused), sorted(loaded & unused)


def imports_of(source: str) -> set[str]:
    """The top-level names of every module that source imports, anywhere."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_only_bounds_imports_dataclasses():
    # the value classes share guards._Frozen; Derivation alone stays a
    # dataclass, and only derive, dominance and selftest load bounds
    users = {path.stem for path in MODULES if "dataclasses" in imports_of(path.read_text())}
    assert users == {"bounds"}
    assert imports_of("def f():\n    from dataclasses import replace\nimport os.path\n") == {
        "dataclasses", "os"
    }


def top_level_functions(source: str, prefix: str) -> list[str]:
    """The names of the top-level functions that start with prefix, in order."""
    return [
        stmt.name
        for stmt in ast.parse(source).body
        if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith(prefix)
    ]


def test_all_checks_are_the_check_functions_in_order():
    # a new check cannot be left out of selftest, and no name can drift
    from endoscopylab import selftest

    names = top_level_functions((PACKAGE / "selftest.py").read_text(), "check_")
    assert len(names) == 8
    assert selftest.ALL_CHECKS == tuple(getattr(selftest, name) for name in names)
    for name, result in zip(names, selftest.run_all()):
        assert result.name == name.removeprefix("check_") and result.passed
    assert top_level_functions("def check_b(): pass\nx = 1\ndef check_a(): pass\n"
                               "def _check_c(): pass\nclass check_d: pass\n",
                               "check_") == ["check_b", "check_a"]


def asserts(source: str) -> list[int]:
    """The line of each assert statement in source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_holds_no_assert(path):
    # python -O drops asserts: every invariant must be a raise that survives it
    assert asserts(path.read_text()) == []


def test_assert_check_sees_each_assert():
    source = "def f(x):\n    assert x\n    if x:\n        assert x > 1, 'no'\nassertion = 1\n"
    assert asserts(source) == [2, 4]


def indented_json_calls(source: str) -> list[int]:
    """Lines that call json.dump or json.dumps with an indent, or with **options."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("dump", "dumps")
        and any(keyword.arg in ("indent", None) for keyword in node.keywords)
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_json_call_takes_an_indent(path):
    # with an indent, json.dumps runs the pure-Python encoder: the CLI lays
    # out its JSON through cli._json_text on the C one
    assert indented_json_calls(path.read_text()) == []


def test_indent_check_sees_each_form():
    source = ("import json\nfrom json import dump\njson.dumps(x, indent=2)\n"
              "dump(x, f, indent=None)\njson.dumps(x)\njson.dumps(x, **options)\n"
              "text.indent(2)\n")
    assert indented_json_calls(source) == [3, 4, 6]


NEW_MODULES = """
import contextlib, io, json, sys
before = set(sys.modules)
from endoscopylab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["sx", "--N", "7", "--k", "2"],
        ["endoscopy", "--N", "6", "--shape", SHAPE],
        ["packet", "--a", "3", "--b", "3", "--P", "3,2,1"],
        ["chains", "--shape", SHAPE],
        ["chains", "--shape", SHAPE, "--dominant"],
    ],
    ids=["sx", "endoscopy --shape", "packet", "chains", "chains --dominant"],
)
def test_command_loads_no_dataclasses(argv):
    # importing dataclasses costs each process several milliseconds
    code, new = json.loads(run_fresh(NEW_MODULES, json.dumps(argv)))
    assert code == 0
    assert "endoscopylab.guards" in new
    assert "dataclasses" not in new


def test_package_import_and_private_lookups_load_no_submodule():
    out = run_fresh(
        "import sys, endoscopylab\n"
        "for name in ('_private', '__wrapped__', 'cli', 'bounds'):\n"
        "    assert not hasattr(endoscopylab, name), name\n"
        "print([m for m in sys.modules if m.startswith('endoscopylab.')])"
    )
    assert out.strip() == "[]"


def test_cli_loads_only_guards_from_the_package():
    # only top-level statements run when cli is imported; function bodies and
    # `if TYPE_CHECKING:` blocks do not
    loaded = []
    for node in ast.parse((PACKAGE / "cli.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and (
            node.level or node.module.startswith("endoscopylab")
        ):
            loaded.append(node.module)
        elif isinstance(node, ast.Import):
            loaded += [a.name for a in node.names if a.name.startswith("endoscopylab")]
    assert loaded == ["guards"]


def private_imports(source: str) -> list[str]:
    """The _-prefixed names a module imports from the package."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("endoscopylab"))
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_cli_imports_no_private_name_from_the_package():
    assert private_imports((PACKAGE / "cli.py").read_text()) == []
    assert private_imports(
        "def f():\n    from .endoscopy import _at, bijection\n"
        "from endoscopylab.guards import _Frozen\nfrom os import _exit\n"
    ) == ["_Frozen", "_at"]


# Every name the package's __init__ imported eagerly, before it resolved names
# lazily, by the submodule that defines it; but shape_from_json and
# shape_to_json, which left the public API when cli took over the JSON schema,
# and is_elliptic, which left it when every shape became elliptic.
EAGER_EXPORTS = {
    "params": [
        "ArthurShape", "BlockSignVector", "GroupChar", "Summand", "TwoGroup",
        "centralizer_group", "from_cohomological", "s_psi",
    ],
    "endoscopy": [
        "EndoscopicDatum", "InnerFormSpec", "ParameterSplit", "bijection",
        "check_inner_form", "dominant_group", "elliptic_data", "global_kottwitz_product",
        "iota", "kottwitz_sign_padic", "kottwitz_sign_real", "make_split",
    ],
    "guards": ["GuardError"],
    "hyperendoscopy": [
        "ChainStep", "FormalDist", "GroupSymbol", "HyperChain", "chain_expansion",
        "chain_iota", "dominant_contribution", "enumerate_chains", "expand_stable",
        "verify_inversion",
    ],
    "cohomology": [
        "Bipartition", "PoincarePoly", "brute_poincare", "degree_R",
        "enumerate_bipartitions", "gaussian_binomial", "lowest_degree", "poincare_poly",
    ],
    "decay": ["DecayProfile", "SxResult", "p_bound_of_bipartition", "ratio_profile", "sx_check"],
    "bounds": [
        "Derivation", "DerivationStep", "DominanceResult", "PacketModel", "coefficient_sum",
        "derive_exponent", "dominance_check", "i_disc_model", "savin_exponent",
        "stable_coefficient",
    ],
    "selftest": ["ALL_CHECKS", "CheckResult", "run_all"],
}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in EAGER_EXPORTS.items() for n in names]
)
def test_package_still_exports(module, name):
    namespace: dict = {}
    exec(f"from endoscopylab import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"endoscopylab.{module}"), name)
    assert name in dir(endoscopylab)


def test_random_packet_is_one_function_under_three_names():
    from endoscopylab import bounds, random_packet, selftest

    assert random_packet is bounds.random_packet is selftest.random_packet


def test_unknown_package_name_is_an_import_error():
    with pytest.raises(ImportError):
        exec("from endoscopylab import no_such_name", {})
