"""Every public name of ``qchan`` has a caller in the program or the benchmark.

The public names are those ``qchan/__init__.py`` exports and every top-level
function, class or assigned name of a ``src/qchan`` module that does not
start with ``_``.  A name counts as called when some module of ``src/qchan``
or ``perfbench/`` uses it outside its own definition and outside the
package's ``__init__``: as a name, as an attribute, or as a dotted identifier
string, the form in which the benchmark's tracer names what it patches.
Tests do not count.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qchan"

# Public names that need no caller, one reason each.
ALLOWED = {
    "QchanError": "base class of every qchan error, for callers to catch",
    "CapacityError": "error class, raised rather than called",
    "NotCompletelyPositiveError": "error class, raised rather than called",
    "NotPositiveError": "error class, raised rather than called",
    "NumericalError": "error class, raised rather than called",
    "StructureError": "error class, raised rather than called",
    "UsageError": "error class, raised rather than called",
    "ValidationError": "error class, raised rather than called",
    "holevo_chi": "the witness side of the two-sided capacity check planned in ROADMAP.md",
    "StateEnsemble": "the input of holevo_chi",
}

IDENTIFIER = re.compile(r"[A-Za-z_][\w.]*")


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def defined_names() -> list[str]:
    """Names that the modules of ``src/qchan`` define at top level and do not mark private."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def public_names() -> set[str]:
    return set(exported_names()) | set(defined_names())


def used_names(node: ast.AST) -> set[str]:
    """Names, attributes and dotted identifier strings under ``node``."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and IDENTIFIER.fullmatch(sub.value):
            used.update(sub.value.split("."))
    return used


def called_names() -> set[str]:
    """Names used by the program and the benchmark, each outside its own top-level definition."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    called = set()
    for path in files:
        for node in ast.parse(path.read_text()).body:
            used = used_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used.discard(node.name)
            called |= used
    return called


def test_every_export_has_a_caller_or_a_reason():
    called = called_names()
    uncalled = sorted(name for name in public_names() if name not in called and name not in ALLOWED)
    assert uncalled == []


def test_allowlist_names_only_exports():
    assert set(ALLOWED) <= public_names()


# Every top-level class of ``src/qchan``, one reason each, so that a new result
# type comes with a stated reason.  A claim's result is a ``reporting.Check``.
CLASSES = {
    "channels.KrausChannel": "a channel as one Kraus stack",
    "channels.ProductChannel": "a tensor product applied factor by factor, with no product Kraus stack",
    "channels.DepolarizingParams": "validates the depolarizing parameters (l, p)",
    "channels.PhaseDampingParams": "validates the damping coefficients q_1..q_{l-1}",
    "cli.RunConfig": "the configuration echoed into every report",
    "errors.QchanError": "base class of every qchan error, for callers to catch",
    "errors.UsageError": "error class, exit code 2",
    "errors.CapacityError": "error class, a usage error for a dimension above the cap",
    "errors.ValidationError": "error class, exit code 2",
    "errors.NotPositiveError": "error class, a validation error that carries the eigenvalue",
    "errors.NotCompletelyPositiveError": "error class, a validation error that carries the eigenvalue",
    "errors.StructureError": "error class for a unitary family without the structure asked of it",
    "errors.NumericalError": "error class, exit code 3",
    "fileio.ParseError": "a usage error that carries the line and column of a bad file",
    "linalg.HermitianEigen": "the eigenvalues and eigenvectors hermitian_eig returns together",
    "optimize.OptimizationResult": "a search's minimizer, value and stopping reason, read by several claims",
    "reporting.Check": "the one claim record: every report entry is one",
    "reporting.AdditivityReport": (
        "the one exception to Check: perfbench/workloads.py reads its fields, and ROADMAP item 1 "
        "(the benchmark change) replaces it with a Check"),
    "states.DensityMatrix": "a validated state",
    "states.PureState": "a validated unit vector",
    "states.StateEnsemble": "the input of holevo_chi",
    "verify.Scores": "a stack's margins with each record built on request, so a batch builds one Check",
    "weyl.WeylSystem": "the l^2 Weyl unitaries of one dimension, built once",
    "weyl.SubgroupFamily": "an order-l subgroup, validated as one, that keys the resolution cache",
}


def defined_classes() -> list[str]:
    return sorted(f"{path.stem}.{node.name}" for path in PACKAGE.glob("*.py")
                  for node in ast.parse(path.read_text()).body if isinstance(node, ast.ClassDef))


def test_every_class_has_a_stated_reason():
    assert defined_classes() == sorted(CLASSES)
