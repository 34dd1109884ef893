"""Documentation is part of the deliverable: enforce it mechanically."""

import importlib
import inspect
import pkgutil

import repro

PACKAGES = [
    "repro",
    "repro.lattice",
    "repro.lang",
    "repro.core",
    "repro.logic",
    "repro.runtime",
    "repro.analysis",
    "repro.observe",
    "repro.workloads",
    "repro.staticlint",
    "repro.pipeline",
    "repro.service",
    "repro.fuzz",
    "repro.fastpath",
]


def all_modules():
    names = set(PACKAGES)
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                names.add(f"{pkg_name}.{info.name}")
    names.add("repro.cli")
    names.add("repro.errors")
    return sorted(names)


def test_every_module_has_a_docstring():
    for name in all_modules():
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip(), name


def test_every_exported_name_is_documented():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        for name in getattr(pkg, "__all__", []):
            obj = getattr(pkg, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{pkg_name}.{name} lacks a docstring"


def test_public_classes_document_their_methods():
    """Spot the load-bearing classes: every public method documented."""
    from repro.core.cfm import CertificationReport
    from repro.lattice.base import Lattice
    from repro.logic.proof import ProofNode
    from repro.runtime.machine import Machine

    for cls in (Lattice, Machine, CertificationReport, ProofNode):
        for name, member in inspect.getmembers(cls):
            if name.startswith("_") or not callable(member):
                continue
            assert inspect.getdoc(member), f"{cls.__name__}.{name}"


def test_design_and_experiments_exist_and_crosslink():
    from pathlib import Path

    root = Path(repro.__file__).resolve().parents[2]
    design = (root / "DESIGN.md").read_text()
    experiments = (root / "EXPERIMENTS.md").read_text()
    readme = (root / "README.md").read_text()
    # every experiment id in DESIGN appears in EXPERIMENTS
    for eid in [f"E{i}" for i in range(1, 14)]:
        assert eid in design, eid
        assert eid in experiments, eid
    assert "DESIGN.md" in readme and "EXPERIMENTS.md" in readme


def test_examples_have_module_docstrings():
    from pathlib import Path

    root = Path(repro.__file__).resolve().parents[2]
    for script in sorted((root / "examples").glob("*.py")):
        text = script.read_text()
        assert text.lstrip().startswith('"""'), script.name
        assert "Run:" in text, f"{script.name} should say how to run it"


def test_one_version_number():
    """``repro.__version__`` keys the cache and is what ``repro
    --version`` prints; the citation and the package metadata must
    not drift from it.  Regexes, not ``tomllib``: Python 3.9 has none."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    cff = (root / "CITATION.cff").read_text(encoding="utf-8")
    assert re.search(r"^version:\s*(\S+)\s*$", cff, re.M).group(1) == (
        repro.__version__
    )
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)^\[", pyproject, re.M | re.S)
    assert re.search(r"^dynamic\s*=.*\"version\"", project.group(1), re.M)
    assert not re.search(r"^version\s*=", project.group(1), re.M)
    assert re.search(
        r"^\[tool\.setuptools\.dynamic\]\n"
        r"version\s*=\s*\{\s*attr\s*=\s*\"repro\.__version__\"\s*\}",
        pyproject,
        re.M,
    )
