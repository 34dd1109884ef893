"""What each start-up path imports.

A command pays at start-up for every module it loads, whether it runs
it or not.  ``repro``, ``repro.core``, ``repro.runtime`` and
``repro.analysis`` resolve their re-exported names on first use, as
``repro.service`` resolves its ``loadtest`` names, and each CLI
handler imports its own engine, so these checks pin what the common
paths load.  Each runs in a fresh interpreter, because this
process has long since imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Packages that neither a cert/Denning batch nor a serve start runs.
UNUSED = (
    "repro.core",
    "repro.runtime",
    "repro.logic",
    "repro.analysis",
    "repro.workloads",
    "repro.fuzz",
    "repro.service",
    "repro.staticlint",
)

#: Prints the ``repro`` modules loaded so far as the last line of output.
REPORT = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m == 'repro' or m.startswith('repro.'))))\n"
)

LAZY_PACKAGES = (
    "repro", "repro.core", "repro.runtime", "repro.analysis", "repro.service",
)


def _last_json(code: str, cwd: Path) -> object:
    """Run ``code`` in a fresh interpreter; its last output line, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def _under(modules: List[str], packages) -> List[str]:
    return [
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in packages)
    ]


def test_import_repro_loads_no_other_module(tmp_path):
    assert _last_json("import repro" + REPORT, tmp_path) == ["repro"]


def test_a_cert_denning_batch_loads_no_unused_package(tmp_path):
    program = tmp_path / "p.rl"
    program.write_text("var x, y : integer; begin x := 1; y := x end")
    loaded = _last_json(
        "from repro.cli import main\n"
        f"assert main(['batch', {str(program)!r}, '--analyses', 'cert,denning',"
        " '--jobs', '1', '--no-cache']) == 0" + REPORT,
        tmp_path,
    )
    assert "repro.pipeline.runner" in loaded
    assert _under(loaded, UNUSED) == []


def test_serve_start_loads_no_analysis(tmp_path):
    """The modules ``repro serve`` holds when ``serve()`` binds and forks."""
    held = _last_json(
        "import json, sys\n"
        "import repro.service\n"
        "from repro.cli import main\n"
        "held = []\n"
        "def serve(service, **options):\n"
        "    held.extend(m for m in sys.modules\n"
        "                if m == 'repro' or m.startswith('repro.'))\n"
        "    return 0\n"
        "repro.service.serve = serve\n"
        "assert main(['serve', '--port', '0', '--jobs', '2', '--cache-dir',"
        f" {str(tmp_path / 'cache')!r}]) == 0\n"
        "print(json.dumps(sorted(held)))\n",
        tmp_path,
    )
    assert "repro.service.app" in held
    assert _under(held, UNUSED) == _under(held, ["repro.service"])
    assert "repro.fastpath" not in held
    assert "repro.service.loadtest" not in held


def test_a_served_request_imports_nothing_in_the_parent(tmp_path):
    """Workers run the analyses; the parent only parses, keys and renders."""
    imported = _last_json(
        "import json, sys\n"
        "from repro.service import AnalysisService\n"
        f"service = AnalysisService(jobs=2, cache_dir={str(tmp_path)!r})\n"
        "try:\n"
        "    service.warm()\n"
        "    before = set(sys.modules)\n"
        "    status, _ = service.analyze_json(json.dumps({\n"
        "        'program': 'var h, l : integer; '\n"
        "                   'begin l := 0; if h # 0 then l := 1 end',\n"
        "        'analyses': ['cert', 'lint']}).encode())\n"
        "    assert status == 200, status\n"
        "    imported = sorted(set(sys.modules) - before)\n"
        "finally:\n"
        "    service.close()\n"
        "print(json.dumps(imported))\n",
        tmp_path,
    )
    assert imported == []


def test_a_module_loads_none_of_its_package_siblings(tmp_path):
    explorer = _last_json("import repro.runtime.explorer" + REPORT, tmp_path)
    assert _under(explorer, ["repro.core"]) == []
    binding = _last_json("import repro.core.binding" + REPORT, tmp_path)
    assert _under(binding, [
        f"repro.core.{name}"
        for name in ("cfm", "constraints", "denning", "flowsensitive", "inference")
    ]) == []


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_a_lazy_package_keeps_its_surface(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="'nope'"):
        package.nope
    with pytest.raises(ImportError, match="'nope'"):
        exec(f"from {name} import nope", {})
