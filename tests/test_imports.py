"""Which modules each entry point loads, checked in fresh interpreters.

A process pays the resident memory of every library it imports, so a
server must not import what only training or evaluation calls:
``import repro.serving`` loads no scipy, networkx, ``repro.core`` or
``repro.nn``; ``import repro.core`` loads only the scipy.sparse that
every fit's ``segment_sum`` needs; ``repro query`` loads neither scipy
nor the training stack.  The package exports load on first access, and
every exported name must still resolve.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
import repro.engine
from repro.serving import write_store

SRC = str(Path(repro.__file__).resolve().parent.parent)

# prints the sorted names of the loaded modules after running the code
_REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def _loaded_after(code: str, cwd: Path | None = None) -> list[str]:
    """Module names loaded by a fresh interpreter after running ``code``."""
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def _matching(modules: list[str], *prefixes: str) -> list[str]:
    """The modules equal to, or inside, one of the dotted ``prefixes``."""
    return [
        name
        for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    ]


class TestServingImports:
    def test_serving_loads_no_training_stack(self):
        loaded = _loaded_after("import repro.serving")
        assert "repro.serving.index" in loaded
        assert not _matching(
            loaded, "scipy", "networkx", "repro.core", "repro.nn"
        )

    def test_query_command_loads_no_scipy_or_core(self, tmp_path):
        rng = np.random.default_rng(0)
        ids = [f"n{i}" for i in range(64)]
        write_store(tmp_path / "t.tnemb", ids, rng.random((64, 8)))
        loaded = _loaded_after(
            "from repro.cli import main\n"
            "main(['query', 't.tnemb', '--sample', '4', '--top-k', '3',"
            " '--out', 'q.tsv'])",
            cwd=tmp_path,
        )
        assert (tmp_path / "q.tsv").read_text().count("\n") == 12
        assert not _matching(loaded, "scipy", "networkx", "repro.core")


class TestCliImports:
    def test_cli_loads_no_walk_engine(self):
        loaded = _loaded_after("import repro.cli")
        assert not _matching(loaded, "repro.walks")


class TestCoreImports:
    def test_core_loads_no_optimizer(self):
        loaded = _loaded_after("import repro.core")
        assert "scipy.sparse" in loaded
        assert not _matching(loaded, "scipy.optimize", "scipy.special")

    def test_logreg_imports_scipy_only_when_fitting(self):
        loaded = _loaded_after(
            "from repro.ml import LogisticRegression\n"
            "LogisticRegression()"
        )
        assert not _matching(loaded, "scipy")


class TestLazyExports:
    def test_package_import_loads_no_subpackage(self):
        loaded = _loaded_after("import repro, repro.engine")
        assert not _matching(
            loaded, "repro.core", "repro.graph", "repro.engine.loop"
        )

    def test_every_export_resolves_in_a_fresh_process(self):
        code = (
            "import repro, repro.engine\n"
            "for module in (repro, repro.engine):\n"
            "    for name in module.__all__:\n"
            "        assert getattr(module, name) is not None, name\n"
            "from repro import TransN, TransNConfig, HeteroGraph\n"
            "from repro.engine import TrainingLoop, faults\n"
        )
        assert "repro.core.model" in _loaded_after(code)

    def test_exports_match_all(self):
        assert set(repro._EXPORTS) | {"__version__"} == set(repro.__all__)
        assert set(repro.engine._EXPORTS) == set(repro.engine.__all__)
        assert set(repro.engine.__all__) <= set(dir(repro.engine))

    def test_exports_are_the_submodule_objects(self):
        from repro.core import TransN
        from repro.engine.observability import MetricsRegistry

        assert repro.TransN is TransN
        assert repro.engine.MetricsRegistry is MetricsRegistry

    def test_unknown_name_raises_attribute_error(self):
        for module in (repro, repro.engine):
            assert not hasattr(module, "no_such_export")
