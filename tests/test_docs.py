"""Documentation contracts: the README quickstart and package docstring run."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


class TestPackageDocstring:
    def test_quickstart_doctest_passes(self):
        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0

    def test_version_is_exposed(self):
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    results = doctest.testmod(importlib.import_module(name), verbose=False)
    assert results.failed == 0


class TestReadmeQuickstart:
    def test_readme_code_block_executes(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
        assert blocks, "README must contain a python quickstart block"
        namespace: dict = {}
        exec(blocks[0], namespace)  # noqa: S102 - executing our own docs
        assert "result" in namespace
        result = namespace["result"]
        assert len(result.certain) > 0

    def test_docs_reference_real_modules(self):
        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for path in re.findall(r"`([a-z_]+/[a-z_]+\.py)`", design):
            assert (REPO_ROOT / "src" / "repro" / path).exists() or (
                REPO_ROOT / "benchmarks" / Path(path).name
            ).exists(), f"DESIGN.md references missing module {path}"

    def test_design_layout_names_real_files(self):
        # The layout block lists files per directory: an unindented
        # ``root/`` line, ``  pkg/`` lines under it, ``  a.py`` lines for
        # the root's own files, and deeper-indented continuation lines.
        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        block = re.search(
            r"## 4\. Repository layout\n\n```\n(.*?)```", design, flags=re.DOTALL
        )
        assert block, "DESIGN.md must keep its repository layout block"
        root = directory = ""
        named = []
        for line in block.group(1).splitlines():
            tokens = line.split()
            indent = len(line) - len(line.lstrip())
            if indent == 0:
                root = directory = tokens.pop(0)
            elif tokens[0].endswith("/"):
                directory = root + tokens.pop(0)
            elif indent == 2:
                directory = root
            named += [directory + token for token in tokens if token.endswith(".py")]
        assert len(named) > 80
        for path in named:
            assert path.startswith(("src/repro/", "examples/")), path
            assert (REPO_ROOT / path).is_file(), f"DESIGN.md layout names missing {path}"


class TestObservabilityDoc:
    @staticmethod
    def _emitted_counters() -> set[str]:
        """Counter names ``src/`` passes as string literals to a
        ``telemetry.count`` or ``self._count`` call."""
        names: set[str] = set()
        for path in (REPO_ROOT / "src").rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            names.update(
                re.findall(r'(?:\.count|\bself\._count)\(\s*"([^"]+)"', text)
            )
        return names

    @staticmethod
    def _documented_counters() -> set[str]:
        """The Counters column of the "What gets emitted" table, each name
        under its row's prefix."""
        doc = (REPO_ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
        table = re.search(r"### What gets emitted\n\n(.*?)\n\n", doc, flags=re.DOTALL)
        assert table, "docs/observability.md must keep its counter table"
        names: set[str] = set()
        for line in table.group(1).splitlines()[2:]:
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            prefix = cells[0].strip("`").rstrip("*")
            names.update(prefix + name for name in re.findall(r"`([a-z_]+)`", cells[2]))
        return names

    def test_counter_table_names_what_src_emits(self):
        emitted = self._emitted_counters()
        # A floor on what the scan finds, so a regex that matches nothing
        # cannot pass the equality below: src/ emits 28 counters.
        assert len(emitted) > 20
        assert self._documented_counters() == emitted

