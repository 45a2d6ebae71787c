"""Runner behaviour: discovery, module naming, the rule registry."""

from repro.analysis import lint_paths, rule_ids
from repro.analysis.runner import iter_python_files, module_name_for


def _write(root, relative, text=""):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


class TestDiscovery:
    def test_iter_python_files_is_sorted_and_skips_caches(self, tmp_path):
        _write(tmp_path, "pkg/b.py")
        _write(tmp_path, "pkg/a.py")
        _write(tmp_path, "pkg/__pycache__/a.cpython-310.py")
        _write(tmp_path, "pkg/notes.txt")
        names = [p.name for p in iter_python_files([tmp_path])]
        assert names == ["a.py", "b.py"]

    def test_single_file_path_is_accepted(self, tmp_path):
        target = _write(tmp_path, "one.py", "x = 1\n")
        assert list(iter_python_files([target])) == [target]


class TestModuleNameFor:
    def test_walks_up_package_tree(self, tmp_path):
        _write(tmp_path, "repro/__init__.py")
        _write(tmp_path, "repro/core/__init__.py")
        module = _write(tmp_path, "repro/core/qpiad.py")
        assert module_name_for(module) == "repro.core.qpiad"

    def test_init_py_names_the_package_itself(self, tmp_path):
        _write(tmp_path, "repro/__init__.py")
        init = _write(tmp_path, "repro/core/__init__.py")
        assert module_name_for(init) == "repro.core"

    def test_bare_script_is_its_stem(self, tmp_path):
        script = _write(tmp_path, "script.py")
        assert module_name_for(script) == "script"


class TestLintPaths:
    def test_parse_error_becomes_a_finding(self, tmp_path):
        _write(tmp_path, "broken.py", "def oops(:\n")
        report = lint_paths([tmp_path])
        assert [f.rule for f in report.findings] == ["parse-error"]
        assert report.exit_code == 1

    def test_without_package_suppression_the_finding_surfaces(self, tmp_path):
        _write(tmp_path, "repro/__init__.py")
        _write(tmp_path, "repro/core/__init__.py")
        _write(tmp_path, "repro/core/build.py", "r = Relation(schema, rows)\n")
        report = lint_paths([tmp_path])
        assert [f.rule for f in report.findings] == ["raw-relation-access"]


class TestRuleSelection:
    def test_rule_ids_lists_every_registered_rule(self):
        ids = rule_ids()
        assert len(ids) == 10
        assert "null-compare" in ids
        assert "row-loop-in-mining" in ids
        assert "stale-knowledge-capture" in ids
        assert "raw-source-call-in-core" in ids
        assert "unguarded-shared-write" in ids
