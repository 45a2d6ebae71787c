"""Runner edge cases: parse errors, ordering."""

from __future__ import annotations

import textwrap

from repro.analysis.runner import iter_python_files, lint_paths, module_name_for


def _write(root, files):
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


_BARE_EXCEPT = """
    def f():
        try:
            return 1
        except:
            pass
"""


class TestParseErrors:
    def test_parse_error_counts_file_and_keeps_linting(self, tmp_path):
        _write(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/broken.py": "def f(:\n",
                "pkg/bad.py": _BARE_EXCEPT,
            },
        )
        report = lint_paths([tmp_path])
        assert report.files_checked == 3
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["bare-except", "parse-error"]
        parse_error = next(f for f in report.findings if f.rule == "parse-error")
        assert parse_error.path.endswith("broken.py")
        assert parse_error.line >= 1 and parse_error.column >= 1

    def test_parse_error_does_not_hide_other_modules_findings(self, tmp_path):
        _write(
            tmp_path,
            {
                "app/__init__.py": "",
                "app/broken.py": "class (:\n",
                "app/shared.py": """
                    import threading

                    class Stats:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self.calls = 0

                        def record(self, n):
                            with self._lock:
                                self.calls += n

                        def reset(self):
                            self.calls = 0
                """,
            },
        )
        report = lint_paths([tmp_path])
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["parse-error", "unguarded-shared-write"]


class TestDiscovery:
    def test_iter_python_files_is_sorted_and_stable(self, tmp_path):
        _write(
            tmp_path,
            {
                "z_last.py": "x = 1\n",
                "a_first.py": "x = 1\n",
                "pkg/__init__.py": "",
                "pkg/mod.py": "x = 1\n",
                "pkg/__pycache__/cached.py": "x = 1\n",
                "notes.txt": "not python\n",
            },
        )
        first = list(iter_python_files([tmp_path]))
        second = list(iter_python_files([tmp_path]))
        assert first == second == sorted(first)
        names = [path.relative_to(tmp_path).as_posix() for path in first]
        assert names == ["a_first.py", "pkg/__init__.py", "pkg/mod.py", "z_last.py"]

    def test_explicit_file_order_is_caller_order(self, tmp_path):
        _write(tmp_path, {"b.py": "x = 1\n", "a.py": "x = 1\n"})
        listed = list(iter_python_files([tmp_path / "b.py", tmp_path / "a.py"]))
        assert [path.name for path in listed] == ["b.py", "a.py"]

    def test_module_name_for_init_is_the_package(self, tmp_path):
        _write(tmp_path, {"pkg/sub/__init__.py": "", "pkg/__init__.py": ""})
        assert module_name_for(tmp_path / "pkg" / "sub" / "__init__.py") == "pkg.sub"
        assert module_name_for(tmp_path / "pkg" / "sub" / "mod.py") == "pkg.sub.mod"
