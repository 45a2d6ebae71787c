"""Tier-1 gate: the reproduction's own source must lint clean.

Every invariant rule runs over ``src/repro`` and any unsuppressed finding
fails the build.  Suppressions are allowed (they carry justifications in
the source) but must actually be exercised: a stale one is itself an
``unused-suppression`` finding.
"""

from pathlib import Path

from repro.analysis import lint_paths, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_source_tree_exists():
    assert SRC.is_dir(), f"expected source tree at {SRC}"


def test_src_repro_lints_clean():
    report = lint_paths([SRC])
    assert report.files_checked > 50  # the whole tree, not a subset
    assert report.findings == [], "\n" + render_text(report)


def test_suppressions_stay_bounded():
    # The one exemption is result assembly, not base-data access: the
    # correlated mediator's empty certain set hands answers back as a
    # Relation by contract.
    report = lint_paths([SRC])
    assert report.suppressed_count <= 1
