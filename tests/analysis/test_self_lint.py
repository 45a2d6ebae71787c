"""Tier-1 gate: the reproduction's own source must lint clean.

This is the tentpole wiring — every invariant rule runs over ``src/repro``
and any unsuppressed finding fails the build.  Suppressions are allowed
(they carry justifications in the source) but must actually be exercised;
a stale suppression should be deleted, not accumulated.
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
    # Every suppression is a reviewed exemption; if this number creeps up,
    # the autonomy discipline is eroding.  Raise it only with a justification
    # comment at the new suppression site.  Raised 10 -> 15 with the
    # raw-source-call-in-core rule; the planner extraction then ported the
    # baselines and the relaxer onto the engine (six suppressions deleted)
    # and added two for the raw-rewrite-call-in-core rule's public-API
    # re-exports in repro.core.__init__, landing at ten.  Raised 12 -> 18
    # with the row-loop-in-mining rule: the six row-plane reference loops
    # in repro.mining (partition_by, Partition.refine, g3_error, TANE joint
    # support, NBC training and batch scoring) are the semantics the
    # columnar kernels must reproduce bit-for-bit, so each stays — with a
    # justification — as a reviewed exemption.  Lowered 18 -> 10 when the
    # columnar kernels became the only implementation: the five row-plane
    # loops, the repro.core.ranking shim's re-export and the executor's
    # per-row count loop went away.  Lowered 10 -> 9 when repro.core
    # stopped re-exporting the rewriting stage: its callers import
    # repro.core.rewriting directly, so the re-export's suppression went.
    # Lowered 9 -> 8 when the federation's certain-only probe of an
    # unmined source became an engine base call: no raw-source-call-in-core
    # suppression is left.  Lowered 8 -> 6 when the rewrite generators
    # stopped holding a knowledge base and took the planner's per-call
    # snapshot as an argument: no stale-knowledge-capture suppression is
    # left.
    report = lint_paths([SRC])
    assert report.suppressed_count <= 6
