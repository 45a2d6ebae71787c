"""--list-rules output and the generated docs table agree with the registry."""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.reporting import (
    iter_rule_rows,
    render_rule_list,
    render_rule_reference,
)
from repro.analysis.rules import rule_ids

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRuleRows:
    def test_rows_cover_the_registry_and_pseudo_rules(self):
        rows = list(iter_rule_rows())
        by_kind = {}
        for row in rows:
            by_kind.setdefault(row.kind, []).append(row.id)
        assert set(by_kind) == {"module", "runner"}
        assert tuple(by_kind["module"]) == rule_ids()
        assert set(by_kind["runner"]) == {"parse-error", "unused-suppression"}

    def test_every_row_has_metadata(self):
        for row in iter_rule_rows():
            assert row.id and row.description and row.rationale, row.id

    def test_ids_are_unique(self):
        ids = [row.id for row in iter_rule_rows()]
        assert len(ids) == len(set(ids))


class TestListRules:
    def test_list_output_names_every_rule(self):
        rendered = render_rule_list()
        for row in iter_rule_rows():
            assert f"{row.id}  ({row.kind} rule, {row.severity!s})" in rendered
            assert row.description in rendered


class TestDocsAgreement:
    def _docs_table(self) -> str:
        docs = (REPO_ROOT / "docs" / "linting.md").read_text(encoding="utf-8")
        match = re.search(
            r"<!-- rule-table:begin -->\n(.*?)\n<!-- rule-table:end -->",
            docs,
            flags=re.DOTALL,
        )
        assert match, "docs/linting.md must contain the rule-table markers"
        return match.group(1)

    def test_generated_table_matches_docs(self):
        assert self._docs_table() == render_rule_reference()

    def test_catalogue_prose_covers_every_rule(self):
        docs = (REPO_ROOT / "docs" / "linting.md").read_text(encoding="utf-8")
        for rule_id in rule_ids():
            assert f"### `{rule_id}`" in docs, f"docs missing section for {rule_id}"
