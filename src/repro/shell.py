"""Interactive QPIAD shell — the analogue of the paper's live demo (§6.1).

The paper's prototype exposed a web form that returned ranked possible
answers with confidences and could "explain its relevance assessment by
providing snippets of its reasoning" (the AFD used).  This module provides
the same experience at a terminal:

    $ qpiad shell cars.csv
    qpiad> query body_style=Convt
    qpiad> explain 2
    qpiad> afds body_style
    qpiad> relax make=Porsche price=6000..9000
    qpiad> set alpha 1.0

Built on :mod:`cmd` so it is scriptable and unit-testable (commands are
plain methods; output goes through ``self.stdout``).
"""

from __future__ import annotations

import cmd
from pathlib import Path

from repro.core.qpiad import QpiadConfig, QpiadMediator
from repro.core.relaxation import QueryRelaxer
from repro.core.results import QueryResult
from repro.errors import QpiadError
from repro.mining.knowledge import KnowledgeBase
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation
from repro.sources.autonomous import AutonomousSource

__all__ = ["QpiadShell"]


class QpiadShell(cmd.Cmd):
    """One interactive session against one database."""

    intro = (
        "QPIAD interactive shell — type 'help' for commands, 'quit' to leave."
    )
    prompt = "qpiad> "

    def __init__(
        self,
        relation: Relation,
        knowledge: KnowledgeBase,
        source_name: str = "database",
        **cmd_kwargs,
    ):
        super().__init__(**cmd_kwargs)
        self.relation = relation
        self.knowledge = knowledge
        self.source = AutonomousSource(source_name, relation)
        self.alpha = 0.0
        self.k = 10
        self.last_result: QueryResult | None = None

    # -- helpers ---------------------------------------------------------

    def _emit(self, text: str) -> None:
        self.stdout.write(text + "\n")

    def _parse_query(self, line: str) -> SelectionQuery:
        from repro.cli import _parse_where

        specs = line.split()
        if not specs:
            raise QpiadError("expected one or more ATTR=VALUE terms")
        return SelectionQuery.conjunction(
            [_parse_where(spec, self.relation) for spec in specs]
        )

    def _mediate(self, query: SelectionQuery) -> None:
        """The retrieval path shared by ``query`` and ``sql``."""
        try:
            mediator = QpiadMediator(
                self.source,
                self.knowledge,
                QpiadConfig(alpha=self.alpha, k=self.k),
            )
            result = mediator.query(query)
        except QpiadError as exc:
            self._emit(f"error: {exc}")
            return
        self.last_result = result
        self._emit(f"{len(result.certain)} certain answers; first 3:")
        for row in result.certain.rows[:3]:
            self._emit(f"  {row}")
        self._emit(f"{len(result.ranked)} ranked possible answers; top 5:")
        for position, answer in enumerate(result.top(5), start=1):
            self._emit(f"  [{position}] conf={answer.confidence:.3f}  {answer.row}")
        self._emit(
            f"cost: {result.stats.queries_issued} queries, "
            f"{result.stats.tuples_retrieved} tuples"
        )

    # -- commands ---------------------------------------------------------

    def do_query(self, line: str) -> None:
        """query ATTR=VALUE [ATTR=LOW..HIGH ...] — mediate a selection query."""
        try:
            query = self._parse_query(line)
        except QpiadError as exc:
            self._emit(f"error: {exc}")
            return
        self._mediate(query)

    def do_sql(self, line: str) -> None:
        """sql CONDITION — mediate a SQL-style query, e.g.
        sql make = 'Honda' AND price BETWEEN 15000 AND 20000"""
        from repro.query.sqlparse import parse_selection

        try:
            query = parse_selection(line)
        except QpiadError as exc:
            self._emit(f"error: {exc}")
            return
        self._mediate(query)

    def do_explain(self, line: str) -> None:
        """explain N — justify the Nth ranked answer of the last query."""
        if self.last_result is None or not self.last_result.ranked:
            self._emit("no ranked answers yet; run a query first")
            return
        try:
            position = int(line.strip() or "1")
            answer = self.last_result.ranked[position - 1]
        except (ValueError, IndexError):
            self._emit(
                f"expected a rank between 1 and {len(self.last_result.ranked)}"
            )
            return
        self._emit(answer.explain())
        self._emit(f"retrieved by: {answer.retrieved_by}")

    def do_afds(self, line: str) -> None:
        """afds [ATTRIBUTE] — show mined AFDs (optionally for one attribute)."""
        attribute = line.strip() or None
        afds = (
            self.knowledge.afds_for(attribute)
            if attribute
            else list(self.knowledge.afds)
        )
        if not afds:
            self._emit("no AFDs" + (f" for {attribute!r}" if attribute else ""))
            return
        for afd in afds[:15]:
            self._emit(f"  {afd}")

    def do_relax(self, line: str) -> None:
        """relax ATTR=VALUE ATTR=VALUE ... — relax an over-constrained query."""
        try:
            query = self._parse_query(line)
            relaxer = QueryRelaxer(self.source, self.knowledge)
            answers = relaxer.query(query, target_count=5)
        except QpiadError as exc:
            self._emit(f"error: {exc}")
            return
        for answer in answers[:5]:
            violated = ", ".join(answer.violated) or "-"
            self._emit(f"  sim={answer.similarity:.2f} violates:{violated}  {answer.row}")

    def do_set(self, line: str) -> None:
        """set alpha|k VALUE — tune the F-measure weight or query budget."""
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("alpha", "k"):
            self._emit("usage: set alpha|k VALUE")
            return
        try:
            if parts[0] == "alpha":
                value = float(parts[1])
                if value < 0:
                    raise ValueError
                self.alpha = value
            else:
                self.k = int(parts[1])
        except ValueError:
            self._emit(f"invalid value {parts[1]!r}")
            return
        self._emit(f"{parts[0]} = {parts[1]}")

    def do_stats(self, line: str) -> None:
        """stats — incompleteness statistics of the database."""
        from repro.evaluation.stats import incompleteness_report

        report = incompleteness_report(self.source.name, self.relation)
        self._emit(f"tuples: {report.total_tuples}")
        self._emit(f"incomplete tuples: {report.incomplete_tuples_pct:.2f}%")
        for name, pct in sorted(
            report.attribute_null_pct.items(), key=lambda kv: -kv[1]
        ):
            if pct > 0:
                self._emit(f"  NULL {name}: {pct:.2f}%")

    def do_quit(self, line: str) -> bool:
        """quit — leave the shell."""
        return True

    do_exit = do_quit
    do_EOF = do_quit

    def emptyline(self) -> None:  # do not repeat the last command on Enter
        pass

    def default(self, line: str) -> None:
        self._emit(f"unknown command {line.split()[0]!r}; try 'help'")


def run_shell(data_path: "str | Path", kb_path: "str | Path | None" = None) -> int:
    """Entry point used by ``qpiad shell``."""
    from repro.cli import _load_or_mine

    relation, knowledge = _load_or_mine(data_path, kb_path)
    QpiadShell(relation, knowledge, source_name=Path(data_path).name).cmdloop()
    return 0
