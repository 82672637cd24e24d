"""Experiment report container shared by the runners and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import format_table

__all__ = ["ExperimentReport"]


@dataclass
class ExperimentReport:
    """Outcome of one experiment runner."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[tuple]
    claims_verified: bool
    notes: str = ""
    elapsed_seconds: float = 0.0

    def to_text(self) -> str:
        table = format_table(self.headers, self.rows, title=f"{self.experiment}: {self.title}")
        status = "all claims verified" if self.claims_verified else "CLAIM VIOLATION"
        footer = f"[{status}] ({self.elapsed_seconds:.1f}s)"
        if self.notes:
            footer += f"\n{self.notes}"
        return f"{table}\n{footer}"

    def to_markdown(self) -> str:
        """The table in GitHub-flavoured markdown (``--markdown``)."""
        head = "| " + " | ".join(self.headers) + " |"
        sep = "| " + " | ".join("---" for _ in self.headers) + " |"
        body = [
            "| " + " | ".join(_md_cell(c) for c in row) + " |"
            for row in self.rows
        ]
        return "\n".join([head, sep, *body])


def _md_cell(cell) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return f"{cell:.3g}"
    return str(cell)
