"""The finding type shared by the lint rules and reporters."""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to a source location.

    Attributes
    ----------
    rule:
        Rule identifier (``R001`` .. ``R102``; ``R000`` for parse errors).
    path:
        The file as given on the command line.
    line / col:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable explanation with the sanctioned alternative.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict[str, object]:
        return asdict(self)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
