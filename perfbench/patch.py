"""Swap a module function or class method for a wrapper, and put the
original back afterwards. Shared by the stopwatch of untraced runs and
the span tracer of traced runs."""

from __future__ import annotations


class Patches:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def swap(self, owner, name: str, make) -> None:
        """Replace owner.name by make(original)."""
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def undo(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
