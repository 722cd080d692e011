"""Pushback character reader used by the m4 engine.

Macro expansion output is pushed back onto the input and rescanned, so
the reader is a stack of string frames.  Reading consumes from the top
frame; pushing adds a new frame above it.  The count of unread
characters is tracked incrementally so the engine's runaway-expansion
guard is O(1) per scan step.
"""

from __future__ import annotations

import re


class PushbackReader:
    """A character stream supporting arbitrary pushback of strings."""

    __slots__ = ("_frames", "_pending")

    def __init__(self, text: str = "") -> None:
        # Each frame is [string, position]; top of stack is last element.
        self._frames: list[list] = []
        self._pending = 0
        if text:
            self._frames.append([text, 0])
            self._pending = len(text)

    def push(self, text: str) -> None:
        """Push ``text`` so that it is read before any pending input."""
        if text:
            self._frames.append([text, 0])
            self._pending += len(text)

    def at_eof(self) -> bool:
        return self._pending == 0

    def peek(self) -> str:
        """Return the next character without consuming it ('' at EOF)."""
        self._trim()
        if not self._frames:
            return ""
        text, pos = self._frames[-1]
        return text[pos]

    def next(self) -> str:
        """Consume and return the next character ('' at EOF)."""
        self._trim()
        if not self._frames:
            return ""
        frame = self._frames[-1]
        ch = frame[0][frame[1]]
        frame[1] += 1
        self._pending -= 1
        return ch

    def match(self, literal: str) -> bool:
        """Consume ``literal`` if the stream starts with it.

        Works across frame boundaries (an expansion may end mid-token
        with the remainder in the frame below).
        """
        if not literal:
            return False
        if len(literal) == 1:
            # Fast path for single-character quotes (the common case).
            if self.peek() == literal:
                self.next()
                return True
            return False
        consumed: list[str] = []
        for want in literal:
            got = self.next()
            consumed.append(got)
            if got != want:
                # Roll back everything we consumed (EOF '' joins away).
                self.push("".join(consumed))
                return False
        return True

    def read_run(self, pattern: re.Pattern) -> str:
        """Consume the longest run of characters matching ``pattern``.

        ``pattern`` matches a possibly empty run of one character class
        (``[...]*``), so a run that reaches the end of the top frame
        carries on into the frame below: a word may begin in an
        expansion and end in the text after it.
        """
        frames = self._frames
        parts: list[str] = []
        while frames:
            frame = frames[-1]
            text, pos = frame
            end = pattern.match(text, pos).end()
            parts.append(text[pos:end])
            frame[1] = end
            self._pending -= end - pos
            if end < len(text):
                break
            frames.pop()
        return "".join(parts)

    def pending_length(self) -> int:
        """Total unread characters (used for runaway-expansion guards)."""
        return self._pending

    def _trim(self) -> None:
        frames = self._frames
        while frames and frames[-1][1] >= len(frames[-1][0]):
            frames.pop()
