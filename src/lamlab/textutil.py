"""Small text helpers used by filtering, matching, and feature code."""

from __future__ import annotations

import hashlib
import re
import string
from typing import Sequence

_WORD_RE = re.compile(r"[A-Za-z0-9']+")

STOPWORDS = frozenset(
    """a an and are as at be by for from has have how in into is it its of on
    or that the their then this to was were what when where which will with
    you your""".split()
)

COLOR_HEX = {
    "black": "#000000",
    "blue": "#0000FF",
    "gray": "#808080",
    "green": "#00B050",
    "orange": "#FFA500",
    "purple": "#800080",
    "red": "#FF0000",
    "white": "#FFFFFF",
    "yellow": "#FFFF00",
}


def tokens(text: str) -> list[str]:
    return [t.lower() for t in _WORD_RE.findall(text)]


def content_tokens(text: str) -> set[str]:
    """Lowercased alphanumeric tokens with stopwords removed."""
    return {t for t in tokens(text) if t not in STOPWORDS}


def word_count(text: str) -> int:
    return len(text.split())


def ascii_letter_ratio(text: str) -> float:
    """Share of alphabetic characters that are plain ASCII letters.

    Returns 0.0 for strings with no alphabetic characters at all.
    """
    letters = [c for c in text if c.isalpha()]
    if not letters:
        return 0.0
    ascii_count = sum(1 for c in letters if c in string.ascii_letters)
    return ascii_count / len(letters)


def normalize_line(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace.

    Used both for task dedup and for plan-step matching.
    """
    lowered = text.lower()
    stripped = "".join(" " if c in string.punctuation else c for c in lowered)
    return " ".join(stripped.split())


# A plan solves its task when it matches at least this share of the truth steps.
SOLVED_RECALL_THRESHOLD = 0.8


def match_plan_steps(pred: Sequence[str], truth: Sequence[str]) -> list[tuple[str, str]]:
    """Greedy one-to-one matching: each predicted step pairs with the first
    still-unmatched truth step of equal normalized text."""
    pairs = []
    used: set[int] = set()
    for p in pred:
        norm = normalize_line(p)
        for j, t in enumerate(truth):
            if j not in used and normalize_line(t) == norm:
                used.add(j)
                pairs.append((p, t))
                break
    return pairs


def plan_solved(matched: int, truth_steps: int) -> bool:
    """The task-solved rule of plan evaluation: recall over the truth steps reaches
    ``SOLVED_RECALL_THRESHOLD``; an empty truth plan is never solved."""
    return truth_steps > 0 and matched / truth_steps >= SOLVED_RECALL_THRESHOLD


def token_set(text: str) -> frozenset[str]:
    return frozenset(tokens(text))


def set_overlap(ta: frozenset[str], tb: frozenset[str]) -> float:
    """|ta ∩ tb| / |ta|, 0.0 when ta is empty."""
    if not ta:
        return 0.0
    return len(ta & tb) / len(ta)


def first_quoted(text: str) -> str | None:
    """First double-quoted (then single-quoted) span in the text."""
    m = re.search(r'"([^"]+)"', text)
    if m:
        return m.group(1)
    m = re.search(r"'([^']+)'", text)
    if m:
        return m.group(1)
    return None


def first_int(text: str) -> int | None:
    m = re.search(r"\b(\d+)\b", text)
    return int(m.group(1)) if m else None


def first_color(text: str) -> str | None:
    low = tokens(text)
    for tok in low:
        if tok in COLOR_HEX:
            return tok
    return None


def table_dims(text: str) -> tuple[int, int] | None:
    """Parse table dimensions like '3 x 2', '3 by 2' or '3 rows and 2 columns'."""
    m = re.search(r"\b(\d+)\s*(?:x|by|×)\s*(\d+)\b", text, re.IGNORECASE)
    if m:
        return int(m.group(1)), int(m.group(2))
    m = re.search(r"\b(\d+)\s+rows?\b.*?\b(\d+)\s+columns?\b", text, re.IGNORECASE)
    if m:
        return int(m.group(1)), int(m.group(2))
    return None


def stable_hash(*parts: object) -> int:
    """Deterministic cross-run 63-bit hash of the given parts (unlike ``hash()``)."""
    payload = "".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") % (1 << 63)
