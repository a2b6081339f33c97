"""Seeded input generators for the ``pipeline_scaled`` and ``agent_online``
workloads.

Both generators are pure functions of the seed: the same seed yields the
same records in the same order, and :func:`canonical_bytes` of that output
is byte-identical across runs and machines. The program under test only ever
sees these generated records, never the seed.
"""

from __future__ import annotations

import json
import random
import string
from collections import Counter

# Raw task-plan corpus -------------------------------------------------------

RAW_SOURCES = ("doc", "wikihow", "query")

# Nouns that name a document; each shares a content word with one or more of
# the bundled template descriptions, so template selection never fails.
_DOCS = (
    "document",
    "report document",
    "quarterly report",
    "long report",
    "figure document",
    "picture document",
    "chart document",
    "sales chart document",
    "table document",
    "quarterly data table",
    "document with reviewer comments",
    "plain text document",
    "rectangle shape document",
    "shape drawing",
)

_THINGS = (
    "title",
    "heading",
    "first sentence",
    "key sentence about the budget",
    "caption",
    "summary line",
    "data heading",
    "opening paragraph",
    "closing remark",
    "short note",
    "subtitle",
    "author line",
    "section name",
    "warning line",
)

_COLORS = ("red", "blue", "green", "purple", "orange", "gray")
_HIGHLIGHTS = ("yellow", "green", "red", "gray")
_PHRASES = (
    "Meeting moved to Friday",
    "Action items follow",
    "Draft summary line",
    "Reviewed and approved",
    "Budget numbers pending",
    "Final checks done",
    "Send to the team",
    "See appendix for details",
    "Numbers rounded to thousands",
    "Prepared by the finance desk",
)

# Intent -> (task patterns, plan-step pool). Patterns take keyword fields
# drawn per record; plans draw 2-4 steps from the pool in order.
_INTENTS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "highlight": (
        ("Highlight the {thing} in {hl} in the {doc}",
         "How to highlight the {thing} in {hl} in a {doc}",
         "highlight the {thing} in my {doc} in {hl}"),
        ("Find the {thing}.", "Select it.", "Open the highlight menu.", "Pick {hl}."),
    ),
    "bold": (
        ("Make the {thing} bold in the {doc}",
         "How to make the {thing} bold in a {doc}",
         "bold the {thing} of my {doc}"),
        ("Pick the {thing}.", "Select the text.", "Press the Bold button on the Home tab."),
    ),
    "size": (
        ("Change the font size of the {thing} to {size} in the {doc}",
         "How to set the {thing} to font size {size} in a {doc}",
         "set font size {size} for the {thing} in my {doc}"),
        ("Pick the {thing}.", "Open the font size box.", "Enter {size}.", "Press Enter."),
    ),
    "color": (
        ("Change the font color of the {thing} to {color} in the {doc}",
         "How to turn the {thing} {color} with font color in a {doc}",
         "make the {thing} font color {color} in my {doc}"),
        ("Pick the {thing}.", "Open the font color menu.", "Choose {color}."),
    ),
    "table": (
        ("Insert a {rows} by {cols} table into the {doc}",
         "How to add a {rows} x {cols} table to a {doc}",
         "add a {rows} x {cols} table for the numbers in my {doc}"),
        ("Open the Insert tab.", "Click Table.", "Pick a {rows} by {cols} grid."),
    ),
    "type": (
        ('Type the text "{phrase}" at the end of the {doc}',
         'How to write the note "{phrase}" at the end of a {doc}',
         'append the line "{phrase}" to my {doc}'),
        ("Move the cursor to the end.", "Start a new line.", "Enter the text."),
    ),
    "border": (
        ("Add a box border around the page of the {doc}",
         "How to add a page border to a {doc} near the {thing}",
         "put a box border on the page with the {thing} in my {doc}"),
        ("Open the Design tab.", "Click Page Borders.", "Pick the box setting.", "Select OK."),
    ),
    "comment": (
        ("Add a comment on the {thing} in the {doc}",
         "How to leave a comment for the reviewer on the {thing} in a {doc}",
         "comment on the {thing} in my {doc}"),
        ("Pick the {thing}.", "Open the Review tab.", "Insert a new comment."),
    ),
    "scroll": (
        ("Scroll down to the {thing} near the end of the {doc}",
         "How to scroll to the {thing} at the bottom of a {doc}",
         "scroll down to the {thing} in my {doc}"),
        ("Grab the scroll bar.", "Drag it down.", "Stop at the {thing}."),
    ),
    "picture": (
        ("Insert a picture below the {thing} in the {doc}",
         "How to add an image under the {thing} in a {doc}",
         "insert a picture after the {thing} in my {doc}"),
        ("Open the Insert tab.", "Click Pictures.", "Pick a picture from disk."),
    ),
}

# Records that normalization must drop, mixed in at a fixed share so the
# normalize stage's filters do real work (duplicates, off-platform topics,
# too-short tasks, non-English text).
NOISE_SHARE = 0.1
_OFF_PLATFORM = ("on my iphone", "on android", "on a chromebook", "on my ipad")
_SHORT = ("Bold it", "Add table", "Color it", "Highlight", "Scroll")
_FOREIGN = (
    "Κάνε τον τίτλο έντονο στο έγγραφο",
    "Вставьте таблицу в документ отчёта",
    "Выделите заголовок жёлтым цветом",
    "Αλλάξτε το χρώμα της γραμματοσειράς",
)


def _fields(rng: random.Random) -> dict[str, object]:
    return {
        "thing": rng.choice(_THINGS),
        "doc": rng.choice(_DOCS),
        "hl": rng.choice(_HIGHLIGHTS),
        "color": rng.choice(_COLORS),
        "size": rng.randint(8, 72),
        "rows": rng.randint(1, 9),
        "cols": rng.randint(1, 9),
        "phrase": rng.choice(_PHRASES),
    }


def _clean_record(rng: random.Random, intent: str, source_index: int) -> dict:
    patterns, pool = _INTENTS[intent]
    fields = _fields(rng)
    task = patterns[source_index].format(**fields)
    n_steps = rng.randint(2, min(4, len(pool)))
    start = rng.randint(0, len(pool) - n_steps)
    plan = [step.format(**fields) for step in pool[start : start + n_steps]]
    return {"task": task, "plan": plan, "source": RAW_SOURCES[source_index]}


def _stratified(rng: random.Random, cells: list, n: int) -> list:
    """``n`` cells, every cell used ``n // len(cells)`` times and a random
    ``n % len(cells)`` of them once more, in random order. Fixing the mix
    keeps the amount of work nearly equal across seeds."""
    picks = cells * (n // len(cells)) + rng.sample(cells, n % len(cells))
    rng.shuffle(picks)
    return picks


def _key(task: str) -> str:
    """Case, punctuation and spacing folded, as the normalize stage dedupes."""
    folded = "".join(" " if c in string.punctuation else c for c in task.lower())
    return " ".join(folded.split())


def raw_corpus(seed: int, n_records: int = 400) -> list[dict]:
    """``n_records`` raw task-plan records: distinct clean tasks plus a
    ``NOISE_SHARE`` of records the normalize stage drops."""
    rng = random.Random(f"raw-corpus:{seed}")
    n_noise = round(n_records * NOISE_SHARE)
    cells = [(intent, s) for intent in sorted(_INTENTS) for s in range(len(RAW_SOURCES))]
    clean: list[dict] = []
    seen: set[str] = set()
    for intent, source_index in _stratified(rng, cells, n_records - n_noise):
        record = _clean_record(rng, intent, source_index)
        while _key(record["task"]) in seen:
            record = _clean_record(rng, intent, source_index)
        seen.add(_key(record["task"]))
        clean.append(record)

    noise: list[dict] = []
    for i in range(n_noise):
        kind = i % 4
        if kind == 0:  # exact duplicate of a clean task
            noise.append(dict(rng.choice(clean)))
        elif kind == 1:
            base = rng.choice(clean)
            noise.append({**base, "task": base["task"] + " " + rng.choice(_OFF_PLATFORM)})
        elif kind == 2:
            noise.append({"task": rng.choice(_SHORT), "plan": ["Do it."], "source": "query"})
        else:
            noise.append({"task": rng.choice(_FOREIGN), "plan": ["Do it."], "source": "doc"})

    records = clean + noise
    rng.shuffle(records)
    return [{**r, "task_id": f"gen_{i:04d}"} for i, r in enumerate(records)]


# Agent tasks ----------------------------------------------------------------

# The first paragraph run of each bundled template: the text a formatting
# task must quote to be achievable on that template.
TEMPLATE_TARGETS = {
    "chart_doc": "Sales overview text",
    "comments_doc": "Reviewed draft paragraph",
    "figure_doc": "Figure caption text",
    "plain_text": "Test For Fun",
    "rect_shape": "Shape demo text",
    "report_doc": "Quarterly Report",
    "table_doc": "Quarterly data overview",
}

# The eight task families of the bundled suite, with the suite's wording.
AGENT_FAMILIES = {
    "highlight": 'Highlight the text "{target}" in {hl} in the document.',
    "bold": 'Make the text "{target}" bold in the document.',
    "size": 'Set the font size of the text "{target}" to {size} in the document.',
    "color": 'Change the font color of the text "{target}" to {color} in the document.',
    "table": "Insert a {rows} x {cols} table at the end of the document.",
    "border": "Add a box page border to the document.",
    "type": 'Type the text "{phrase}" at the end of the document.',
    "combo": 'Make the text "{target}" bold and set its font size to {size} in the document.',
}


def agent_tasks(seed: int, n_tasks: int = 504) -> list[dict]:
    """``n_tasks`` agent tasks spread evenly over the 7 templates x 8 suite
    families, with colour, font size, table size, typed text and the quoted
    target span (the whole first run or its tail words) re-drawn."""
    rng = random.Random(f"agent-tasks:{seed}")
    cells = [(t, f) for t in sorted(TEMPLATE_TARGETS) for f in sorted(AGENT_FAMILIES)]
    tasks = []
    for i, (template_id, family) in enumerate(_stratified(rng, cells, n_tasks)):
        words = TEMPLATE_TARGETS[template_id].split()
        target = " ".join(words[rng.randrange(len(words) - 1) :])
        fields = {**_fields(rng), "target": target}
        tasks.append(
            {
                "task_id": f"agent_{i:04d}",
                "family": family,
                "template_id": template_id,
                "task": AGENT_FAMILIES[family].format(**fields),
            }
        )
    return tasks


# Shared helpers --------------------------------------------------------------


def canonical_bytes(records: list[dict]) -> bytes:
    """One sorted-key JSON object per line, UTF-8: the generators' wire form."""
    return "".join(
        json.dumps(r, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"
        for r in records
    ).encode("utf-8")


def input_stats(records: list[dict]) -> dict:
    """Distinct texts, and the share of records whose text repeats an
    earlier one (compared as :func:`_key` folds them)."""
    keys = [_key(r["task"]) for r in records]
    distinct = len(set(keys))
    stats = {
        "records": len(records),
        "distinct_texts": distinct,
        "repeated_share": (len(keys) - distinct) / len(keys) if keys else 0.0,
    }
    for field in ("template_id", "family", "source"):
        if records and field in records[0]:
            stats[f"{field}_counts"] = dict(sorted(Counter(r[field] for r in records).items()))
    return stats
