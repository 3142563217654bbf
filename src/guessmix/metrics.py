"""Evaluation metrics for played games and dialogue corpora.

Five numbers summarize a corpus of generated games:

  ACC  task accuracy, percent of games where the guess hits the target
  GRQ  percent of games whose dialogue repeats a question verbatim
  MO   mutual overlap, mean BLEU-4 of each question against the other
       questions of the same dialogue
  NQ   mean count per dialogue of questions never seen in training
  GR   percent of the learnable vocabulary used across all questions

BLEU-4 here is the plain no-smoothing variant: modified n-gram precisions
clipped against the best reference count, a uniform geometric mean over the
orders up to min(4, len(candidate)), zero if any used precision is zero,
and brevity penalty min(1, exp(1 - r/c)) with r the reference length
closest to c (ties broken toward the shorter reference).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

from .dialogue import Dialogue
from .jsonl import checked
from .lang import Vocabulary

Tokens = tuple[str, ...]

# questions per game in the test protocol every model plays
TEST_TURNS = 5


def ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _ngram_orders(tokens: Tokens) -> list[Counter]:
    """The candidate's n-gram counts for n = 1 .. min(4, len(tokens))."""
    return [ngram_counts(tokens, n) for n in range(1, min(4, len(tokens)) + 1)]


def _closest_length(c: int, lengths) -> int:
    """The reference length closest to c, ties broken toward the shorter."""
    return min(lengths, key=lambda rl: (abs(rl - c), rl))


def _bleu_from_clipped(clipped: list[int], c: int, r: int) -> float:
    """BLEU of a length-c candidate from its clipped match count per order
    (order n has c - n + 1 candidate n-grams) and the reference length r."""
    log_precisions = []
    for n, k in enumerate(clipped, 1):
        if k == 0:
            return 0.0
        log_precisions.append(math.log(k / (c - n + 1)))
    bp = min(1.0, math.exp(1.0 - r / c))
    return bp * math.exp(sum(log_precisions) / len(clipped))


def bleu4(candidate, references) -> float:
    """BLEU with n-gram orders capped at the candidate length, no smoothing."""
    candidate = tuple(candidate)
    references = [tuple(r) for r in references]
    if not candidate:
        raise ValueError("bleu4 candidate must be non-empty")
    if not references:
        raise ValueError("bleu4 needs at least one reference")
    clipped = []
    for n in range(1, min(4, len(candidate)) + 1):
        max_ref: Counter = Counter()
        for ref in references:
            for gram, k in ngram_counts(ref, n).items():
                if k > max_ref[gram]:
                    max_ref[gram] = k
        matched = sum(min(k, max_ref[gram]) for gram, k in ngram_counts(candidate, n).items())
        if matched == 0:
            return 0.0
        clipped.append(matched)
    c = len(candidate)
    return _bleu_from_clipped(clipped, c, _closest_length(c, (len(r) for r in references)))


def _mutual_overlap(questions: list[Tokens], orders_of: dict[Tokens, list[Counter]]) -> float:
    """Mean BLEU-4 of each of `questions` against the others, taking each
    question's n-gram counts from `orders_of` and adding those it lacks.

    Fewer than two questions have no comparison partners and score 0 by
    convention. Equal to averaging `bleu4(q, others)` over the questions,
    computed from one count per n-gram and question: a candidate's clip
    count for a gram is the largest count among the other questions, which
    is the top count unless the candidate holds it, and then the runner-up.
    """
    if len(questions) < 2:
        return 0.0
    if not all(questions):
        raise ValueError("bleu4 candidate must be non-empty")
    for q in questions:
        if q not in orders_of:
            orders_of[q] = _ngram_orders(q)
    orders = [orders_of[q] for q in questions]
    top: dict[Tokens, list[int]] = {}   # gram -> [top count, its question, runner-up]
    for i, per_order in enumerate(orders):
        for counts in per_order:
            for gram, k in counts.items():
                entry = top.get(gram)
                if entry is None:
                    top[gram] = [k, i, 0]
                elif k > entry[0]:
                    top[gram] = [k, i, entry[0]]
                elif k > entry[2]:
                    entry[2] = k
    lengths = [len(q) for q in questions]
    scores = []
    for i, per_order in enumerate(orders):
        clipped = []
        for counts in per_order:
            matched = 0
            for gram, k in counts.items():
                best, holder, runner_up = top[gram]
                matched += min(k, runner_up if holder == i else best)
            clipped.append(matched)
        c = lengths[i]
        r = _closest_length(c, lengths[:i] + lengths[i + 1:])
        scores.append(_bleu_from_clipped(clipped, c, r))
    return sum(scores) / len(scores)


def corpus_mo(corpus: list[Dialogue]) -> float:
    """Unweighted mean of the per-dialogue mutual overlap.

    A corpus repeats its questions many times over, so each distinct
    question's n-gram counts are made at its first use in the call and
    dropped after its last, which keeps only the counts still to be read.
    """
    if not corpus:
        raise ValueError("empty corpus")
    uses_left = Counter(q for d in corpus for q in d.questions())
    orders_of: dict[Tokens, list[Counter]] = {}
    scores = []
    for d in corpus:
        questions = d.questions()
        scores.append(_mutual_overlap(questions, orders_of))
        for q in questions:
            uses_left[q] -= 1
            if not uses_left[q]:
                orders_of.pop(q, None)
    return sum(scores) / len(corpus)


def grq(corpus: list[Dialogue]) -> float:
    """Percent of games with at least one verbatim repeated question."""
    if not corpus:
        raise ValueError("empty corpus")
    repeated = 0
    for d in corpus:
        questions = d.questions()
        if len(set(questions)) < len(questions):
            repeated += 1
    return 100.0 * repeated / len(corpus)


def novel_questions(corpus: list[Dialogue], training_questions: set[Tokens]) -> float:
    """Mean per-dialogue count of question occurrences unseen in training.

    A question repeated inside one dialogue counts once per occurrence.
    """
    if not corpus:
        raise ValueError("empty corpus")
    total = 0
    for d in corpus:
        total += sum(1 for q in d.questions() if q not in training_questions)
    return total / len(corpus)


def global_recall(corpus: list[Dialogue], vocab: Vocabulary) -> float:
    """Percent of learnable vocabulary words used in the corpus questions."""
    learnable = set(vocab.learnable_words)
    if not learnable:
        raise ValueError("vocabulary has no learnable words")
    used = set()
    for d in corpus:
        for q in d.questions():
            used.update(q)
    return 100.0 * len(used & learnable) / len(learnable)


def accuracy(games) -> float:
    """Percent of games whose guess hit the target."""
    if not games:
        raise ValueError("no games to score")
    return 100.0 * sum(1 for g in games if g.success) / len(games)


def column(csv: str, label: str | None = None, md: str | None = None):
    """A result row's field, with the format spec of its CSV cell and, for a
    row that also has a markdown table, its header `label` and cell spec `md`."""
    return field(metadata={"csv": csv, "label": label, "md": md})


@dataclass
class ReportRow:
    pct_human: float = column("g", "% human", "g")
    pct_generated: float = column("g", "% generated", "g")
    length_mode: str = column("", "length", "")
    acc: float = column(".2f", "ACC ↑", ".1f")
    grq: float = column(".2f", "GRQ ↓", ".1f")
    mo: float = column(".4f", "MO ↓", ".2f")
    nq: float = column(".2f", "NQ ↑", ".2f")
    gr: float = column(".2f", "GR ↑", ".1f")


def evaluate(
    questioner,
    test_scenes,
    oracle_cfg,
    training_questions: set[Tokens],
    turns: int = TEST_TURNS,
    seed: int = 0,
    pct_human: float = 100.0,
    length_mode: str = "-",
) -> ReportRow:
    """Play every test scene for `turns` questions, then score all metrics.

    `training_questions` and the questioner's vocabulary must come from the
    corpus the model was trained on; NQ and GR are defined relative to them.
    """
    from . import selfplay  # deferred: selfplay sits on top of the model stack

    games = selfplay.play_games(questioner, test_scenes, oracle_cfg, turns, seed)
    played = [g.dialogue for g in games]
    return ReportRow(
        pct_human=pct_human,
        pct_generated=100.0 - pct_human,
        length_mode=length_mode,
        acc=accuracy(games),
        grq=grq(played),
        mo=corpus_mo(played),
        nq=novel_questions(played, training_questions),
        gr=global_recall(played, questioner.vocab),
    )


def format_row(row) -> str:
    """The CSV line of a result row: each field in its column's format."""
    return ",".join(format(getattr(row, f.name), f.metadata["csv"]) for f in fields(row))


format_report_row = format_row


def write_rows_csv(path: str | Path, cls, rows) -> None:
    """A CSV table of result rows of dataclass `cls`: a header of its field
    names, then one `format_row` line per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(fd.name for fd in fields(cls)) + "\n")
        for row in rows:
            f.write(format_row(row) + "\n")


def write_report_csv(path: str | Path, rows: list[ReportRow]) -> None:
    write_rows_csv(path, ReportRow, rows)


def row_from_record(cls, rec: dict):
    """The result row of dataclass `cls` held by a decoded record: exactly
    its fields, a string in each text field and a number in every other."""
    if set(rec) != {f.name for f in fields(cls)}:
        raise ValueError(f"keys {sorted(rec)} are not the fields of {cls.__name__}")
    return cls(**{f.name: checked(rec[f.name], str) if f.type in (str, "str")
                  else checked(rec[f.name], int, float) for f in fields(cls)})


def checked_report_row(rec: dict) -> ReportRow:
    """The report row a decoded record holds, if `evaluate` could have made
    it under the test protocol: shares p and 100 - p for a p in [0, 100], a
    whole p below 100 with length mode fixed or variable, ACC, GRQ and GR in
    [0, 100], MO in [0, 1] and NQ in [0, TEST_TURNS]; else a ValueError."""
    from .corpus import LENGTH_MODES, LENGTH_NONE  # deferred: corpus imports metrics

    row = row_from_record(ReportRow, rec)
    for name, top in dict(pct_human=100, acc=100, grq=100, gr=100, mo=1, nq=TEST_TURNS).items():
        if not 0 <= getattr(row, name) <= top:
            raise ValueError(f"{name} {getattr(row, name)} is outside [0, {top}]")
    mixed = row.length_mode != LENGTH_NONE
    if (row.pct_generated != 100 - row.pct_human or row.length_mode not in LENGTH_MODES
            or mixed and (row.pct_human == 100 or row.pct_human % 1)):
        raise ValueError(f"{row.pct_human}/{row.pct_generated}/{row.length_mode} is no mix label")
    return row


def report_markdown(rows: list[ReportRow], title: str) -> str:
    """Aligned table with direction markers: higher ACC/NQ/GR and lower
    GRQ/MO are better."""
    header = [f.metadata["label"] for f in fields(ReportRow)]
    lines = [f"## {title}", ""]
    cells = [header, ["---"] * len(header)]
    cells += [[format(getattr(r, f.name), f.metadata["md"]) for f in fields(r)] for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    for row in cells:
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    lines.append("")
    lines.append("↑ higher is better, ↓ lower is better.")
    return "\n".join(lines) + "\n"
