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
from dataclasses import dataclass
from pathlib import Path

from .dialogue import Dialogue
from .lang import Vocabulary

Tokens = tuple[str, ...]


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


@dataclass
class ReportRow:
    pct_human: float
    pct_generated: float
    length_mode: str
    acc: float
    grq: float
    mo: float
    nq: float
    gr: float


def evaluate(
    questioner,
    test_scenes,
    oracle_cfg,
    training_questions: set[Tokens],
    turns: int = 5,
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


REPORT_HEADER = "pct_human,pct_generated,length_mode,acc,grq,mo,nq,gr"


def format_report_row(row: ReportRow) -> str:
    return (
        f"{row.pct_human:g},{row.pct_generated:g},{row.length_mode},"
        f"{row.acc:.2f},{row.grq:.2f},{row.mo:.4f},{row.nq:.2f},{row.gr:.2f}"
    )


def write_report_csv(path: str | Path, rows: list[ReportRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(REPORT_HEADER + "\n")
        for row in rows:
            f.write(format_report_row(row) + "\n")


def report_markdown(rows: list[ReportRow], title: str) -> str:
    """Aligned table with direction markers: higher ACC/NQ/GR and lower
    GRQ/MO are better."""
    header = ["% human", "% generated", "length",
              "ACC ↑", "GRQ ↓", "MO ↓", "NQ ↑", "GR ↑"]
    lines = [f"## {title}", ""]
    cells = [header, ["---"] * len(header)]
    for r in rows:
        cells.append([
            f"{r.pct_human:g}", f"{r.pct_generated:g}", r.length_mode,
            f"{r.acc:.1f}", f"{r.grq:.1f}", f"{r.mo:.2f}", f"{r.nq:.2f}", f"{r.gr:.1f}",
        ])
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    for row in cells:
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    lines.append("")
    lines.append("↑ higher is better, ↓ lower is better.")
    return "\n".join(lines) + "\n"
