"""QA dataset ingestion and conversion into instruction-formatted examples.

Accepts the fused ``QA_text`` CSV column ("##Question: ...## Answer: ...")
or separate question/answer columns, auto-detected from the header. Text
cleanup has two profiles: ``lm`` keeps punctuation intact for language-model
training; ``analysis`` additionally strips symbols/emoji.
"""

from __future__ import annotations

import csv
import io
import logging
import re
import unicodedata
from dataclasses import dataclass, field

from .bpe import TokenizerModel
from .errors import ConfigError, DataError
from .rng import RngState

log = logging.getLogger(__name__)

IGNORE_LABEL = -1
REDACTED = "[REDACTED]"

DEFAULT_TRAIN_TEMPLATE = "Answer the following question truthfully.\n: {question}\n: {answer}"
DEFAULT_INFER_TEMPLATE = "Answer the following question truthfully.\n: {question}\n: "

_QA_CELL = re.compile(
    r"^\s*##\s*Question\s*:\s*(?P<q>.*?)\s*##\s*Answer\s*:\s*(?P<a>.*?)\s*$",
    re.DOTALL,
)


@dataclass
class QAPair:
    question: str
    answer: str
    # its CSV row, counted as load_qa_csv does; where it came from, not what it says
    row: int | None = field(default=None, compare=False)


@dataclass
class PreprocessConfig:
    redact_patterns: list[str] = field(default_factory=list)
    augment_p: float = 0.0
    profile: str = "lm"  # lm | analysis

    def __post_init__(self):
        if self.profile not in ("lm", "analysis"):
            raise ConfigError(f"unknown profile {self.profile!r}")
        if not 0.0 <= self.augment_p <= 1.0:
            raise ConfigError(f"augment probability must be in [0,1], got {self.augment_p}")


@dataclass
class TrainingExample:
    input_ids: list[int]
    labels: list[int]  # IGNORE_LABEL on masked (prompt) positions
    row: int | None = field(default=None, compare=False)  # its pair's CSV row

    @property
    def length(self) -> int:
        return len(self.input_ids)


def load_qa_csv(path: str) -> list[QAPair]:
    """Parse a QA CSV into ordered pairs.

    Either a fused QA_text column or separate question/answer columns must
    be present. Malformed cells fail with the row number and prefix.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: invalid UTF-8 at byte offset {e.start}")
    reader = csv.DictReader(io.StringIO(text, newline=""))
    header = reader.fieldnames or []
    fused = next((h for h in header if h.strip() == "QA_text"), None)
    q_col = next((h for h in header if h.strip().lower() == "question"), None)
    a_col = next((h for h in header if h.strip().lower() == "answer"), None)
    if fused is None and not (q_col and a_col):
        raise DataError(
            f"{path}: no QA_text or question/answer columns; header was {header}"
        )
    pairs: list[QAPair] = []
    for i, row in enumerate(reader, start=2):  # 1-based, after header
        if fused is not None:
            cell = row.get(fused) or ""
            m = _QA_CELL.match(cell)
            if not m:
                raise DataError(f"{path} row {i}: cell does not match "
                                f"'##Question: ...## Answer: ...' (starts {cell[:40]!r})")
            pairs.append(QAPair(m.group("q"), m.group("a"), i))
        else:
            pairs.append(QAPair((row.get(q_col) or "").strip(),
                                (row.get(a_col) or "").strip(), i))
    if not pairs:
        log.warning("%s: no data rows after header", path)
    return pairs


def normalize_text(s: str, profile: str = "lm") -> str:
    """NFC-normalize, drop control chars (newline survives), collapse runs
    of horizontal whitespace, trim. Under profile=analysis, symbol/emoji
    characters are stripped too."""
    s = unicodedata.normalize("NFC", s)
    out = []
    for ch in s:
        cat = unicodedata.category(ch)
        if ch == "\n":
            out.append(ch)
        elif cat.startswith("C"):
            continue
        elif profile == "analysis" and cat.startswith("S"):
            continue
        else:
            out.append(ch)
    s = re.sub(r"[ \t]+", " ", "".join(out))
    s = "\n".join(line.strip() for line in s.split("\n"))
    return s.strip()


def redact(s: str, patterns: list[str]) -> str:
    """Replace every pattern match with the fixed [REDACTED] token.

    Overlaps resolve leftmost-longest across all patterns.
    """
    compiled = []
    for p in patterns:
        try:
            compiled.append(re.compile(p))
        except re.error as e:
            raise ConfigError(f"invalid redaction pattern {p!r}: {e}")
    out, i = [], 0
    while i < len(s):
        best = None
        for rx in compiled:
            m = rx.search(s, i)
            if m is None or m.start() == m.end():
                continue
            key = (m.start(), -(m.end() - m.start()))
            if best is None or key < (best.start(), -(best.end() - best.start())):
                best = m
        if best is None:
            out.append(s[i:])
            break
        out.append(s[i : best.start()])
        out.append(REDACTED)
        i = best.end()
    return "".join(out)


def preprocess_pair(pair: QAPair, cfg: PreprocessConfig) -> QAPair:
    def clean(t: str) -> str:
        if cfg.redact_patterns:
            t = redact(t, cfg.redact_patterns)
        return normalize_text(t, cfg.profile)

    return QAPair(clean(pair.question), clean(pair.answer), pair.row)


def augment_shuffle(text: str, rng: RngState, p: float) -> str:
    """With probability p per sentence, permute its whitespace-delimited
    words. Sentence boundaries ([.?!]) and order are preserved."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"p must be in [0,1], got {p}")
    if p == 0.0:
        return text
    parts = re.split(r"([.?!])", text)
    out = []
    for part in parts:
        if part in (".", "?", "!") or not part.strip():
            out.append(part)
            continue
        if float(rng.uniform(())) < p:
            words = part.split()
            if len(words) > 1:
                perm = rng.permutation(len(words))
                lead = part[: len(part) - len(part.lstrip())]
                trail = part[len(part.rstrip()) :]
                part = lead + " ".join(words[j] for j in perm) + trail
        out.append(part)
    return "".join(out)


def build_examples(
    pairs: list[QAPair],
    tokenizer: TokenizerModel,
    template: str = DEFAULT_TRAIN_TEMPLATE,
    seq_len: int = 128,
    mask_prompt: bool = True,
) -> tuple[list[TrainingExample], int]:
    """Render, tokenize and label QA pairs; returns (examples, n_truncated).

    Layout: BOS + prompt tokens + answer tokens + EOS, truncated from the
    right. With mask_prompt the prompt positions carry IGNORE_LABEL so loss
    lands only on the answer (+ EOS). A skipped pair is logged by its CSV row,
    or by its index if it has none; an example keeps its pair's row.
    """
    if "{question}" not in template:
        raise ConfigError("template must contain {question}")
    if "{answer}" not in template:
        raise ConfigError("training template must contain {answer}")
    head, tail = template.split("{answer}", 1)
    sp = tokenizer.specials
    examples: list[TrainingExample] = []
    n_truncated = 0
    for i, pair in enumerate(pairs):
        where = f"pair {i}" if pair.row is None else f"row {pair.row}"
        if not pair.answer.strip():
            log.warning("%s: empty answer after normalization, skipped", where)
            continue
        if not pair.question.strip():
            log.warning("%s: empty question after normalization, skipped", where)
            continue
        prompt_ids = tokenizer.tokenize(head.format(question=pair.question))
        answer_ids = tokenizer.tokenize(pair.answer + tail)
        ids = [sp.bos] + prompt_ids + answer_ids + [sp.eos]
        n_prompt = 1 + len(prompt_ids)
        if len(ids) > seq_len:
            ids = ids[:seq_len]
            n_truncated += 1
        if mask_prompt and len(ids) <= n_prompt:
            log.warning("%s: answer fully truncated, skipped", where)
            continue
        labels = [IGNORE_LABEL] * n_prompt + ids[n_prompt:] if mask_prompt else list(ids)
        examples.append(TrainingExample(ids, labels, pair.row))
    return examples, n_truncated
