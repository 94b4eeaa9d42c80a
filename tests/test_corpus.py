"""CSV ingestion, normalization, redaction, augmentation, and prompt
masking arithmetic."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinypeft.bpe import train_bpe
from tinypeft.corpus import (
    DEFAULT_INFER_TEMPLATE,
    DEFAULT_TRAIN_TEMPLATE,
    IGNORE_LABEL,
    REDACTED,
    PreprocessConfig,
    QAPair,
    augment_shuffle,
    build_examples,
    load_qa_csv,
    normalize_text,
    preprocess_pair,
    redact,
)
from tinypeft.errors import ConfigError, DataError
from tinypeft.rng import RngState


def test_bundled_corpus_size(qa_pairs):
    assert len(qa_pairs) >= 135


def test_fused_cell_parsing(tmp_path):
    p = tmp_path / "qa.csv"
    p.write_text('QA_text\n"##Question: What is an Index?## Answer: '
                 'A statistical measure of change."\n')
    pairs = load_qa_csv(str(p))
    assert pairs == [QAPair("What is an Index?", "A statistical measure of change.")]


def test_separate_columns(tmp_path):
    p = tmp_path / "qa.csv"
    p.write_text("question,answer\nWhat is risk?,Chance of loss.\n")
    pairs = load_qa_csv(str(p))
    assert pairs[0].answer == "Chance of loss."


def test_cells_keep_their_line_breaks(tmp_path):
    # a quoted cell spans lines, and the other characters str.splitlines
    # breaks at are cell text
    breaks = "\u2028\u2029\x0b\x0c\x1c\x1d\x1e\x85"
    p = tmp_path / "qa.csv"
    p.write_bytes(f'question,answer\r\n"What is\nEBITDA?",Earnings{breaks}before\r\n'
                  f'"q2",a2\r\n'.encode("utf-8"))
    assert load_qa_csv(str(p)) == [QAPair("What is\nEBITDA?", f"Earnings{breaks}before"),
                                   QAPair("q2", "a2")]
    p.write_text('QA_text\n"##Question: What is\nEBITDA?## Answer: Earnings\u2028before"\n',
                 encoding="utf-8")
    assert load_qa_csv(str(p)) == [QAPair("What is\nEBITDA?", "Earnings\u2028before")]


def test_malformed_cell_reports_row(tmp_path):
    p = tmp_path / "qa.csv"
    p.write_text('QA_text\n"##Question: ok## Answer: fine"\n"no markers here"\n')
    with pytest.raises(DataError, match="row 3"):
        load_qa_csv(str(p))


def test_missing_columns_reports_header(tmp_path):
    p = tmp_path / "qa.csv"
    p.write_text("foo,bar\n1,2\n")
    with pytest.raises(DataError, match="foo"):
        load_qa_csv(str(p))


def test_invalid_utf8_reports_offset(tmp_path):
    p = tmp_path / "qa.csv"
    p.write_bytes(b"QA_text\n\xff\xfe\n")
    with pytest.raises(DataError, match="byte offset 8"):
        load_qa_csv(str(p))


# -- normalization ------------------------------------------------------------


def test_normalize_collapses_whitespace():
    assert normalize_text("a \t  b\r\n  c ") == "a b\nc"


def test_normalize_keeps_punctuation_in_lm_profile():
    s = "Price: $1,000.50 (up 5%)!"
    assert normalize_text(s) == s


def test_normalize_analysis_strips_symbols():
    assert normalize_text("money 💰 sign $x", profile="analysis") == "money sign x"


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=120), st.sampled_from(["lm", "analysis"]))
def test_normalize_is_idempotent(text, profile):
    once = normalize_text(text, profile)
    assert normalize_text(once, profile) == once


# -- redaction ----------------------------------------------------------------


def test_redact_simple():
    out = redact("call 555-1234 now", [r"\d{3}-\d{4}"])
    assert out == f"call {REDACTED} now"


def test_redact_leftmost_longest_across_patterns():
    # both patterns match at index 0; the longer one must win
    out = redact("abcdef", [r"abc", r"abcde"])
    assert out == f"{REDACTED}f"


def test_redact_invalid_pattern_raises():
    with pytest.raises(ConfigError, match="redaction pattern"):
        redact("x", ["("])


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab0123 ", max_size=60))
def test_redact_matches_brute_force(text):
    # oracle: scan positions left to right, take the longest match at the
    # earliest position, exactly what a human redactor would do
    patterns = [r"\d+", r"ab"]
    compiled = [re.compile(p) for p in patterns]
    out, i = [], 0
    while i < len(text):
        hits = [m for rx in compiled for m in [rx.match(text, i)] if m and m.end() > i]
        spans = [(m.start(), -(m.end() - m.start()), m) for rx in compiled
                 for m in [rx.search(text, i)] if m and m.end() > m.start()]
        if not spans:
            out.append(text[i:])
            break
        _, _, best = min(spans)
        out.append(text[i:best.start()])
        out.append(REDACTED)
        i = best.end()
    assert redact(text, patterns) == "".join(out)


# -- augmentation -------------------------------------------------------------


def test_augment_p0_is_identity():
    assert augment_shuffle("Keep me. As is!", RngState(0), 0.0) == "Keep me. As is!"


def test_augment_preserves_words_and_boundaries():
    text = "Alpha beta gamma. Delta epsilon?"
    out = augment_shuffle(text, RngState(4), 1.0)
    assert sorted(out.replace(".", "").replace("?", "").split()) == \
        sorted(text.replace(".", "").replace("?", "").split())
    assert out.count(".") == 1 and out.count("?") == 1
    # sentence order must be intact: all first-sentence words precede "."
    first = set("Alpha beta gamma".split())
    assert set(out.split(".")[0].split()) == first


def test_augment_deterministic_under_seed():
    text = "One two three four. Five six seven eight."
    a = augment_shuffle(text, RngState(11), 1.0)
    b = augment_shuffle(text, RngState(11), 1.0)
    assert a == b


def test_augment_rejects_bad_p():
    with pytest.raises(ConfigError):
        augment_shuffle("x", RngState(0), 1.5)


# -- example building ---------------------------------------------------------


@pytest.fixture(scope="module")
def small_tok():
    return train_bpe(["Answer the following question truthfully. what is a stock? "
                      "a share of ownership."], 300)


def test_templates_match_walkthrough():
    assert DEFAULT_TRAIN_TEMPLATE == \
        "Answer the following question truthfully.\n: {question}\n: {answer}"
    assert DEFAULT_INFER_TEMPLATE == DEFAULT_TRAIN_TEMPLATE.replace("{answer}", "")


def test_mask_counts_exactly_answer_plus_eos(small_tok):
    pairs = [QAPair("what is a stock?", "a share of ownership.")]
    ex, n_trunc = build_examples(pairs, small_tok, seq_len=128)
    assert n_trunc == 0
    e = ex[0]
    sp = small_tok.specials
    assert e.input_ids[0] == sp.bos and e.input_ids[-1] == sp.eos
    n_answer = len(small_tok.tokenize("a share of ownership."))
    unmasked = [l for l in e.labels if l != IGNORE_LABEL]
    assert len(unmasked) == n_answer + 1  # answer tokens + EOS
    # unmasked labels are exactly the tail of input_ids
    assert unmasked == e.input_ids[-len(unmasked):]


def test_no_mask_prompt_labels_everything(small_tok):
    pairs = [QAPair("what is a stock?", "a share.")]
    ex, _ = build_examples(pairs, small_tok, seq_len=128, mask_prompt=False)
    assert ex[0].labels == ex[0].input_ids


def test_template_tail_is_rendered_like_its_head(small_tok):
    """The text after {answer} is formatted too: escaped braces come out
    single, and {question} and a second {answer} are filled in."""
    template = "{{a}} {question} {answer} {{b}}"
    ex, _ = build_examples([QAPair("Why?", "Because.")], small_tok, template=template,
                           mask_prompt=False)
    assert small_tok.detokenize(ex[0].input_ids) == "{a} Why? Because. {b}"
    ex, _ = build_examples([QAPair("Why?", "Because.")], small_tok,
                           template="{question} {answer} ({question} {answer})",
                           mask_prompt=False)
    assert small_tok.detokenize(ex[0].input_ids) == "Why? Because. (Why? Because.)"


def test_truncation_counted_and_right_sided(small_tok):
    pairs = [QAPair("q", "word " * 400)]
    ex, n_trunc = build_examples(pairs, small_tok, seq_len=64)
    assert n_trunc == 1
    assert ex[0].length == 64
    assert ex[0].input_ids[0] == small_tok.specials.bos


def test_fully_truncated_answer_skipped(small_tok):
    pairs = [QAPair("very long question " * 30, "tail answer")]
    ex, _ = build_examples(pairs, small_tok, seq_len=32)
    assert ex == []


def test_empty_answer_skipped(small_tok):
    ex, _ = build_examples([QAPair("q?", "   ")], small_tok, seq_len=64)
    assert ex == []


def test_skips_and_examples_name_their_csv_row(small_tok, tmp_path, caplog):
    """A CSV pair keeps its row (the header is row 1) through preprocess_pair
    and build_examples; a pair made in code is named by its index."""
    p = tmp_path / "qa.csv"
    p.write_text("question,answer\nWhy?,\nwhat is a stock?,a share.\n")
    pairs = [preprocess_pair(q, PreprocessConfig()) for q in load_qa_csv(str(p))]
    with caplog.at_level("WARNING"):
        ex, _ = build_examples(pairs, small_tok, seq_len=128)
        build_examples([QAPair("q?", "")], small_tok, seq_len=128)
    assert [r.getMessage() for r in caplog.records] == [
        "row 2: empty answer after normalization, skipped",
        "pair 0: empty answer after normalization, skipped"]
    assert [e.row for e in ex] == [3]


def test_template_validation(small_tok):
    with pytest.raises(ConfigError, match="question"):
        build_examples([], small_tok, template="no placeholders {answer}")
    with pytest.raises(ConfigError, match="answer"):
        build_examples([], small_tok, template="{question} only")
