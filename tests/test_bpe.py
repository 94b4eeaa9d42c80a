"""Tokenizer: byte-fallback round trips, merge-selection oracles, atomic
domain terms, persistence, and the rescanning implementation kept as the
oracle of the incremental trainer and the rank-heap encoder."""

import hashlib
import json
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinypeft.bpe import N_BYTES, Specials, TokenizerModel, train_bpe
from tinypeft.cli import main
from tinypeft.errors import ConfigError, DataError

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "finance_qa_tok512.sha256")


# -- reference implementation: recount every pair, rescan every line ---------


def reference_split_terms(tok: TokenizerModel, text: str) -> list[tuple[bool, str]]:
    """Cut text into (is_term, piece) runs, leftmost-longest term match."""
    if not tok._term_ids:
        return [(False, text)] if text else []
    terms = sorted(tok._term_ids, key=len, reverse=True)
    pieces: list[tuple[bool, str]] = []
    i, start = 0, 0
    while i < len(text):
        hit = next((t for t in terms if text.startswith(t, i)), None)
        if hit is not None:
            if start < i:
                pieces.append((False, text[start:i]))
            pieces.append((True, hit))
            i += len(hit)
            start = i
        else:
            i += 1
    if start < len(text):
        pieces.append((False, text[start:]))
    return pieces


def _apply_merge(seq: list[int], pair: tuple[int, int], new_id: int) -> list[int]:
    out, i = [], 0
    while i < len(seq):
        if i < len(seq) - 1 and (seq[i], seq[i + 1]) == pair:
            out.append(new_id)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def reference_bpe_segment(tok: TokenizerModel, ids: list[int]) -> list[int]:
    """Apply the lowest-ranked merge present to the whole segment, repeat."""
    while len(ids) >= 2:
        best_rank, best_pair = None, None
        for i in range(len(ids) - 1):
            r = tok._ranks.get((ids[i], ids[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, (ids[i], ids[i + 1])
        if best_pair is None:
            break
        ids = _apply_merge(ids, best_pair, tok._merge_new[best_pair])
    return ids


def reference_tokenize(tok: TokenizerModel, text: str) -> list[int]:
    ids: list[int] = []
    for is_term, piece in reference_split_terms(tok, text):
        if is_term:
            ids.append(tok._term_ids[piece])
        else:
            ids.extend(reference_bpe_segment(tok, list(piece.encode("utf-8"))))
    return ids


def reference_train_bpe(corpus: list[str], target_vocab: int,
                        domain_terms: list[str] | None = None) -> TokenizerModel:
    """Recount every pair and re-merge every line after each merge."""
    domain_terms = list(domain_terms or [])
    specials = Specials()
    floor = N_BYTES + 3 + len(domain_terms)
    if target_vocab < floor:
        raise ConfigError(f"target_vocab {target_vocab} < minimum {floor}")
    tok = TokenizerModel(specials=specials, domain_terms=domain_terms)
    next_id = specials.pad + 1
    for term in domain_terms:
        tok.vocab[next_id] = term.encode("utf-8")
        next_id += 1
    tok.__post_init__()

    seqs: list[list[int]] = []
    for line in corpus:
        ids: list[int] = []
        for is_term, piece in reference_split_terms(tok, line):
            if is_term:
                ids.append(tok._term_ids[piece])
            else:
                ids.extend(piece.encode("utf-8"))
        if ids:
            seqs.append(ids)

    term_ids = set(tok._term_ids.values())
    while next_id < target_vocab:
        counts: Counter[tuple[int, int]] = Counter()
        for seq in seqs:
            for a, b in zip(seq, seq[1:]):
                if a in term_ids or b in term_ids:
                    continue
                counts[(a, b)] += 1
        if not counts:
            break
        best = min(
            counts.items(),
            key=lambda kv: (-kv[1], tok.vocab[kv[0][0]], tok.vocab[kv[0][1]]),
        )
        if best[1] < 2:
            break
        pair = best[0]
        tok.vocab[next_id] = tok.vocab[pair[0]] + tok.vocab[pair[1]]
        tok.merges.append((pair[0], pair[1], next_id))
        seqs = [_apply_merge(seq, pair, next_id) for seq in seqs]
        next_id += 1

    tok.__post_init__()
    return tok


def test_specials_layout():
    sp = Specials()
    assert (sp.bos, sp.eos, sp.pad) == (256, 257, 258)


def test_untrained_tokenizer_is_identity_on_bytes():
    tok = TokenizerModel()
    ids = tok.tokenize("abc")
    assert ids == [97, 98, 99]
    assert tok.detokenize(ids) == "abc"


def test_first_merge_oracle_aaaa():
    # "aaaa": pair (a,a) occurs 3 times, by far the most frequent
    tok = train_bpe(["aaaa bbbb aaaa"], 260)
    l, r, new = tok.merges[0]
    assert (l, r) == (97, 97)
    assert tok.vocab[new] == b"aa"


def test_merge_tiebreak_prefers_smaller_left_bytes():
    # "abab cdcd": pairs (a,b) and (c,d) both occur twice; (b,a) and (d,c)
    # occur once. First merge must be (a,b), the lexicographically smaller left.
    tok = train_bpe(["abab cdcd"], 260)
    l, r, _ = tok.merges[0]
    assert (tok.vocab[l], tok.vocab[r]) == (b"a", b"b")


def test_training_stops_when_no_pair_repeats():
    tok = train_bpe(["abcdefg"], 400)
    assert tok.merges == []  # every adjacent pair is unique
    assert tok.vocab_size == 259


def test_domain_term_is_atomic():
    tok = train_bpe(["KOSPI rose today. KOSPI fell."], 300, domain_terms=["KOSPI"])
    ids = tok.tokenize("KOSPI index")
    term_id = ids[0]
    assert term_id > 258 and tok.vocab[term_id] == b"KOSPI"
    assert ids.count(term_id) == 1
    assert tok.detokenize(ids) == "KOSPI index"
    # no merge may cross or rebuild the term
    for _, _, new in tok.merges:
        assert b"KOSPI" not in tok.vocab[new]


def test_target_vocab_floor_enforced():
    with pytest.raises(ConfigError, match="260"):
        train_bpe(["x"], 259, domain_terms=["T"])


def test_merges_apply_lowest_rank_first():
    # learn "ab" before "abc"; encoding "abc" must use both in rank order
    tok = train_bpe(["ab ab abc abc"], 262)
    ids = tok.tokenize("abab")
    assert all(tok.vocab[i] == b"ab" for i in ids)


def test_specials_never_emitted_by_tokenize():
    tok = train_bpe(["hello world hello"], 280)
    sp = tok.specials
    for text in ("hello", "world hello", ""):
        assert not set(tok.tokenize(text)) & {sp.bos, sp.eos, sp.pad}


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=200))
def test_roundtrip_any_unicode(text):
    tok = TokenizerModel()
    assert tok.detokenize(tok.tokenize(text)) == text


@settings(max_examples=25, deadline=None)
@given(st.text(alphabet="abc금융 ", min_size=1, max_size=80))
def test_roundtrip_after_training(text):
    tok = train_bpe(["abc abc 금융 금융 시장"], 280)
    assert tok.detokenize(tok.tokenize(text)) == text


def test_multibyte_roundtrip_with_byte_fallback():
    tok = train_bpe(["plain ascii corpus only"], 270)
    for s in ("한국어 문장", "émoji 🙂 test", "ΣΔΘ"):
        assert tok.detokenize(tok.tokenize(s)) == s


def test_json_roundtrip_identical_behavior(tmp_path):
    tok = train_bpe(["the quick brown fox " * 5], 290, domain_terms=["fox"])
    path = tmp_path / "tok.json"
    tok.save(str(path))
    back = TokenizerModel.load(str(path))
    assert back.vocab == tok.vocab
    assert back.merges == tok.merges
    sample = "the quick fox jumps"
    assert back.tokenize(sample) == tok.tokenize(sample)


def test_unknown_version_rejected():
    with pytest.raises(ConfigError, match="version"):
        TokenizerModel.from_json('{"version": 99}')


def test_training_is_deterministic():
    corpus = ["deterministic corpus with repeats repeats repeats"]
    a = train_bpe(corpus, 300)
    b = train_bpe(corpus, 300)
    assert a.merges == b.merges and a.vocab == b.vocab


def test_empty_domain_term_rejected():
    with pytest.raises(ConfigError, match="non-empty"):
        train_bpe(["abc"], 300, domain_terms=["a", ""])


# -- the incremental trainer and the rank-heap encoder against the oracle -----

# small alphabets so that pairs repeat and overlap (aaaa), multibyte text, and
# domain terms that overlap each other or are one character long
ALPHABETS = ["a", "ab", "abc ", "aab ", "aé금 ", "xy\n🙂"]
TERMS = ["a", "ab", "aba", "ba", "b a", "é", "금금", "aaa"]


@st.composite
def corpora(draw):
    alphabet = draw(st.sampled_from(ALPHABETS))
    lines = draw(st.lists(st.text(alphabet=alphabet, max_size=40), min_size=1, max_size=6))
    terms = draw(st.lists(st.sampled_from(TERMS), max_size=3))
    floor = N_BYTES + 3 + len(terms)
    # past exhaustion too: 6 lines of 40 characters allow fewer than 300 merges
    target = draw(st.integers(floor, floor + 300))
    texts = draw(st.lists(st.text(alphabet=alphabet + "abz", max_size=50), max_size=5))
    return lines, target, terms, texts


@settings(max_examples=400, deadline=None)
@given(corpora())
def test_training_and_encoding_match_the_reference(case):
    lines, target, terms, texts = case
    tok = train_bpe(lines, target, terms)
    ref = reference_train_bpe(lines, target, terms)
    assert tok.to_json() == ref.to_json()
    for text in texts + lines:
        assert tok.tokenize(text) == reference_tokenize(ref, text)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="ab", max_size=30), st.integers(0, 40))
def test_runs_of_one_pair_match_the_reference(line, extra):
    # one line of two letters: long runs where the same pair overlaps itself
    lines = [line, line[::-1]]
    tok = train_bpe(lines, 259 + extra)
    assert tok.to_json() == reference_train_bpe(lines, 259 + extra).to_json()
    assert tok.tokenize(line + "ba" + line) == reference_tokenize(tok, line + "ba" + line)


@settings(max_examples=200, deadline=None)
@given(corpora())
def test_no_two_merges_make_equal_bytes(case):
    # pairs are ordered by their bytes alone, a total order only while every
    # merged token's bytes are its own (the argument in tinypeft.bpe's docstring)
    lines, target, terms, _ = case
    tok = train_bpe(lines, target, terms)
    made = [tok.vocab[new] for _, _, new in tok.merges]
    assert len(set(made)) == len(made)


def test_bundled_tokenizer_is_pinned(tok):
    """sha256 of train_bpe(<bundled CSV texts>, 512, ["KOSPI"]).to_json(), as
    written by the rescanning trainer; CI checks the CLI's file against it."""
    want = open(GOLDEN, encoding="utf-8").read().split()[0]
    assert hashlib.sha256(tok.to_json().encode("utf-8")).hexdigest() == want


def test_bundled_corpus_encodes_like_the_reference(tok, qa_pairs):
    for p in qa_pairs:
        for text in (p.question, p.answer, f"{p.question} {p.answer}"):
            assert tok.tokenize(text) == reference_tokenize(tok, text)


# -- malformed tokenizer files ------------------------------------------------


def _doc() -> dict:
    doc = json.loads(train_bpe(["abab abab KOSPI ab"], 265, ["KOSPI"]).to_json())
    assert doc["merges"] == [[97, 98, 260], [32, 260, 261]]
    return doc


def _set(path, value):
    def edit(doc):
        *keys, last = path
        for k in keys:
            doc = doc[k]
        doc[last] = value
    return edit


def _drop(key):
    return lambda doc: doc.pop(key)


def _later_id(doc):  # [" ", "ab"] before ["a", "b"]: bytes agree, order does not
    doc["merges"].reverse()


def _repeat_merge(doc):  # the same merge again makes an id already made
    doc["merges"].append(doc["merges"][0])


@pytest.mark.parametrize("edit, field", [
    (_drop("specials"), "specials"),
    (_set(["specials", "bos"], "256"), "specials"),
    (_drop("vocab"), "vocab"),
    (_set(["vocab"], [1, 2]), "vocab"),
    (_set(["vocab", "97"], "zz"), "vocab['97']"),
    (_set(["vocab", "97"], 97), "vocab['97']"),
    (_set(["vocab", "x"], "61"), "vocab['x']"),
    (_set(["vocab", "97"], "62"), "0-255"),
    (_drop("merges"), "merges"),
    (_set(["merges", 0], [97, 98]), "merges[0]"),
    (_set(["merges", 0], [97, 98, "x"]), "merges[0]"),
    (_set(["merges", 0, 1], 99), "merges[0]"),
    (_later_id, "merges[0]"),
    (_repeat_merge, "merges[2]"),
    (_set(["merges", 0, 0], 256), "merges[0]"),
    (_drop("domain_terms"), "domain_terms"),
    (_set(["domain_terms"], "KOSPI"), "domain_terms"),
    (_set(["domain_terms"], [""]), "domain_terms"),
    (_set(["specials", "bos"], 97), "specials.bos"),
    (_set(["specials", "eos"], 261), "specials.eos"),
    (_set(["specials", "pad"], 257), "specials.pad"),
    (_set(["specials", "eos"], -1), "specials.eos"),
], ids=["no-specials", "str-bos", "no-vocab", "vocab-list", "bad-hex", "int-hex",
        "str-id", "byte-remapped", "no-merges", "merge-of-2", "str-in-merge", "wrong-bytes",
        "later-id", "repeated-merge", "special-in-merge", "no-terms", "terms-str",
        "empty-term", "bos-is-a-byte", "eos-is-a-merge", "pad-is-eos", "negative-eos"])
def test_malformed_tokenizer_is_data_error(tmp_path, edit, field):
    doc = _doc()
    edit(doc)
    path = tmp_path / "tok.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError) as e:
        TokenizerModel.load(str(path))
    assert str(path) in str(e.value) and field in str(e.value)


def test_vocab_size_covers_every_special():
    doc = _doc()
    doc["specials"]["bos"] = 5000
    tok = TokenizerModel.from_json(json.dumps(doc))
    assert tok.vocab_size == 5001
    assert tok.detokenize(tok.tokenize("a cab")) == "a cab"


@pytest.mark.parametrize("raw", [b"not json", b"[1, 2]", b'{"version": 1, "vocab": "\xff', b"\xff\xfe{}"],
                         ids=["not-json", "not-object", "bad-utf8-inside", "bad-utf8-start"])
def test_unreadable_tokenizer_is_data_error(tmp_path, raw):
    path = tmp_path / "tok.json"
    path.write_bytes(raw)
    with pytest.raises(DataError, match=str(path)):
        TokenizerModel.load(str(path))


def test_valid_tokenizer_loads_unchanged(tmp_path):
    tok = train_bpe(["abab abab KOSPI ab"], 265, ["KOSPI"])
    path = tmp_path / "tok.json"
    tok.save(str(path))
    assert TokenizerModel.load(str(path)).to_json() == tok.to_json()


@pytest.mark.parametrize("text", [
    '{"version": 1}',
    "not json",
    '{"version": 1, "specials": {"bos": 256, "eos": 257, "pad": 258}, "vocab": {"0": "zz"}}',
], ids=["no-specials", "not-json", "bad-hex"])
def test_cli_reports_a_malformed_tokenizer(tmp_path, capsys, csv_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    assert main(["prepare-data", "--csv", csv_path, "--tokenizer", str(bad),
                 "--out", str(tmp_path / "data.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:data:") and str(bad) in err
