"""Byte-level BPE tokenizer with byte fallback and atomic domain terms.

Ids 0..255 are the raw bytes, so every UTF-8 string round-trips exactly.
Specials (BOS/EOS/PAD) and user-supplied domain terms sit above the byte
range; merges fill the remaining vocabulary. Merge selection is
deterministic: highest pair count, ties broken by the lexicographically
smaller left token bytes, then right. No two distinct pairs have equal
bytes, because no two merges make equal bytes: a merge's span keeps its
outer token boundaries from the start of training, so a left-to-right
pass tokenizes it as it would tokenize its bytes alone, and bytes that an
earlier merge made into one token would be that one token here too.

Training never rescans the corpus. The corpus is one flat id array in
which a separator stands for each line break and each domain term, so no
pair crosses a line or touches a term; ``next``/``prev`` links skip merged
slots. Each adjacent pair keeps its count and a list of the positions where
it was formed. A lazy heap keyed (-count, left bytes, right bytes) yields
the best pair; an entry whose count has since changed is re-queued. A merge
visits only its own positions, in ascending order, checking each one as it
goes, which reproduces a left-to-right, non-overlapping pass (``aaaa`` gives
two merges, ``aaa`` one), and adjusts the counts of the neighbouring pairs.

Encoding keeps a heap of (rank, position) over a linked list of the
segment's ids and merges the lowest rank first, leftmost first among equal
ranks. That is the result of applying each merge to the whole segment in
rank order, because a merge's new id only appears in later merges; ``load``
checks that order.
"""

from __future__ import annotations

import heapq
import json
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

from .errors import ConfigError, DataError

TOKENIZER_VERSION = 1
N_BYTES = 256
_SEP = -1  # a line break or a domain term in the training array; no pair touches it


@dataclass
class Specials:
    bos: int = 256
    eos: int = 257
    pad: int = 258


@dataclass
class TokenizerModel:
    """kind=byte_fallback_bpe; persisted as a JSON document."""

    specials: Specials = field(default_factory=Specials)
    # id -> raw bytes of the token
    vocab: dict[int, bytes] = field(default_factory=dict)
    # (left_id, right_id) -> new_id, in application order
    merges: list[tuple[int, int, int]] = field(default_factory=list)
    domain_terms: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.vocab:
            self.vocab = {i: bytes([i]) for i in range(N_BYTES)}
        self._ranks = {(l, r): i for i, (l, r, _) in enumerate(self.merges)}
        self._merge_new = {(l, r): n for l, r, n in self.merges}
        self._term_ids = {}
        for t in self.domain_terms:
            for tid, bs in self.vocab.items():
                if bs == t.encode("utf-8") and tid >= N_BYTES:
                    self._term_ids[t] = tid
        # leftmost match, and at one position the longest term
        terms = sorted(self._term_ids, key=len, reverse=True)
        self._term_re = re.compile("|".join(map(re.escape, terms))) if terms else None

    @property
    def vocab_size(self) -> int:
        sp = self.specials
        return max(max(self.vocab), sp.bos, sp.eos, sp.pad) + 1

    # -- encoding ------------------------------------------------------------

    def _bpe_segment(self, ids: list[int]) -> list[int]:
        n = len(ids)
        if n < 2:
            return ids
        ranks, merge_new = self._ranks, self._merge_new
        ids = ids + [_SEP]  # sentinel right of the last id; merged slots become _SEP too
        nxt = list(range(1, n + 2))
        prv = list(range(-1, n))
        heap = [(r, i) for i in range(n - 1) if (r := ranks.get((ids[i], ids[i + 1]))) is not None]
        heapq.heapify(heap)
        while heap:
            rank, i = heapq.heappop(heap)
            j = nxt[i]
            pair = (ids[i], ids[j])
            if ranks.get(pair) != rank:
                continue  # slot i was merged away, or its pair changed
            new = ids[i] = merge_new[pair]
            ids[j] = _SEP
            k = nxt[i] = nxt[j]
            prv[k] = i
            h = prv[i]
            if h >= 0 and (r := ranks.get((ids[h], new))) is not None:
                heapq.heappush(heap, (r, h))
            if (r := ranks.get((new, ids[k]))) is not None:
                heapq.heappush(heap, (r, i))
        return [t for t in ids if t != _SEP]

    def _split_terms(self, text: str) -> list[tuple[bool, str]]:
        """Cut text into (is_term, piece) runs, leftmost-longest term match."""
        if self._term_re is None:
            return [(False, text)] if text else []
        pieces: list[tuple[bool, str]] = []
        start = 0
        for m in self._term_re.finditer(text):
            if start < m.start():
                pieces.append((False, text[start:m.start()]))
            pieces.append((True, m.group()))
            start = m.end()
        if start < len(text):
            pieces.append((False, text[start:]))
        return pieces

    def tokenize(self, text: str) -> list[int]:
        ids: list[int] = []
        for is_term, piece in self._split_terms(text):
            if is_term:
                ids.append(self._term_ids[piece])
            else:
                ids.extend(self._bpe_segment(list(piece.encode("utf-8"))))
        return ids

    def detokenize(self, ids: list[int]) -> str:
        special = {self.specials.bos, self.specials.eos, self.specials.pad}
        buf = b"".join(self.vocab[i] for i in ids if i not in special)
        # byte fallback means generated ids can form invalid UTF-8; valid
        # sequences still round-trip exactly
        return buf.decode("utf-8", errors="replace")

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "version": TOKENIZER_VERSION,
            "kind": "byte_fallback_bpe",
            "specials": {"bos": self.specials.bos, "eos": self.specials.eos, "pad": self.specials.pad},
            "vocab": {str(i): bs.hex() for i, bs in sorted(self.vocab.items())},
            "merges": [[l, r, n] for l, r, n in self.merges],
            "domain_terms": list(self.domain_terms),
        }
        return json.dumps(doc, ensure_ascii=False, indent=1)

    @classmethod
    def from_json(cls, text: str, source: str = "tokenizer") -> "TokenizerModel":
        """Parse and check a tokenizer document; source names it in errors.

        Besides the field types, every merge must join two ids defined
        before it (a byte, a domain term or an earlier merge) into a new id
        whose bytes are theirs concatenated, which is what the rank-heap
        encoder relies on.
        """
        try:
            doc = json.loads(text)
        except ValueError as e:
            raise DataError(f"{source}: not a JSON document: {e}")
        if not isinstance(doc, dict):
            raise DataError(f"{source}: a tokenizer must be a JSON object")
        if doc.get("version") != TOKENIZER_VERSION:
            raise ConfigError(f"{source}: unsupported tokenizer version {doc.get('version')!r}")

        def bad(what: str) -> DataError:
            return DataError(f"{source}: {what}")

        sp = doc.get("specials")
        if not (isinstance(sp, dict) and all(type(sp.get(k)) is int for k in ("bos", "eos", "pad"))):
            raise bad("specials must be an object of int bos, eos and pad")
        raw = doc.get("vocab")
        if not isinstance(raw, dict):
            raise bad("vocab must be an object of id -> hex bytes")
        vocab: dict[int, bytes] = {}
        for key, hex_bytes in raw.items():
            try:
                if not (key.isascii() and key.isdigit()):
                    raise ValueError
                vocab[int(key)] = bytes.fromhex(hex_bytes)
            except (TypeError, ValueError):
                raise bad(f"vocab[{key!r}] must be hex bytes under an integer id, got {hex_bytes!r}")
        if any(vocab.get(i) != bytes([i]) for i in range(N_BYTES)):
            raise bad("vocab must map the ids 0-255 to their own bytes")
        # detokenize drops every special id, so a special must name no token
        seen: dict[int, str] = {}
        for name in ("bos", "eos", "pad"):
            sid = sp[name]
            if sid < 0:
                raise bad(f"specials.{name} must be >= 0, got {sid}")
            if sid in vocab:
                raise bad(f"specials.{name} = {sid} is already a vocab id")
            if sid in seen:
                raise bad(f"specials.{name} = {sid} is also specials.{seen[sid]}")
            seen[sid] = name
        merges = doc.get("merges")
        if not isinstance(merges, list):
            raise bad("merges must be a list")
        for i, m in enumerate(merges):
            if not (type(m) is list and len(m) == 3 and all(type(t) is int for t in m)):
                raise bad(f"merges[{i}] must be 3 ints [left, right, new], got {m!r}")
        defined = set(vocab) - {n for _, _, n in merges}
        for i, (l, r, n) in enumerate(merges):
            if l not in defined or r not in defined:
                raise bad(f"merges[{i}] uses an id that no earlier entry defines: {[l, r, n]}")
            if n in defined or n not in vocab:
                raise bad(f"merges[{i}] must make a new vocab id, got {n}")
            if vocab[n] != vocab[l] + vocab[r]:
                raise bad(f"merges[{i}]: vocab[{n}] is not vocab[{l}] + vocab[{r}]")
            defined.add(n)
        terms = doc.get("domain_terms")
        if not (isinstance(terms, list) and all(type(t) is str and t for t in terms)):
            raise bad("domain_terms must be a list of non-empty strings")
        return cls(
            specials=Specials(bos=sp["bos"], eos=sp["eos"], pad=sp["pad"]),
            vocab=vocab,
            merges=[tuple(m) for m in merges],
            domain_terms=terms,
        )

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "TokenizerModel":
        with open(path, "rb") as f:
            raw = f.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: invalid UTF-8 at byte offset {e.start}")
        return cls.from_json(text, path)


def train_bpe(
    corpus: list[str],
    target_vocab: int,
    domain_terms: list[str] | None = None,
) -> TokenizerModel:
    """Train byte-level BPE until the vocabulary reaches target_vocab.

    Domain terms become atomic tokens before any merge is learned, so
    tokenization always prefers them over a merge decomposition. Training
    stops early if no adjacent pair repeats.
    """
    domain_terms = list(domain_terms or [])
    if "" in domain_terms:
        raise ConfigError("domain terms must be non-empty")
    specials = Specials()
    floor = N_BYTES + 3 + len(domain_terms)
    if target_vocab < floor:
        raise ConfigError(
            f"target_vocab {target_vocab} < minimum {floor} "
            f"(256 bytes + 3 specials + {len(domain_terms)} domain terms)"
        )

    tok = TokenizerModel(specials=specials, domain_terms=domain_terms)
    next_id = specials.pad + 1
    for term in domain_terms:
        tok.vocab[next_id] = term.encode("utf-8")
        next_id += 1
    tok.__post_init__()  # pick up the term ids

    # the corpus as one array: a separator before, between and after lines,
    # and in place of each domain term
    seq = [_SEP]
    for line in corpus:
        for is_term, piece in tok._split_terms(line):
            if is_term:
                seq.append(_SEP)
            else:
                seq.extend(piece.encode("utf-8"))
        seq.append(_SEP)
    # int arrays, not lists: a list holds one int object per slot
    nxt = array("i", range(1, len(seq) + 1))
    prv = array("i", range(-1, len(seq) - 1))
    # pair -> positions of its left id; entries go stale and are checked on use
    where: defaultdict[tuple[int, int], array] = defaultdict(lambda: array("i"))
    for i in range(len(seq) - 1):
        if seq[i] != _SEP and seq[i + 1] != _SEP:
            where[(seq[i], seq[i + 1])].append(i)
    count = {pair: len(ps) for pair, ps in where.items()}
    vocab = tok.vocab
    heap = [(-c, vocab[a], vocab[b], a, b) for (a, b), c in count.items()]
    heapq.heapify(heap)

    def lose(pair: tuple[int, int]):
        """One occurrence of pair is gone; a pair with none left is dropped."""
        if count[pair] > 1:
            count[pair] -= 1
        else:
            del count[pair]
            where.pop(pair, None)  # the pair being merged was popped already

    def pop_best() -> tuple[int, int] | None:
        """The pair with the smallest (-count, left bytes, right bytes), if it
        repeats."""
        while heap:
            entry = heapq.heappop(heap)
            pair = entry[3:]
            c = count.get(pair, 0)
            if c == -entry[0]:
                return pair if c >= 2 else None
            if 0 < c < -entry[0]:
                heapq.heappush(heap, (-c, *entry[1:]))
        return None

    while next_id < target_vocab:
        pair = pop_best()
        if pair is None:
            break
        a, b = pair
        new = next_id
        vocab[new] = vocab[a] + vocab[b]
        tok.merges.append((a, b, new))
        formed: set[tuple[int, int]] = set()
        # ascending already: every occurrence of a pair forms in the initial
        # scan or, left to right, in the pass that makes its newer id
        for p in where.pop(pair):
            q = nxt[p]
            if seq[p] != a or seq[q] != b:
                continue  # merged away, or its neighbour changed
            left, right = seq[prv[p]], seq[nxt[q]]
            if left != _SEP:
                lose((left, a))
                count[(left, new)] = count.get((left, new), 0) + 1
                where[(left, new)].append(prv[p])
                formed.add((left, new))
            if right != _SEP:
                lose((b, right))
                count[(new, right)] = count.get((new, right), 0) + 1
                where[(new, right)].append(p)
                formed.add((new, right))
            seq[p], seq[q] = new, _SEP
            nxt[p] = nxt[q]
            prv[nxt[q]] = p
        del count[pair]
        for l, r in formed:
            if (l, r) in count:
                heapq.heappush(heap, (-count[(l, r)], vocab[l], vocab[r], l, r))
        next_id += 1

    tok.__post_init__()
    return tok
