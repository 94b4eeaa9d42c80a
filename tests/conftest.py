"""Shared fixtures: the bundled corpus, a small trained tokenizer, and
model factories sized for fast tests."""

import importlib.resources

import numpy as np
import pytest

from tinypeft import (
    CausalLMConfig,
    RngState,
    build_examples,
    init_model,
    load_qa_csv,
    train_bpe,
)


@pytest.fixture(scope="session")
def csv_path() -> str:
    return str(importlib.resources.files("tinypeft").joinpath("data/finance_qa.csv"))


@pytest.fixture(scope="session")
def qa_pairs(csv_path):
    return load_qa_csv(csv_path)


@pytest.fixture(scope="session")
def tok(qa_pairs):
    texts = [f"{p.question} {p.answer}" for p in qa_pairs]
    return train_bpe(texts, 512, domain_terms=["KOSPI"])


@pytest.fixture(scope="session")
def examples(qa_pairs, tok):
    ex, _ = build_examples(qa_pairs, tok, seq_len=128)
    return ex


@pytest.fixture(scope="session")
def desk_config(tok):
    return CausalLMConfig(vocab_size=tok.vocab_size, d_model=64, n_heads=4,
                          n_layers=2, seq_len=128)


def micro_config(vocab_size: int = 32) -> CausalLMConfig:
    """2-block model small enough for exhaustive finite differences."""
    return CausalLMConfig(vocab_size=vocab_size, d_model=8, n_heads=2,
                          n_layers=2, seq_len=16)


@pytest.fixture()
def micro_model():
    return init_model(micro_config(), RngState(3))


def rand_ids(rng: np.random.Generator, batch: int, seq: int, vocab: int):
    return rng.integers(0, vocab, size=(batch, seq), dtype=np.int64)


def lora_pairs(model) -> list:
    """The model's LoRA pairs, in layer order."""
    return [lin.adapter for lin in model.linears() if lin.adapter is not None]
