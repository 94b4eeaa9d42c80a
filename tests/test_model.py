"""Transformer forward/backward contracts: parameter accounting, causality,
loss at init, and decoding determinism."""

import numpy as np
import pytest

from tinypeft import tensor as T
from tinypeft.errors import ConfigError, DataError
from tinypeft.model import CausalLM, CausalLMConfig, init_model
from tinypeft.rng import RngState

from conftest import micro_config, parameter_count, rand_ids


def test_parameter_count_matches_materialized_model():
    for cfg in (micro_config(), CausalLMConfig(vocab_size=512)):
        model = init_model(cfg, RngState(0))
        total = sum(p.numel for p in model.params.values())
        assert total == parameter_count(cfg)


def test_parameter_count_closed_form_by_hand():
    # d=8, dh=32, vocab=32, seq=16, 2 blocks, counted term by term
    cfg = micro_config()
    per_block = 16 + (8 * 24 + 24) + (8 * 8 + 8) + 16 + (8 * 32 + 32) + (32 * 8 + 8)
    want = 32 * 8 + 16 * 8 + 2 * per_block + 16
    assert parameter_count(cfg) == want


def test_config_validation():
    with pytest.raises(ConfigError):
        CausalLMConfig(vocab_size=16, d_model=10, n_heads=4)  # d % heads != 0
    with pytest.raises(ConfigError):
        CausalLMConfig(vocab_size=16, seq_len=1)
    for field in ("vocab_size", "d_model", "n_heads", "n_layers"):
        for value in (0, -4):
            with pytest.raises(ConfigError, match=f"{field} must be >= 1, got {value}"):
                CausalLMConfig(**{"vocab_size": 16, field: value})


def test_logits_shape(micro_model):
    ids = rand_ids(np.random.default_rng(0), 2, 7, 32)
    logits = micro_model.forward_logits(ids)
    assert logits.shape == (2, 7, 32)


def test_causality_by_perturbation(micro_model):
    """Changing token t must leave logits at positions < t untouched."""
    rng = np.random.default_rng(1)
    ids = rand_ids(rng, 1, 10, 32)
    base = micro_model.forward_logits(ids).data.copy()
    for t in (3, 6, 9):
        mutated = ids.copy()
        mutated[0, t] = (mutated[0, t] + 1) % 32
        out = micro_model.forward_logits(mutated).data
        np.testing.assert_array_equal(out[0, :t], base[0, :t])
        assert not np.array_equal(out[0, t:], base[0, t:])


def test_initial_loss_near_log_vocab(micro_model):
    ids = rand_ids(np.random.default_rng(2), 4, 12, 32)
    loss = micro_model.lm_loss(ids, ids)
    assert abs(loss.item() - np.log(32)) < 0.2


def test_loss_matches_manual_nll_on_unmasked(micro_model):
    ids = rand_ids(np.random.default_rng(3), 1, 8, 32)
    labels = ids.copy()
    labels[0, :4] = -1
    loss = micro_model.lm_loss(ids, labels).item()
    # oracle: log-softmax in f64 over the shifted positions that carry labels
    z = micro_model.forward_logits(ids).data[0].astype(np.float64)
    logp = z - np.log(np.exp(z - z.max(-1, keepdims=True)).sum(-1, keepdims=True)) \
        - z.max(-1, keepdims=True)
    nll = [-logp[t - 1, labels[0, t]] for t in range(1, 8) if labels[0, t] != -1]
    assert abs(loss - np.mean(nll)) < 1e-4


def test_loss_shape_mismatch_raises(micro_model):
    with pytest.raises(Exception, match="ids"):
        micro_model.lm_loss(np.zeros((1, 4), np.int64), np.zeros((1, 5), np.int64))


def test_backward_touches_every_trainable(micro_model):
    ids = rand_ids(np.random.default_rng(4), 2, 10, 32)
    loss = micro_model.lm_loss(ids, ids)
    T.backward(loss)
    missing = [p.name for p in micro_model.params.values()
               if p.requires_grad and p.grad is None]
    assert missing == []
    # positions past the batch max length never appear, so pos rows beyond
    # seq 10 stay zero
    pos_grad = micro_model.params["pos_embeddings.weight"].grad
    assert np.all(pos_grad[10:] == 0.0)


def test_generate_deterministic_greedy(micro_model):
    a = micro_model.generate([1, 2, 3], 10)
    b = micro_model.generate([1, 2, 3], 10)
    assert a == b and len(a) == 13


def test_generate_stops_at_eos():
    # a model whose favorite token is forced via the embedding bias trick is
    # overkill; instead just check the eos early-exit contract on whatever
    # greedy produces
    model = init_model(micro_config(), RngState(8))
    out = model.generate([5], 30, eos_id=None)
    assert len(out) == 31
    first = model.generate([5], 30)[1]
    stopped = model.generate([5], 30, eos_id=first)
    assert stopped == [5, first]


def test_generate_temperature_matches_greedy_as_t_to_zero(micro_model):
    greedy = micro_model.generate([2, 7], 8)
    cold = micro_model.generate([2, 7], 8, mode="temperature",
                                temperature=1e-4, rng=RngState(0))
    assert cold == greedy


def test_generate_seeded_sampling_reproducible(micro_model):
    a = micro_model.generate([4], 12, mode="temperature", temperature=1.0,
                             top_k=8, rng=RngState(21))
    b = micro_model.generate([4], 12, mode="temperature", temperature=1.0,
                             top_k=8, rng=RngState(21))
    assert a == b


def test_generate_validation(micro_model):
    with pytest.raises(DataError):
        micro_model.generate([], 4)
    with pytest.raises(ConfigError):
        micro_model.generate([1], 4, mode="nucleus")
    with pytest.raises(ConfigError):
        micro_model.generate([1], 4, mode="temperature", temperature=0.0)


@pytest.mark.parametrize("bad, at", [(-1, 3), (32, 5)])
def test_out_of_range_token_id_is_a_data_error(micro_model, bad, at):
    """The embedding's range check, re-raised as a DataError that names the
    flat position, with and without a key/value cache; a cached forward that
    raises leaves the cache as it was."""
    ids = np.arange(8).reshape(2, 4) % 32
    ids.flat[at] = bad
    want = f"^token id out of range at flat position {at}$"
    with pytest.raises(DataError, match=want):
        micro_model.forward_logits(ids)
    with T.no_grad():
        cache = [[] for _ in micro_model.blocks]
        with pytest.raises(DataError, match=want):
            micro_model.forward_logits(ids, cache=cache)
        assert cache == [[] for _ in micro_model.blocks]
        micro_model.forward_logits(np.zeros((2, 3), np.int64), cache=cache)
        with pytest.raises(DataError, match=want):
            micro_model.forward_logits(ids, cache=cache)
        assert [c[0].shape[2] for c in cache] == [3] * len(micro_model.blocks)


def test_generate_slides_window(micro_model):
    # prompt longer than the 15-token context still decodes
    prompt = list(np.random.default_rng(6).integers(0, 32, size=40))
    out = micro_model.generate([int(x) for x in prompt], 5)
    assert len(out) == 45


def test_tied_head_shares_embedding(micro_model):
    tok = micro_model.params["tok_embeddings.weight"]
    tok.data[0] += 1.0
    ids = np.zeros((1, 4), np.int64)
    logits = micro_model.forward_logits(ids).data
    tok.data[0] -= 1.0
    logits2 = micro_model.forward_logits(ids).data
    assert not np.array_equal(logits, logits2)  # head moved with the embedding


def test_linears_walk_blocks_in_layer_order(micro_model):
    # attach_lora draws its A matrices in this order, so it fixes every
    # LoRA init; init_model creates the weights in the same order
    want = [f"blocks.{i}.{s}" for i in range(2) for s in
            ("attn.query_key_value", "attn.dense", "mlp.dense_h_to_4h", "mlp.dense_4h_to_h")]
    assert [lin.name for lin in micro_model.linears()] == want
    weights = [n[:-len(".weight")] for n in micro_model.params
               if n.endswith(".weight") and n.startswith("blocks.")]
    assert weights == want
