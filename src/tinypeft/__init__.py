"""Desk-scale parameter-efficient fine-tuning toolkit.

A self-contained pipeline over a micro causal language model: data
preparation, byte-level BPE tokenization, from-scratch pretraining,
LoRA / QLoRA / bottleneck-adapter fine-tuning, adapter merge, and
text-generation evaluation metrics.
"""

__version__ = "0.1.0"

from .bpe import TokenizerModel, train_bpe
from .corpus import (
    DEFAULT_INFER_TEMPLATE,
    DEFAULT_TRAIN_TEMPLATE,
    PreprocessConfig,
    QAPair,
    TrainingExample,
    build_examples,
    load_qa_csv,
    normalize_text,
)
from .model import CausalLM, CausalLMConfig, init_model
from .peft import (
    BottleneckAdapterConfig,
    LoraConfig,
    attach_bottleneck,
    attach_lora,
    merge_lora,
    quantize_base,
    trainable_summary,
)
from .quant import (
    QuantConfig,
    QuantizedTensor,
    build_nf4_codebook,
    dequantize_blockwise,
    quantize_blockwise,
)
from .rng import RngState
from .trainer import TrainConfig, Trainer, hyperparameter_search, lr_at_step

__all__ = [
    "TokenizerModel", "train_bpe",
    "PreprocessConfig", "QAPair", "TrainingExample",
    "build_examples", "load_qa_csv", "normalize_text",
    "DEFAULT_TRAIN_TEMPLATE", "DEFAULT_INFER_TEMPLATE",
    "CausalLM", "CausalLMConfig", "init_model",
    "LoraConfig", "BottleneckAdapterConfig",
    "attach_lora", "attach_bottleneck", "merge_lora",
    "quantize_base", "trainable_summary",
    "QuantConfig", "QuantizedTensor", "build_nf4_codebook",
    "quantize_blockwise", "dequantize_blockwise",
    "RngState",
    "TrainConfig", "Trainer", "hyperparameter_search", "lr_at_step",
]
