"""tinypeft runs on numpy alone: a fresh interpreter in which every scipy
import fails imports the package and the CLI, pretrains, quantizes a base
and trains QLoRA on it, and decodes, without loading any scipy module."""

import os
import subprocess
import sys

import tinypeft

SCRIPT = r"""
import sys
sys.modules["scipy"] = None  # any "import scipy..." now raises ImportError
try:
    import scipy.special
    raise SystemExit("scipy is still importable")
except ImportError:
    pass

import tinypeft
import tinypeft.cli
from tinypeft import (
    CausalLMConfig, LoraConfig, QAPair, QuantConfig, RngState, TrainConfig,
    Trainer, attach_lora, build_examples, init_model, quantize_base, train_bpe,
)

out = sys.argv[1]
tok = train_bpe(["what is margin? borrowed funds for trading. "
                 "what is yield? income return on investment."], 300)
pairs = [QAPair(f"what is item {i}?", f"item {i} is a sample entry.") for i in range(8)]
examples, _ = build_examples(pairs, tok, template="{question} {answer}", seq_len=32)
model = init_model(CausalLMConfig(vocab_size=tok.vocab_size, d_model=8, n_heads=2,
                                  n_layers=2, seq_len=32), RngState(0))
pad = tok.specials.pad
Trainer(model, examples, TrainConfig(output_dir=out + "/pre", max_steps=2),
        pad).train()
quantize_base(model, QuantConfig(block_size=16))
attach_lora(model, LoraConfig(r=2), RngState(1))
Trainer(model, examples, TrainConfig(output_dir=out + "/qlora", max_steps=1),
        pad).train()
prompt = tok.tokenize("what is")
ids = model.generate(prompt, 4, eos_id=None)
assert len(ids) == len(prompt) + 4, ids

loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] == "scipy" and mod is not None)
assert not loaded, loaded
print("ok")
"""


def test_pipeline_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(tinypeft.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")
