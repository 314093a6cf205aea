"""Pinned numbers of three SGD steps per structure and fusion module.

For each case a toy model is built from a fixed init rng, trained for three
plain SGD steps on one fixed batch, and then run in eval mode on the whole
toy set. The loss components of every step, every parameter and batch-norm
buffer after the last step (by its dotted ``state()`` name) and the eval
logits of every head are compared with ``tests/golden_steps.json`` at rtol
1e-10: last-bit reorderings of a sum pass, while a change of what is
computed fails. Renaming state is a change of the file.

Regenerate the file (a change to a check, to be stated with its reason)::

    PYTHONPATH=src python tests/test_golden_steps.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from mmfuse.autodiff import Tensor, no_graph
from mmfuse.data import SyntheticSpec, generate_synthetic
from mmfuse.experiment import ModelConfig
from mmfuse.structures import (
    STRUCTURES,
    ModelAssembly,
    class_weights_from_counts,
    total_loss,
)
from mmfuse.training import sgd_step

GOLDEN = Path(__file__).with_name("golden_steps.json")
RTOL, ATOL = 1e-10, 1e-12
STEPS, BETA, LR = 3, 0.3, 0.05

CASES = {
    "image": dict(structure="image"),
    "jf-cat": dict(structure="jf", fusion="cat"),
    "jf-mmfa": dict(structure="jf", fusion="mmfa"),
    "jif-cat": dict(structure="jif", fusion="cat"),
    "jif-mmfa": dict(structure="jif", fusion="mmfa"),
    "jif-mmfa-post": dict(structure="jif", fusion="mmfa", scale_after_softmax=True),
}


def toy_dataset():
    return generate_synthetic(SyntheticSpec(
        n_classes=3, per_class=(5, 4, 3), image_shape=(3, 8, 8), seed=7,
    ))


def run_case(name, ds):
    """Loss components of each step, the state after them, then eval logits
    per head, as lists."""
    model = ModelConfig(
        image_features=6, metadata_features=4, channels=(2, 3, 4),
        metadata_hidden=(5,), heads=2, **CASES[name],
    )
    asm = ModelAssembly(model, ds, np.random.default_rng(3))
    weights = class_weights_from_counts(np.bincount(ds.labels, minlength=3))
    batch = np.random.default_rng(4).permutation(len(ds))[:8]
    images, meta = Tensor(ds.images[batch]), Tensor(ds.meta[batch])
    named = asm.params()
    losses = []
    for _ in range(STEPS):
        triple = asm.forward(images, meta, "train")
        loss, comps = total_loss(
            triple, ds.labels[batch], weights, BETA, model.structure
        )
        asm.zero_grads()
        loss.backward()
        sgd_step(named, LR)
        losses.append({"total": float(loss.data), **comps})
    state = {k: v.tolist() for k, v in asm.state().items()}
    with no_graph():
        triple = asm.forward(Tensor(ds.images), Tensor(ds.meta), "eval")
    logits = {
        k: getattr(triple, "logits_" + k).data.tolist()
        for k in STRUCTURES[model.structure]
    }
    return {"losses": losses, "state": state, "logits": logits}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def dataset():
    return toy_dataset()


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_three_steps_match_golden(name, golden, dataset):
    got, want = run_case(name, dataset), golden[name]
    assert [sorted(step) for step in got["losses"]] == [
        sorted(step) for step in want["losses"]
    ]
    for step, (g, w) in enumerate(zip(got["losses"], want["losses"])):
        for key in w:
            np.testing.assert_allclose(
                g[key], w[key], rtol=RTOL, atol=ATOL, err_msg=f"step {step} {key}"
            )
    assert sorted(got["state"]) == sorted(want["state"])
    for key, w in want["state"].items():
        np.testing.assert_allclose(
            got["state"][key], w, rtol=RTOL, atol=ATOL, err_msg=f"state {key}"
        )
    assert sorted(got["logits"]) == sorted(want["logits"])
    for head, w in want["logits"].items():
        np.testing.assert_allclose(
            got["logits"][head], w, rtol=RTOL, atol=ATOL, err_msg=f"logits_{head}"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    ds = toy_dataset()
    GOLDEN.write_text(
        json.dumps({name: run_case(name, ds) for name in CASES}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
