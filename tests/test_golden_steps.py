"""Pinned numbers of three SGD steps per structure and fusion module.

For each case a toy model is built from a fixed init rng, trained for three
plain SGD steps on one fixed batch, and then run in eval mode on the whole
toy set. The loss components of every step, every parameter and batch-norm
buffer after the last step (by its dotted ``state()`` name) and the eval
logits of every head are compared with ``tests/golden_steps.json`` at rtol
1e-10: last-bit reorderings of a sum pass, while a change of what is
computed fails. Renaming state is a change of the file. The same cases
run on the toy set cast to float32 are compared with the same float64
numbers at the absolute tolerance ``FLOAT32_ATOL``, and every array of a
float32 step must be float32.

Regenerate the file (a change to a check, to be stated with its reason)::

    PYTHONPATH=src python tests/test_golden_steps.py --write
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mmfuse import autodiff as ad
from mmfuse.autodiff import Tensor, no_graph
from mmfuse.data import generate_synthetic
from mmfuse.gradcheck import TOY_DATA
from mmfuse.gradcheck import TOY_MODELS as CASES
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


def run_case(name, ds):
    """Loss components of each step, the state after them, then eval logits
    per head, as lists."""
    model = CASES[name]
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
    return generate_synthetic(TOY_DATA)


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def assert_matches(got, want, rtol, atol):
    assert [sorted(step) for step in got["losses"]] == [
        sorted(step) for step in want["losses"]
    ]
    for step, (g, w) in enumerate(zip(got["losses"], want["losses"])):
        for key in w:
            np.testing.assert_allclose(
                g[key], w[key], rtol=rtol, atol=atol, err_msg=f"step {step} {key}"
            )
    assert sorted(got["state"]) == sorted(want["state"])
    for key, w in want["state"].items():
        np.testing.assert_allclose(
            got["state"][key], w, rtol=rtol, atol=atol, err_msg=f"state {key}"
        )
    assert sorted(got["logits"]) == sorted(want["logits"])
    for head, w in want["logits"].items():
        np.testing.assert_allclose(
            got["logits"][head], w, rtol=rtol, atol=atol, err_msg=f"logits_{head}"
        )


@pytest.mark.parametrize("name", list(CASES))
def test_three_steps_match_golden(name, golden, dataset):
    assert_matches(run_case(name, dataset), golden[name], RTOL, ATOL)


# float32: the same cases on the toy set cast to float32, against the float64
# numbers. The worst absolute deviation measured was 1.2e-6 (image); the
# tolerance leaves about 8x room above it.
FLOAT32_ATOL = 1e-5


def float32_dataset(ds):
    return replace(ds, images=ds.images.astype(np.float32), meta=ds.meta.astype(np.float32))


@pytest.mark.parametrize("name", list(CASES))
def test_float32_steps_match_golden(name, golden, dataset):
    assert_matches(run_case(name, float32_dataset(dataset)), golden[name], 0.0, FLOAT32_ATOL)


@pytest.mark.parametrize("name", list(CASES))
def test_float32_step_stays_float32(name, dataset, monkeypatch):
    """Every op output and its gradient, every parameter gradient and the
    state of a float32 train step and eval forward are float32."""
    outputs = []
    real_result = ad._result

    def recorded(data, parents, backward):
        outputs.append(real_result(data, parents, backward))
        return outputs[-1]

    monkeypatch.setattr(ad, "_result", recorded)
    ds = float32_dataset(dataset)
    model = CASES[name]
    asm = ModelAssembly(model, ds, np.random.default_rng(3))
    weights = class_weights_from_counts(np.bincount(ds.labels, minlength=3))
    triple = asm.forward(Tensor(ds.images), Tensor(ds.meta), "train")
    total_loss(triple, ds.labels, weights, BETA, model.structure)[0].backward()
    sgd_step(asm.params(), LR)
    with no_graph():
        asm.forward(Tensor(ds.images), Tensor(ds.meta), "eval")
    assert outputs
    arrays = [t.data for t in outputs] + [t.grad for t in outputs if t.grad is not None]
    arrays += [t.grad for _, t in asm.params()] + list(asm.state().values())
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    ds = generate_synthetic(TOY_DATA)
    GOLDEN.write_text(
        json.dumps({name: run_case(name, ds) for name in CASES}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
