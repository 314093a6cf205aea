"""Forward and backward time of each block, called in isolation.

Each block is built from the package's public layers and ops at the shapes
the c10-serial grid feeds it, with inputs taken from a real batch pushed
through the image encoder's chain. Backward is timed as ``backward()`` on
a random projection of the block's outputs to a scalar (a ``mul``
and a ``sum`` per output), so it includes the graph walk. Parameter and
input gradients are cleared before each repetition, as the training loop
does.
"""

import statistics
import time

WARMUP = 3


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def block_table(workload, seed, reps):
    """``{"blocks.<block>.fwd_ms": ..., "blocks.<block>.bwd_ms": ..., "blocks.sgd_step_ms": ...}``."""
    import numpy as np

    from mmfuse import autodiff as ad
    from mmfuse.autodiff import Tensor
    from mmfuse.encoders import MetadataEncoder
    from mmfuse.experiment import ExperimentConfig, build_assembly, resolve_dataset
    from mmfuse.fusion import MMFAFusion
    from mmfuse.layers import BatchNorm, Conv2d
    from mmfuse.structures import PredictionTriple, make_head, total_loss
    from mmfuse.training import sgd_step

    cfg = ExperimentConfig.from_dict(workload.config(seed))
    model, batch = cfg.model, cfg.train.batch_size
    dataset = resolve_dataset(cfg.dataset)
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(dataset))[:batch]
    images, meta, labels = dataset.images[idx], dataset.meta[idx], dataset.labels[idx]
    weights = np.ones(dataset.n_classes)

    def leaf(array, grad=True):
        return Tensor(array, requires_grad=grad)

    def probe(outputs):
        """Scalar whose backward reaches every output with a random gradient."""
        root = None
        for out in outputs:
            g = Tensor(rng.normal(size=out.data.shape))
            term = ad.mul(out, g).sum()
            root = term if root is None else ad.add(root, term)
        return root

    table = {}

    def time_block(name, forward, leaves, scalar=False):
        fwd_s, bwd_s = [], []
        for rep in range(WARMUP + reps):
            for t in leaves:
                t.grad = None
            out, dt_fwd = _timed(forward)
            outputs = out if isinstance(out, tuple) else (out,)
            root = outputs[0] if scalar else probe(outputs)
            _, dt_bwd = _timed(root.backward)
            if rep >= WARMUP:
                fwd_s.append(dt_fwd)
                bwd_s.append(dt_bwd)
        table[f"blocks.{name}.fwd_ms"] = statistics.median(fwd_s) * 1e3
        table[f"blocks.{name}.bwd_ms"] = statistics.median(bwd_s) * 1e3

    # image encoder: conv -> batch norm -> relu -> max-pool, three times;
    # the images themselves need no gradient, as in training
    h = images
    c_in = images.shape[1]
    for i, c_out in enumerate(model.channels):
        conv, bn = Conv2d(c_in, c_out, rng, bias=False), BatchNorm(c_out)
        x = leaf(h, grad=i > 0)
        time_block(f"conv{i}", lambda c=conv, x=x: c(x), [x, conv.w])
        conv_out = leaf(conv(x).data)
        time_block(
            f"bn{i}",
            lambda b=bn, x=conv_out: b(x, "train"),
            [conv_out, bn.gamma, bn.beta],
        )
        act = leaf(ad.relu(bn(conv_out, "train")).data)
        time_block(f"pool{i}", lambda x=act: ad.max_pool2(x), [act])
        h = ad.max_pool2(act).data
        c_in = c_out

    meta_enc = MetadataEncoder(
        in_width=meta.shape[1],
        out_dim=model.metadata_features,
        hidden=model.metadata_hidden,
        rng=rng,
    )
    meta_in = leaf(meta, grad=False)
    time_block(
        "meta_mlp",
        lambda: meta_enc(meta_in, "train"),
        [t for _, t in meta_enc.params()],
    )

    f_img = leaf(rng.normal(size=(batch, model.image_features)))
    f_meta = leaf(rng.normal(size=(batch, model.metadata_features)))
    mmfa = MMFAFusion(
        model.image_features, model.metadata_features, rng=rng, heads=model.heads
    )
    time_block(
        "mmfa",
        lambda: mmfa(f_img, f_meta, "train"),
        [f_img, f_meta] + [t for _, t in mmfa.params()],
    )

    fused = leaf(rng.normal(size=(batch, mmfa.out_width)))
    head_im = make_head(mmfa.out_width, dataset.n_classes, rng)
    head_i = make_head(model.image_features, dataset.n_classes, rng)
    head_m = make_head(model.metadata_features, dataset.n_classes, rng)
    time_block(
        "heads",
        lambda: (head_im(fused), head_i(f_img), head_m(f_meta)),
        [fused, f_img, f_meta]
        + [t for head in (head_im, head_i, head_m) for _, t in head.params()],
    )

    logits = [leaf(rng.normal(size=(batch, dataset.n_classes))) for _ in range(3)]
    triple = PredictionTriple(
        logits_im=logits[0], logits_i=logits[1], logits_m=logits[2]
    )
    time_block(
        "loss",
        lambda: total_loss(triple, labels, weights, cfg.train.beta, model.structure)[0],
        logits,
        scalar=True,
    )

    assembly = build_assembly(model, dataset, rng)
    triple = assembly.forward(Tensor(images), Tensor(meta), "train")
    loss, _ = total_loss(triple, labels, weights, cfg.train.beta, model.structure)
    loss.backward()
    named = assembly.named_parameters()
    step_s = [_timed(lambda: sgd_step(named, 0.0))[1] for _ in range(WARMUP + reps)]
    table["blocks.sgd_step_ms"] = statistics.median(step_s[WARMUP:]) * 1e3
    return table
