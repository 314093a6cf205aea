"""Parameter-holding building blocks: the ``Module`` base, linear,
convolution, batch norm and the bias-free linear -> batch norm unit.

Every model component subclasses ``Module``, which finds its parameters
and buffers by walking its attributes; see ``Module`` for the naming rule
that is also the checkpoint layout.
"""

import numpy as np

from .autodiff import RunningStats, Tensor, batch_norm, conv2d, linear
from .errors import FormatError


class Module:
    """Base of every model component: one attribute walk names its state.

    Attributes are visited in assignment order. A ``Tensor`` that requires
    a gradient is a parameter, a ``RunningStats`` holds the buffers
    ``running_mean`` and ``running_var``, and a ``Module`` is walked under
    its attribute name, giving dotted names such as ``fusion.qkv_img.bn.gamma``.
    ``state()`` lists all parameters, then all buffers; checkpoints store
    arrays by these names in this order.
    """

    def _walk(self, prefix=""):
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value._walk(f"{prefix}{name}.")
            elif isinstance(value, Tensor) and value.requires_grad:
                yield prefix + name, value
            elif isinstance(value, RunningStats):
                yield prefix + "running_mean", value.mean
                yield prefix + "running_var", value.var

    def params(self):
        """(dotted name, Tensor) of every parameter."""
        return [(n, v) for n, v in self._walk() if isinstance(v, Tensor)]

    named_parameters = params

    def buffers(self):
        """(dotted name, array) of every non-learned state array."""
        return [(n, v) for n, v in self._walk() if not isinstance(v, Tensor)]

    def state(self):
        """Copy of all parameters and buffers, keyed by dotted name."""
        st = {name: t.data.copy() for name, t in self.params()}
        st.update({name: b.copy() for name, b in self.buffers()})
        return st

    def load_state(self, st):
        """Copy ``st`` into the parameters and buffers in place.

        Raises ``FormatError`` before writing anything unless ``st`` has
        exactly the module's names, each with the module's shape.
        """
        targets = [(n, t.data) for n, t in self.params()] + self.buffers()
        names = {n for n, _ in targets}
        missing, extra = sorted(names - set(st)), sorted(set(st) - names)
        if missing or extra:
            raise FormatError(
                f"state names do not match the model: missing {missing}, "
                f"unexpected {extra}"
            )
        for name, arr in targets:
            shape = np.shape(st[name])
            if shape != arr.shape:
                raise FormatError(
                    f"state {name!r} has shape {shape}, the model expects {arr.shape}"
                )
        for name, arr in targets:
            arr[...] = st[name]

    def zero_grads(self):
        for _, t in self.params():
            t.zero_grad()


class Linear(Module):
    """Affine map x @ w + b; ``bias=False`` keeps ``b`` at zero and untrained."""

    def __init__(self, d_in, d_out, rng, bias=True):
        std = np.sqrt(2.0 / d_in)
        self.w = Tensor(rng.normal(0.0, std, size=(d_in, d_out)), requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=bias)

    def __call__(self, x):
        return linear(x, self.w, self.b)


class Conv2d(Module):
    """Same-padded stride-1 3x3 convolution."""

    def __init__(self, c_in, c_out, rng, bias=True):
        std = np.sqrt(2.0 / (c_in * 9))
        self.w = Tensor(rng.normal(0.0, std, size=(c_out, c_in, 3, 3)), requires_grad=True)
        self.b = Tensor(np.zeros(c_out), requires_grad=bias)

    def __call__(self, x):
        return conv2d(x, self.w, self.b)


class BatchNorm(Module):
    def __init__(self, width):
        self.gamma = Tensor(np.ones(width), requires_grad=True)
        self.beta = Tensor(np.zeros(width), requires_grad=True)
        self.stats = RunningStats(mean=np.zeros(width), var=np.ones(width))

    def __call__(self, x, mode):
        return batch_norm(x, self.gamma, self.beta, self.stats, mode)


class LinearBN(Module):
    """Linear map then batch norm, as ``lin`` and ``bn``.

    The linear layer has no bias: batch norm subtracts the batch mean, so
    a bias in front of it would have no effect and a gradient of zero.
    """

    def __init__(self, d_in, d_out, rng):
        self.lin = Linear(d_in, d_out, rng, bias=False)
        self.bn = BatchNorm(d_out)

    def __call__(self, x, mode):
        return self.bn(self.lin(x), mode)
