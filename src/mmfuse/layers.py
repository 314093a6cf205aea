"""Parameter-holding building blocks: the ``Module`` base, the flat
parameter vectors ``Params``, linear with a trained bias, convolution,
batch norm and the bias-free linear -> batch norm unit (``w`` and ``bn``).

Every model component subclasses ``Module``, which finds its parameters
and buffers by walking its attributes; see ``Module`` for the naming rule
that is also the checkpoint layout.
"""

import numpy as np

from .autodiff import RunningStats, Tensor, batch_norm, conv2d, dense_block, linear
from .errors import ContractError, FormatError


class Params(list):
    """(dotted name, Tensor) pairs whose arrays live in two flat vectors.

    Building one copies every tensor's values into the float64 vector
    ``data`` and its gradient (zero if it has none) into ``grad``, in list
    order, and rebinds each ``Tensor.data`` and ``Tensor.grad`` to a view
    into them, as ``torch.nn.utils.parameters_to_vector`` and JAX's
    ``ravel_pytree`` lay parameters out. In-place writes through a tensor
    or a vector reach the other; ``ends[i]`` is where tensor ``i`` ends.
    A tensor whose data is already a view, such as one bound to another
    ``Params``, is refused: rebinding it would silently cut it off from
    the vectors it lives in.
    """

    def __init__(self, named):
        super().__init__(named)
        for name, t in self:
            if t.data.base is not None:
                raise ContractError(f"parameter {name!r} is already a view into another array")
        self.ends = np.cumsum([t.data.size for _, t in self], dtype=np.intp)
        size = int(self.ends[-1]) if len(self) else 0
        self.data, self.grad = np.empty(size), np.zeros(size)
        start = 0
        for (_, t), end in zip(self, self.ends):
            shape = t.data.shape
            self.data[start:end] = t.data.ravel()
            if t.grad is not None:
                self.grad[start:end] = t.grad.ravel()
            t.data = self.data[start:end].reshape(shape)
            t.grad = self.grad[start:end].reshape(shape)
            start = end

    def name_at(self, i):
        """Name of the parameter that holds flat index ``i``."""
        return self[int(np.searchsorted(self.ends, i, side="right"))][0]


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


class Linear(Module):
    """Affine map x @ w + b with a trained bias ``b``."""

    def __init__(self, d_in, d_out, rng):
        std = np.sqrt(2.0 / d_in)
        self.w = Tensor(rng.normal(0.0, std, size=(d_in, d_out)), requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

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
    """Linear map by the weight ``w`` then batch norm ``bn``, run as one
    ``autodiff.dense_block`` graph node with an optional ReLU after it.

    There is no bias: batch norm subtracts the batch mean, so a bias in
    front of it would have no effect and a gradient of zero.
    """

    def __init__(self, d_in, d_out, rng):
        std = np.sqrt(2.0 / d_in)
        self.w = Tensor(rng.normal(0.0, std, size=(d_in, d_out)), requires_grad=True)
        self.bn = BatchNorm(d_out)

    def __call__(self, x, mode, relu=False):
        bn = self.bn
        return dense_block(x, self.w, bn.gamma, bn.beta, bn.stats, mode, relu)
