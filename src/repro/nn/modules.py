"""Module system: composable inference-mode layers.

A :class:`Module` owns named parameters (NumPy arrays) and child modules,
and is callable.  Only the layers the
paper's workloads need are provided; everything runs on ``(N, C, H, W)``.

A tree whose weights nobody may read can be built from the
:data:`SHAPES_ONLY` stand-in Generator and handed to
:func:`defer_weights`: it then draws its real weights on the first read
of any parameter, and never if only its layer shapes are walked.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator

import numpy as np

from repro.errors import ParameterError
from repro.nn import functional as F
from repro.utils.validation import check_non_negative_int, check_positive_int


class Module:
    """Base class: parameter/children registry plus ``forward`` dispatch."""

    #: ``(deferral, position)`` while this module's parameters wait for a
    #: :func:`defer_weights` draw; ``None`` once taken, or if never deferred.
    _deferred: "tuple[_Deferral, int] | None" = None

    def __init__(self) -> None:
        self._own_parameters: dict[str, np.ndarray] = {}
        self._children: dict[str, "Module"] = {}

    @property
    def _parameters(self) -> dict[str, np.ndarray]:
        """This module's named parameter arrays, drawn first if deferred."""
        deferred = self._deferred
        if deferred is not None:
            deferral, position = deferred
            self._own_parameters = deferral.parameters(position)
            self._deferred = None
        return self._own_parameters

    def __getstate__(self) -> dict:
        self._parameters  # the read draws deferred weights into the copy
        return self.__dict__

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register_parameter(self, name: str, value: np.ndarray) -> None:
        """Attach a named parameter array to this module."""
        if not isinstance(value, np.ndarray):
            raise ParameterError(f"parameter {name!r} must be an ndarray")
        self._parameters[name] = value

    def add_module(self, name: str, module: "Module") -> None:
        """Attach a named child module."""
        if not isinstance(module, Module):
            raise ParameterError(f"child {name!r} must be a Module")
        self._children[name] = module

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Module) and name not in ("_parameters", "_children"):
            object.__setattr__(self, name, value)
            if hasattr(self, "_children"):
                self._children[name] = value
            return
        object.__setattr__(self, name, value)

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant, depth-first."""
        yield self
        for child in self._children.values():
            yield from child.modules()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the module output; subclasses must override."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for index, layer in enumerate(layers):
            self.add_module(str(index), layer)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


class Conv2d(Module):
    """Strided convolution layer; weight layout ``(KH, KW, C_in, C_out)``."""

    def __init__(
        self, in_channels: int, out_channels: int, kernel_size: int,
        stride: int = 1, padding: int = 0, bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        check_positive_int(in_channels, "in_channels")
        check_positive_int(out_channels, "out_channels")
        check_positive_int(kernel_size, "kernel_size")
        check_positive_int(stride, "stride")
        check_non_negative_int(padding, "padding")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = rng or np.random.default_rng(0)
        fan_in = kernel_size * kernel_size * in_channels
        weight = rng.normal(
            0.0, np.sqrt(2.0 / fan_in),
            size=(kernel_size, kernel_size, in_channels, out_channels),
        )
        self.register_parameter("weight", weight)
        if bias:
            self.register_parameter("bias", np.zeros(out_channels))

    @property
    def weight(self) -> np.ndarray:
        return self._parameters["weight"]

    @property
    def bias(self) -> np.ndarray | None:
        return self._parameters.get("bias")

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)


class ConvTranspose2d(Module):
    """Transposed-convolution layer — the op RED accelerates.

    Weight layout ``(KH, KW, C_in, C_out)`` matches
    :class:`repro.deconv.shapes.DeconvSpec`, so a layer instance can be
    mapped onto any of the accelerator designs without reshaping.
    """

    def __init__(
        self, in_channels: int, out_channels: int, kernel_size: int,
        stride: int = 1, padding: int = 0, output_padding: int = 0,
        bias: bool = True, rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        check_positive_int(in_channels, "in_channels")
        check_positive_int(out_channels, "out_channels")
        check_positive_int(kernel_size, "kernel_size")
        check_positive_int(stride, "stride")
        check_non_negative_int(padding, "padding")
        check_non_negative_int(output_padding, "output_padding")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.output_padding = output_padding
        rng = rng or np.random.default_rng(0)
        fan_in = kernel_size * kernel_size * in_channels
        weight = rng.normal(
            0.0, np.sqrt(2.0 / fan_in),
            size=(kernel_size, kernel_size, in_channels, out_channels),
        )
        self.register_parameter("weight", weight)
        if bias:
            self.register_parameter("bias", np.zeros(out_channels))

    @property
    def weight(self) -> np.ndarray:
        return self._parameters["weight"]

    @property
    def bias(self) -> np.ndarray | None:
        return self._parameters.get("bias")

    def deconv_spec(self, input_height: int, input_width: int):
        """Build the :class:`DeconvSpec` for a given input size."""
        from repro.deconv.shapes import DeconvSpec

        return DeconvSpec(
            input_height=input_height, input_width=input_width,
            in_channels=self.in_channels,
            kernel_height=self.kernel_size, kernel_width=self.kernel_size,
            out_channels=self.out_channels,
            stride=self.stride, padding=self.padding,
            output_padding=self.output_padding,
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.conv_transpose2d(
            x, self.weight, self.bias, self.stride, self.padding, self.output_padding
        )


class BatchNorm2d(Module):
    """Inference-mode batch normalization."""

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        check_positive_int(num_features, "num_features")
        self.num_features = num_features
        self.eps = eps
        self.register_parameter("gamma", np.ones(num_features))
        self.register_parameter("beta", np.zeros(num_features))
        self.register_parameter("running_mean", np.zeros(num_features))
        self.register_parameter("running_var", np.ones(num_features))

    def forward(self, x: np.ndarray) -> np.ndarray:
        p = self._parameters
        return F.batch_norm(
            x, p["running_mean"], p["running_var"], p["gamma"], p["beta"], self.eps
        )


class ReLU(Module):
    """Elementwise ReLU."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.relu(x)


class Tanh(Module):
    """Elementwise tanh."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.tanh(x)


class Identity(Module):
    """Pass-through module."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x


class _ShapesOnly:
    """A Generator stand-in that draws nothing.

    ``normal`` returns a read-only broadcast view of ``loc``: the shape
    a layer constructor asks for, without memory or a draw.
    """

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        return np.broadcast_to(np.float64(loc), size)


#: Pass as ``rng`` to build a module tree's layer shapes without drawing
#: its weights; see :func:`defer_weights`.
SHAPES_ONLY = _ShapesOnly()


class _Deferral:
    """One tree's pending weight draw, run once by the first reader.

    It holds the drawn parameter dicts by depth-first position and never
    the deferred modules, so a tree nobody reads frees by reference
    counting, like an eagerly built one.
    """

    def __init__(self, draw: Callable[[], Module]) -> None:
        self._lock = threading.Lock()
        self._draw: Callable[[], Module] | None = draw
        self._drawn: list[dict[str, np.ndarray]] = []

    def parameters(self, position: int) -> dict[str, np.ndarray]:
        """The drawn parameters of the module at ``position``."""
        with self._lock:
            if self._draw is not None:
                self._drawn = [module._own_parameters for module in self._draw().modules()]
                self._draw = None
            return self._drawn[position]


def defer_weights(tree: Module, draw: Callable[[], Module]) -> Module:
    """``tree``, whose parameters come from ``draw()`` on first read.

    ``tree`` carries the layer shapes (built with ``rng=SHAPES_ONLY``);
    ``draw`` builds the same tree eagerly, real weights included.  The
    first read of any parameter anywhere in the tree — ``_parameters``,
    ``weight``, a forward pass, pickling — runs
    ``draw`` once under a lock; each module then reads the parameters of
    the drawn module at its depth-first position.  Concurrent first
    readers wait for that one draw.  Walking the tree's children and
    layer attributes reads no parameter, so it draws nothing.
    """
    deferral = _Deferral(draw)
    for position, module in enumerate(tree.modules()):
        module._deferred = (deferral, position)
    return tree
