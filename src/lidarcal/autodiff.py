"""Minimal reverse-mode differentiation over a fixed operation set.

Tensors wrap float64 numpy arrays and carry parent links with vjp closures
(the recorded graph). Every vjp is itself built from the same recorded ops,
so a backward pass produced with create_graph=True can be differentiated
again; that second-order path is what the discriminator's gradient penalty
needs.

The operation set is closed and fixed: circular 1-D convolution (kernel
width odd, default 7), affine maps, leaky_relu, sigmoid, softmax, and the
elementwise/reduction ops the loss terms use. No general autodiff.

Two invariants keep a backward pass to the work its result needs:

- `grad` calls a vjp only for a parent from which some requested input can
  be reached; a subgraph that reaches no input (frozen weights, constants)
  costs nothing in the reverse pass.
- No vjp closure holds its own output tensor strongly. The output holds the
  closure in its parents, so a strong link back would be a reference cycle,
  and a cycle keeps the whole graph alive until the cyclic collector runs.
  Ops whose vjp needs the output (exp, sigmoid) reach it by weak reference;
  a graph is freed by reference counting as soon as its output is dropped.
"""

from __future__ import annotations

import contextlib
import weakref

import numpy as np

_RECORDING = [True]


@contextlib.contextmanager
def no_record():
    """Disable graph recording inside the block (used for plain first-order backward)."""
    _RECORDING.append(False)
    try:
        yield
    finally:
        _RECORDING.pop()


class Tensor:
    """A float64 array plus the parent links that record how it was computed."""

    __slots__ = ("data", "parents", "__weakref__")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = tuple(parents) if _RECORDING[-1] else ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # operators
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_lift(other)))

    def __rsub__(self, other):
        return add(_lift(other), neg(self))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, pow_const(_lift(other), -1.0))

    def __rtruediv__(self, other):
        return mul(_lift(other), pow_const(self, -1.0))

    def __pow__(self, p):
        return pow_const(self, p)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, recorded={bool(self.parents)})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# primitives


def _unbroadcast(g: Tensor, shape: tuple) -> Tensor:
    """Reduce a broadcasted gradient back to `shape` (differentiable)."""
    if g.data.shape == shape:
        return g
    extra = g.data.ndim - len(shape)
    if extra > 0:
        g = tsum(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.data.shape[i] != 1)
    if axes:
        g = tsum(g, axis=axes, keepdims=True)
    if g.data.shape != shape:
        g = reshape(g, shape)
    return g


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return Tensor(a.data + b.data,
                  [(a, lambda g: _unbroadcast(g, a.data.shape)),
                   (b, lambda g: _unbroadcast(g, b.data.shape))])


def neg(a) -> Tensor:
    a = _lift(a)
    return Tensor(-a.data, [(a, lambda g: neg(g))])


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return Tensor(a.data * b.data,
                  [(a, lambda g: _unbroadcast(mul(g, b), a.data.shape)),
                   (b, lambda g: _unbroadcast(mul(g, a), b.data.shape))])


def pow_const(a, p: float) -> Tensor:
    a = _lift(a)
    p = float(p)
    return Tensor(a.data ** p,
                  [(a, lambda g: mul(g, mul(Tensor(p), pow_const(a, p - 1.0))))])


def _record_self_vjp(out: Tensor, a: Tensor, vjp) -> Tensor:
    """Record a -> out for a vjp(g, out) that needs out itself, linked weakly.

    The node being differentiated is alive whenever grad calls its vjp, so the
    weak reference always resolves there.
    """
    if _RECORDING[-1]:
        ref = weakref.ref(out)
        out.parents = ((a, lambda g: vjp(g, ref())),)
    return out


def exp(a) -> Tensor:
    a = _lift(a)
    return _record_self_vjp(Tensor(np.exp(a.data)), a, lambda g, out: mul(g, out))


def log(a) -> Tensor:
    a = _lift(a)
    return Tensor(np.log(a.data), [(a, lambda g: mul(g, pow_const(a, -1.0)))])


def tabs(a) -> Tensor:
    a = _lift(a)
    sign = Tensor(np.sign(a.data))  # constant; subgradient 0 at 0
    return Tensor(np.abs(a.data), [(a, lambda g: mul(g, sign))])


def minimum(a, b) -> Tensor:
    """Elementwise min; the gradient follows the smaller branch (ties -> a)."""
    a, b = _lift(a), _lift(b)
    mask = Tensor((a.data <= b.data).astype(np.float64))
    inv = Tensor(1.0 - mask.data)
    return Tensor(np.minimum(a.data, b.data),
                  [(a, lambda g: _unbroadcast(mul(g, mask), a.data.shape)),
                   (b, lambda g: _unbroadcast(mul(g, inv), b.data.shape))])


def maximum(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    mask = Tensor((a.data >= b.data).astype(np.float64))
    inv = Tensor(1.0 - mask.data)
    return Tensor(np.maximum(a.data, b.data),
                  [(a, lambda g: _unbroadcast(mul(g, mask), a.data.shape)),
                   (b, lambda g: _unbroadcast(mul(g, inv), b.data.shape))])


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _lift(a)
    out = np.sum(a.data, axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            gk = reshape(g, (1,) * a.data.ndim)
        elif not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(ax % a.data.ndim for ax in axes)
            kshape = tuple(1 if i in axes else n for i, n in enumerate(a.data.shape))
            gk = reshape(g, kshape)
        else:
            gk = g
        return broadcast_to(gk, a.data.shape)

    return Tensor(out, [(a, vjp)])


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = _lift(a)
    if axis is None:
        n = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.data.shape[ax] for ax in axes]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / n))


def broadcast_to(a, shape) -> Tensor:
    a = _lift(a)
    shape = tuple(shape)
    return Tensor(np.broadcast_to(a.data, shape),
                  [(a, lambda g: _unbroadcast(g, a.data.shape))])


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    shape = tuple(shape)
    return Tensor(a.data.reshape(shape),
                  [(a, lambda g: reshape(g, a.data.shape))])


def transpose(a, axes) -> Tensor:
    a = _lift(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return Tensor(np.transpose(a.data, axes),
                  [(a, lambda g: transpose(g, inv))])


def flip(a, axis: int) -> Tensor:
    a = _lift(a)
    return Tensor(np.flip(a.data, axis=axis),
                  [(a, lambda g: flip(g, axis))])


def roll(a, shift: int, axis: int) -> Tensor:
    a = _lift(a)
    return Tensor(np.roll(a.data, shift, axis=axis),
                  [(a, lambda g: roll(g, -shift, axis))])


def getitem(a, key) -> Tensor:
    a = _lift(a)
    return Tensor(a.data[key],
                  [(a, lambda g: scatter(g, key, a.data.shape))])


def scatter(g, key, shape) -> Tensor:
    """Place g into a zero array of `shape` at `key` (adjoint of getitem)."""
    g = _lift(g)
    out = np.zeros(shape, dtype=np.float64)
    out[key] = g.data
    return Tensor(out, [(g, lambda h: getitem(h, key))])


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    parents = []
    start = 0
    for t in tensors:
        n = t.data.shape[axis]
        key = tuple(slice(None) if i != axis else slice(start, start + n)
                    for i in range(out.ndim))
        parents.append((t, lambda g, key=key: getitem(g, key)))
        start += n
    return Tensor(out, parents)


def einsum2(spec: str, a, b) -> Tensor:
    """Two-operand einsum whose vjps swap the output subscript with an operand's.

    Valid only for specs with no index repeated within an operand and no index
    private to a single operand (all internal uses satisfy this).
    """
    a, b = _lift(a), _lift(b)
    lhs, so = spec.split("->")
    sa, sb = lhs.split(",")
    return Tensor(np.einsum(spec, a.data, b.data),
                  [(a, lambda g: einsum2(f"{so},{sb}->{sa}", g, b)),
                   (b, lambda g: einsum2(f"{sa},{so}->{sb}", a, g))])


# ---------------------------------------------------------------------------
# neural-net operations


def _conv_stack(x: np.ndarray, K: int) -> np.ndarray:
    """xs[k][b,c,i] = x[b,c,(i+k-K//2) mod L]."""
    off = K // 2
    return np.stack([np.roll(x, off - k, axis=2) for k in range(K)])


def conv1d_circular(x, kernel, bias=None) -> Tensor:
    """Length-preserving circular 1-D convolution.

    y[b,o,i] = bias[o] + sum_{c,k} kernel[o,c,k] * x[b,c,(i+k-K//2) mod L].
    """
    x, kernel = _lift(x), _lift(kernel)
    if x.data.ndim != 3 or kernel.data.ndim != 3:
        raise ValueError(f"conv1d_circular expects x[b,c,L], kernel[o,c,K]; got {x.shape}, {kernel.shape}")
    if x.data.shape[1] != kernel.data.shape[1]:
        raise ValueError(f"channel mismatch: x has {x.data.shape[1]}, kernel expects {kernel.data.shape[1]}")
    K = kernel.data.shape[2]
    if K % 2 != 1 or K > x.data.shape[2]:
        raise ValueError(f"kernel width must be odd and <= L, got {K}")
    xs = _conv_stack(x.data, K)
    out = np.einsum("ock,kbci->boi", kernel.data, xs)

    def vjp_x(g):
        # K2[c,o,k] = kernel[o,c,K-1-k]; grad_x = conv(g, K2)
        return conv1d_circular(g, transpose(flip(kernel, 2), (1, 0, 2)))

    def vjp_k(g):
        return conv1d_kernel_grad(x, g, K)

    y = Tensor(out, [(x, vjp_x), (kernel, vjp_k)])
    if bias is not None:
        bias = _lift(bias)
        if bias.data.shape != (kernel.data.shape[0],):
            raise ValueError(f"bias shape {bias.data.shape} != ({kernel.data.shape[0]},)")
        y = add(y, reshape(bias, (1, -1, 1)))
    return y


def conv1d_kernel_grad(x, g, K: int) -> Tensor:
    """Adjoint of conv1d_circular w.r.t. its kernel.

    gk[o,c,t] = sum_{b,i} g[b,o,i] * x[b,c,(i+t-K//2) mod L]. Differentiable in
    both arguments so the second-order GP path stays inside the op set.
    """
    x, g = _lift(x), _lift(g)
    xs = _conv_stack(x.data, K)
    out = np.einsum("boi,tbci->oct", g.data, xs)

    def vjp_x(h):
        return conv1d_circular(g, transpose(flip(h, 2), (1, 0, 2)))

    def vjp_g(h):
        return conv1d_circular(x, h)

    return Tensor(out, [(x, vjp_x), (g, vjp_g)])


def leaky_relu(x, slope: float = 0.2) -> Tensor:
    """y = x for x > 0 else slope*x; the kink at 0 uses the negative-branch slope."""
    x = _lift(x)
    factor = Tensor(np.where(x.data > 0, 1.0, slope))
    return Tensor(x.data * factor.data, [(x, lambda g: mul(g, factor))])


def fully_connected(x, W, bias=None) -> Tensor:
    """y[b,m] = sum_n W[m,n]*x[b,n] (+ bias[m])."""
    x, W = _lift(x), _lift(W)
    if x.data.ndim != 2 or W.data.ndim != 2 or x.data.shape[1] != W.data.shape[1]:
        raise ValueError(f"fully_connected shape mismatch: x{x.shape} W{W.shape}")
    y = einsum2("bn,mn->bm", x, W)
    if bias is not None:
        bias = _lift(bias)
        if bias.data.shape != (W.data.shape[0],):
            raise ValueError(f"bias shape {bias.data.shape} != ({W.data.shape[0]},)")
        y = add(y, reshape(bias, (1, -1)))
    return y


def sigmoid(x) -> Tensor:
    x = _lift(x)
    xd = x.data
    out_data = np.where(xd >= 0, 1.0 / (1.0 + np.exp(-np.abs(xd))),
                        np.exp(-np.abs(xd)) / (1.0 + np.exp(-np.abs(xd))))
    return _record_self_vjp(Tensor(out_data), x,
                            lambda g, s: mul(g, mul(s, add(Tensor(1.0), neg(s)))))


def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along `axis` (max-shift is detached)."""
    x = _lift(x)
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    e = exp(add(x, neg(shift)))
    return mul(e, pow_const(tsum(e, axis=axis, keepdims=True), -1.0))


def variance(x, axis=None, keepdims=False) -> Tensor:
    """Population (divide-by-n) variance; a single element has variance 0."""
    x = _lift(x)
    c = add(x, neg(tmean(x, axis=axis, keepdims=True)))
    return tmean(mul(c, c), axis=axis, keepdims=keepdims)


def l1_norm(x) -> Tensor:
    return tsum(tabs(x))


def l2_norm(x, eps: float = 0.0) -> Tensor:
    s = tsum(mul(x, x))
    if eps:
        s = add(s, Tensor(eps))
    return pow_const(s, 0.5)


def squared_difference(a, b) -> Tensor:
    d = add(_lift(a), neg(_lift(b)))
    return mul(d, d)


# ---------------------------------------------------------------------------
# reverse pass


def _toposort(output: Tensor, inputs) -> tuple[list, set]:
    """Nodes on a path from output to some input, parents before children.

    Returns them in order together with their ids. The walk is a depth-first
    postorder: a node is finished only after all its parents, so by then it is
    known whether one of them leads to an input.
    """
    wanted = {id(t) for t in inputs}
    order, seen, live = [], set(), set()
    stack = [(output, False)]
    while stack:
        node, done = stack.pop()
        if done:
            if id(node) in wanted or any(id(p) in live for p, _ in node.parents):
                live.add(id(node))
                order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order, live


def grad(output: Tensor, inputs, create_graph: bool = False) -> list:
    """Reverse-mode gradients of a scalar output w.r.t. each input tensor.

    Inputs not reachable from the output get zero gradients. Only vjps that
    lead to an input are called. With create_graph=True the returned
    gradients are themselves recorded and can be differentiated again.
    """
    if output.data.size != 1:
        raise ValueError(f"grad expects a scalar output, got shape {output.data.shape}")
    inputs = list(inputs)

    def run():
        order, live = _toposort(output, inputs)
        grads = {id(output): Tensor(np.ones_like(output.data))}
        for node in reversed(order):
            g = grads[id(node)]
            for parent, vjp in node.parents:
                if id(parent) not in live:
                    continue
                contrib = vjp(g)
                prev = grads.get(id(parent))
                grads[id(parent)] = contrib if prev is None else add(prev, contrib)
        return [grads.get(id(t)) if grads.get(id(t)) is not None else Tensor(np.zeros_like(t.data))
                for t in inputs]

    if create_graph:
        return run()
    with no_record():
        return run()


def grad_of_grad_norm(output: Tensor, x: Tensor, weights, eps: float = 1e-12) -> list:
    """Gradients of ||grad_x output||_2 w.r.t. the weight tensors.

    The first backward pass is re-recorded so it can be differentiated; eps
    keeps the norm's gradient defined (and zero) when grad_x output vanishes.
    """
    (gx,) = grad(output, [x], create_graph=True)
    norm = l2_norm(gx, eps=eps)
    return grad(norm, weights)
