"""Fuzzed autograd verification: random expression DAGs vs numerical grads.

Hypothesis builds random computation graphs from the op set the model
uses; every graph's analytic gradient must match central differences.
This is the strongest single guarantee on the NN substrate: if it holds
over random DAGs, the training losses' gradients are trustworthy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracle import Tensor, concat, rowwise_dot

# Unary ops that are smooth (no kinks) so finite differences converge.
SMOOTH_UNARY = ("exp", "tanh", "sigmoid", "log_sigmoid")
BINARY = ("add", "mul", "sub")


@st.composite
def expression_case(draw):
    """A random DAG recipe over two leaf matrices."""
    ops = draw(st.lists(
        st.tuples(st.sampled_from(BINARY + SMOOTH_UNARY),
                  st.integers(0, 5)),
        min_size=1, max_size=6,
    ))
    seed = draw(st.integers(0, 2**31 - 1))
    return ops, seed


def build(ops, a, b):
    """Apply the recipe; nodes list lets binaries reuse earlier results."""
    nodes = [a, b]
    for op, pick in ops:
        x = nodes[pick % len(nodes)]
        if op in SMOOTH_UNARY:
            # Keep magnitudes sane so exp never overflows.
            nodes.append(getattr(x * 0.3, op)())
        else:
            y = nodes[(pick + 1) % len(nodes)]
            if op == "add":
                nodes.append(x + y)
            elif op == "sub":
                nodes.append(x - y)
            else:
                nodes.append(x * y)
    # Reduce everything reachable to a scalar.
    return (nodes[-1] * nodes[0]).sum()


def numerical_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f()
        x[idx] = orig - eps
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


class TestRandomGraphs:
    @given(expression_case())
    @settings(max_examples=60, deadline=None)
    def test_gradients_match_finite_differences(self, case):
        ops, seed = case
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(scale=0.5, size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(scale=0.5, size=(2, 3)), requires_grad=True)

        loss = build(ops, a, b)
        loss.backward()
        for leaf in (a, b):
            expected = numerical_grad(lambda: build(ops, a, b).item(),
                                      leaf.data)
            got = leaf.grad if leaf.grad is not None \
                else np.zeros_like(leaf.data)
            np.testing.assert_allclose(got, expected, atol=2e-4, rtol=2e-4)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mixed_structural_ops(self, seed):
        """concat + rowwise_dot + matmul compose correctly."""
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(scale=0.5, size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(scale=0.5, size=(3, 2)), requires_grad=True)
        w = Tensor(rng.normal(scale=0.5, size=(4, 3)), requires_grad=True)

        def forward():
            joined = concat([a, b], axis=1)          # (3, 4)
            projected = joined @ w                   # (3, 4)x(4, 3)->(3, 3)
            return (rowwise_dot(projected, projected) * 0.1).sum()

        forward().backward()
        for leaf in (a, b, w):
            expected = numerical_grad(lambda: forward().item(), leaf.data)
            np.testing.assert_allclose(leaf.grad, expected,
                                       atol=2e-4, rtol=2e-4)


# Operand shapes per op: (left, right); one side becomes the constant.
def _binary_shapes(op, m, k, n):
    if op == "matmul":
        return [((m, k), (k, n)), ((k,), (k, n)), ((m, k), (k,)),
                ((2, m, k), (k, n))]
    return [((m, n), (m, n)), ((m, n), (n,)), ((m, n), (m, 1)),
            ((n,), (m, n)), ((1,), (m, n))]


def _apply(op, left, right):
    if op == "matmul":
        return left @ right
    if op == "mul":
        return left * right
    if op == "div":
        return left / right
    if op == "add":
        return left + right
    return left - right


class TestConstantOperands:
    """A constant operand gets no gradient, and the other keeps its bits.

    The binary ops skip the gradient of a parent that does not require
    grad.  The gradient they still compute must be byte-equal to the one
    from the same graph with both operands trainable.
    """

    @given(st.sampled_from(("matmul", "mul", "div", "add", "sub")),
           st.integers(0, 4), st.booleans(),
           st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_constant_side_skipped_bitwise(self, op, shape_pick,
                                           constant_left, m, k, n, seed):
        rng = np.random.default_rng(seed)
        shapes = _binary_shapes(op, m, k, n)
        left_shape, right_shape = shapes[shape_pick % len(shapes)]
        left_data = rng.normal(size=left_shape)
        right_data = rng.normal(size=right_shape)
        if op == "div":
            right_data = np.abs(right_data) + 0.5

        def run(constant_trainable):
            left = Tensor(left_data, requires_grad=True)
            right = Tensor(right_data, requires_grad=True)
            const = left if constant_left else right
            const.requires_grad = constant_trainable
            out = _apply(op, left, right)
            (out.tanh() * out).sum().backward()
            var = right if constant_left else left
            return var.grad, const.grad

        grad_frozen, const_grad = run(False)
        grad_full, const_grad_full = run(True)
        assert const_grad is None
        assert const_grad_full is not None
        assert grad_frozen.shape == grad_full.shape
        assert grad_frozen.tobytes() == grad_full.tobytes()
