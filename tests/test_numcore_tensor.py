"""Gradient and algebra checks for the tensor op set.

Every differentiable op is checked against a central-difference oracle
computed here, independent of the gradcheck helper. That covers the
library's ops and the generic reference ops in ``reference_ops``, which
the fused ops' tests compare against. The forward passes are
cross-checked against numpy/scipy references. A guard keeps every
export and public definition of ``volgraph`` to what the library and the
benchmark use, and another keeps every parameter container to tensors.
"""

from __future__ import annotations

import ast
import typing
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import volgraph.numcore as nc
from volgraph.errors import NonFiniteError, ShapeError, VolgraphError
from volgraph.numcore.layers import _attention_weights, _layer_norm
from volgraph.numcore.tensor import (
    _segment_reduce,
    _segment_softmax,
    _segment_softmax_grad,
    as_tensor,
)

import reference_ops as ro


def fd_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of scalar-valued ``f`` at ``x``, entry by entry."""
    x = x.astype(np.float64).copy()
    g = np.zeros_like(x)
    flat, gf = x.ravel(), g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def assert_op_grads(op, arrays, tol=2e-6, h=1e-6, **kwargs):
    """Backward pass of ``op`` against finite differences, one input at a time.

    Loss is a fixed random weighting of the op output, so every output
    element contributes to every input gradient.
    """
    out0 = op(*[nc.Tensor(a) for a in arrays], **kwargs)
    w = np.random.default_rng(7).normal(size=out0.shape)

    def loss_value(args):
        out = op(*[nc.Tensor(a) for a in args], **kwargs)
        return float(ro.sum_(ro.mul(out, nc.Tensor(w))).data)

    tensors = [nc.Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = ro.sum_(ro.mul(op(*tensors, **kwargs), nc.Tensor(w)))
    loss.backward()

    for k, a in enumerate(arrays):
        def f(x, k=k):
            return loss_value([x if j == k else arrays[j] for j in range(len(arrays))])

        fd = fd_grad(f, a, h=h)
        assert tensors[k].grad is not None, f"input {k} got no gradient"
        np.testing.assert_allclose(tensors[k].grad, fd, rtol=tol, atol=tol)


# -- elementwise arithmetic ---------------------------------------------------------


class TestArithmeticGrads:
    def test_add_same_shape(self, rng):
        assert_op_grads(ro.add, [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))])

    def test_add_broadcast_row(self, rng):
        assert_op_grads(ro.add, [rng.normal(size=(3, 4)), rng.normal(size=(4,))])

    def test_add_broadcast_scalar_like(self, rng):
        assert_op_grads(ro.add, [rng.normal(size=(2, 3)), rng.normal(size=(1, 1))])

    def test_sub(self, rng):
        assert_op_grads(ro.sub, [rng.normal(size=(5,)), rng.normal(size=(5,))])

    def test_mul_broadcast(self, rng):
        assert_op_grads(ro.mul, [rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 4))])

    def test_div(self, rng):
        num = rng.normal(size=(4, 3))
        den = rng.uniform(0.5, 2.0, size=(4, 3)) * np.sign(rng.normal(size=(4, 3)))
        assert_op_grads(ro.div, [num, den])

    def test_div_broadcast_column(self, rng):
        num = rng.normal(size=(4, 3))
        den = rng.uniform(0.5, 2.0, size=(4, 1))
        assert_op_grads(ro.div, [num, den])


class TestUnaryGrads:
    def test_exp(self, rng):
        assert_op_grads(ro.exp, [rng.normal(size=(3, 3))])

    def test_tanh(self, rng):
        assert_op_grads(ro.tanh, [rng.normal(size=(7,))])

    def test_sigmoid(self, rng):
        assert_op_grads(ro.sigmoid, [rng.normal(size=(4, 2))])

    def test_relu_away_from_kink(self, rng):
        x = rng.normal(size=(20,))
        x = x[np.abs(x) > 0.05][:12]
        assert_op_grads(ro.relu, [x])



# -- forward cross-checks against scipy/numpy ---------------------------------------


def attention_weights(x: np.ndarray) -> np.ndarray:
    """The softmax of ``x`` over its last axis, read off the encoder layer's
    attention-weight kernel as e / l.

    One-wide queries of ones meet keys ``x``, so the scores are ``x``
    exactly.
    """
    q = np.ones(x.shape[:-1] + (1, 1))
    e, _ = _attention_weights(q, x[..., None])
    return (e / e.sum(axis=-1, keepdims=True))[..., 0, :]


class TestForwardReferences:
    def test_sigmoid_matches_expit(self, rng):
        x = rng.normal(size=100) * 5
        np.testing.assert_allclose(
            ro.sigmoid(nc.Tensor(x)).data, scipy.special.expit(x), atol=1e-12
        )

    def test_softmax_matches_scipy(self, rng):
        x = rng.normal(size=(6, 9)) * 3
        np.testing.assert_allclose(
            attention_weights(x),
            scipy.special.softmax(x, axis=-1),
            atol=1e-12,
        )

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(size=(5, 8)) * 10
        s = attention_weights(x)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self, rng):
        # the max-shift must make huge logits safe and leave values unchanged
        x = rng.normal(size=(4, 6))
        a = attention_weights(x)
        b = attention_weights(x + 500.0)
        np.testing.assert_allclose(a, b, atol=1e-12)
        big = attention_weights(x * 200.0)
        assert np.all(np.isfinite(big))

    def test_layer_norm_standardizes_rows(self, rng):
        x = rng.normal(size=(3, 16)) * 4 + 2
        gamma = np.ones(16)
        beta = np.zeros(16)
        y = _layer_norm(x.copy(), gamma, beta)[0]
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)

    def test_layer_norm_matches_manual(self, rng):
        # wide enough for numpy's pairwise summation to split the rows
        x = rng.normal(size=(3, 300)) * 3 + 1
        gamma = rng.normal(size=300)
        beta = rng.normal(size=300)
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        want = (x - mu) * (1.0 / np.sqrt(var + 1e-5)) * gamma + beta
        got = _layer_norm(x.copy(), gamma, beta)[0]
        # a − μ is formed once, but μ and σ² round as np.mean and np.var do
        assert np.array_equal(got, want)


# -- structural ops -----------------------------------------------------------------


class TestStructuralGrads:
    def test_matmul_2d(self, rng):
        assert_op_grads(ro.matmul, [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])

    def test_matmul_batched(self, rng):
        assert_op_grads(ro.matmul, [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 5))])

    def test_matmul_broadcast_stack(self, rng):
        assert_op_grads(ro.matmul, [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))])

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ShapeError):
            ro.matmul(nc.Tensor(np.ones(3)), nc.Tensor(np.ones((3, 2))))

    def test_reshape(self, rng):
        assert_op_grads(lambda t: ro.reshape(t, 3, 4), [rng.normal(size=(2, 6))])

    def test_swapaxes(self, rng):
        assert_op_grads(ro.swapaxes, [rng.normal(size=(2, 3, 4))], axis1=0, axis2=2)

    def test_concat_axis0_and_1(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        out = nc.concat([nc.Tensor(a), nc.Tensor(b)], axis=0)
        np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=0))
        ta = nc.Tensor(a, requires_grad=True)
        tb = nc.Tensor(b, requires_grad=True)
        ro.sum_(nc.concat([ta, tb], axis=0)).backward()
        np.testing.assert_array_equal(ta.grad, np.ones_like(a))
        np.testing.assert_array_equal(tb.grad, np.ones_like(b))
        c, d = rng.normal(size=(3, 2)), rng.normal(size=(3, 5))
        out = nc.concat([nc.Tensor(c), nc.Tensor(d)], axis=1)
        np.testing.assert_array_equal(out.data, np.concatenate([c, d], axis=1))

    def test_take_axis0_duplicates_accumulate(self, rng):
        # gathering a row twice must scatter-add its gradient twice
        x = nc.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = nc.take(x, np.array([0, 0, 2]))
        ro.sum_(out).backward()
        want = np.zeros((4, 3))
        want[0] = 2.0
        want[2] = 1.0
        np.testing.assert_array_equal(x.grad, want)

    def test_take_axis1(self, rng):
        # the reference column gather that ``gat_layer_chain`` splits ``proj`` with
        x = rng.normal(size=(3, 5))
        idx = np.array([4, 1, 1])
        got = ro.take_cols(nc.Tensor(x), idx)
        np.testing.assert_array_equal(got.data, x[:, idx])
        t = nc.Tensor(x, requires_grad=True)
        ro.sum_(ro.take_cols(t, idx)).backward()
        want = np.zeros_like(x)
        np.add.at(want, (slice(None), idx), 1.0)
        np.testing.assert_array_equal(t.grad, want)

    def test_sum_axis_variants(self, rng):
        x = rng.normal(size=(2, 3, 4))
        for kwargs in ({}, {"axis": 1}, {"axis": (0, 2)}, {"axis": 2, "keepdims": True}):
            assert_op_grads(ro.sum_, [x], **kwargs)

    def test_mean_matches_numpy(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(ro.mean_(nc.Tensor(x), axis=0).data, x.mean(axis=0))
        assert_op_grads(ro.mean_, [x], axis=1)


# -- segment ops --------------------------------------------------------------------


def segment_sum(x, ids, num_segments):
    return _segment_reduce(np.add, x, np.asarray(ids, dtype=np.intp), num_segments, 0.0)


class TestSegmentOps:
    """The numpy segment sum and the segment softmax pair that the fused
    market pooling and graph attention share."""

    def test_segment_sum_matches_loop(self, rng):
        x = rng.normal(size=(7, 3))
        ids = np.array([0, 0, 1, 2, 2, 2, 4])
        got = segment_sum(x, ids, 5)
        want = np.zeros((5, 3))
        for row, s in zip(x, ids):
            want[s] += row
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_segment_softmax_sums_to_one(self, rng):
        ids = np.array([0, 0, 0, 1, 1, 3])
        s = _segment_softmax(rng.normal(size=6) * 5, ids, 4)
        sums = np.zeros(4)
        np.add.at(sums, ids, s)
        np.testing.assert_allclose(sums[[0, 1, 3]], 1.0, atol=1e-12)
        assert sums[2] == 0.0

    def test_segment_softmax_matches_per_segment_softmax(self, rng):
        ids = np.array([0, 0, 1, 1, 1, 2])
        x = rng.normal(size=6) * 3
        got = _segment_softmax(x, ids, 3)
        want = np.empty_like(x)
        for s in range(3):
            m = ids == s
            want[m] = scipy.special.softmax(x[m])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_segment_softmax_grad(self, rng):
        # sorted, interleaved and one-score segments, each against central differences
        for ids in ([0, 0, 1, 1, 1], [2, 0, 2, 1, 0, 2], [0, 1, 2]):
            ids = np.array(ids)
            x, w = rng.normal(size=len(ids)), rng.normal(size=len(ids))
            got = _segment_softmax_grad(w, _segment_softmax(x, ids, 3), ids, 3)
            want = fd_grad(lambda t: float(w @ _segment_softmax(t, ids, 3)), x)
            np.testing.assert_allclose(got, want, rtol=0, atol=2e-6)

    def test_segment_softmax_extreme_scores_stay_finite(self):
        ids = np.array([0, 0, 1])
        s = _segment_softmax(np.array([800.0, -800.0, 300.0]), ids, 2)
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s, [1.0, 0.0, 1.0], atol=1e-12)
        g = _segment_softmax_grad(np.array([1.0, -2.0, 5.0]), s, ids, 2)
        assert np.all(np.isfinite(g))

    def test_segment_max_detached(self, rng):
        # the shift the softmax subtracts: a plain per-segment maximum
        x = rng.normal(size=8)
        ids = np.array([0, 0, 1, 1, 1, 2, 2, 2])
        got = _segment_reduce(np.maximum, x, ids, 3, -np.inf)
        want = np.array([x[:2].max(), x[2:5].max(), x[5:].max()])
        np.testing.assert_array_equal(got, want)


class TestSortedScatterAdd:
    """The sorted segment sum and take's backward against np.add.at."""

    CASES = {
        "1d": ((9,), [3, 0, 3, 1, 3, 0, 4, 4, 1]),
        "2d": ((9, 3), [3, 0, 3, 1, 3, 0, 4, 4, 1]),
        "3d": ((5, 2, 3), [1, 1, 0, 4, 1]),
        "empty": ((0, 3), []),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_segment_sum_matches_add_at(self, rng, case):
        shape, ids = self.CASES[case]
        x = rng.normal(size=shape)
        ids = np.array(ids, dtype=np.intp)
        want = np.zeros((6,) + shape[1:])
        np.add.at(want, ids, x)
        got = segment_sum(x, ids, 6)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert got.shape == want.shape

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_take_backward_matches_add_at(self, rng, case):
        shape, ids = self.CASES[case]
        idx = np.array(ids, dtype=np.intp)
        src = nc.Tensor(rng.normal(size=(6,) + shape[1:]), requires_grad=True)
        g = rng.normal(size=shape)
        ro.sum_(ro.mul(nc.take(src, idx), g)).backward()
        want = np.zeros(src.shape)
        np.add.at(want, idx, g)
        np.testing.assert_allclose(src.grad, want, rtol=0, atol=1e-12)

    def test_take_negative_indices_scatter_to_their_rows(self, rng):
        src = nc.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        ro.sum_(nc.take(src, np.array([-1, 3, 0]))).backward()
        np.testing.assert_array_equal(src.grad[:, 0], [1.0, 0.0, 0.0, 2.0])

    def test_segment_sum_rejects_out_of_range_ids(self, rng):
        with pytest.raises(IndexError):
            segment_sum(rng.normal(size=(3, 2)), np.array([0, 1, 3]), 3)

    def test_segment_is_bitwise_independent_of_other_segments(self, rng):
        ids = np.array([1, 0, 2, 1, 0, 1, 2, 1, 0, 1])
        x = rng.normal(size=(10, 4)) * 10.0 ** rng.integers(-6, 6, size=(10, 1))
        base = segment_sum(x, ids, 3)
        other = x.copy()
        other[ids != 1] = rng.normal(size=((ids != 1).sum(), 4)) * 1e8
        again = segment_sum(other, ids, 3)
        assert np.array_equal(base[1], again[1])
        # also when the other segments gain and lose rows
        keep = np.flatnonzero((ids == 1) | (np.arange(10) % 3 == 0))
        fewer = segment_sum(x[keep], ids[keep], 3)
        assert np.array_equal(base[1], fewer[1])


class TestLinear:
    @pytest.mark.parametrize("shape", [(5, 3), (2, 4, 3)], ids=["2d", "3d"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
    def test_grads_and_forward(self, rng, shape, bias):
        x, w, b = rng.normal(size=shape), rng.normal(size=(2, 3)), rng.normal(size=(2,))
        args = [x, w, b] if bias else [x, w]
        want = x @ w.T + (b if bias else 0.0)
        np.testing.assert_allclose(ro.linear(*[nc.Tensor(a) for a in args]).data, want,
                                   rtol=0, atol=1e-12)
        assert_op_grads(ro.linear, args)

    def test_is_one_tape_node(self, rng):
        x = nc.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = nc.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = nc.Tensor(rng.normal(size=(2,)), requires_grad=True)
        out = ro.linear(x, w, b)
        assert out._parents == (x, w, b)

    @pytest.mark.parametrize("x_shape,w_shape", [((4, 3), (2, 4)), ((3,), (2, 3)), ((4, 3), (3,))])
    def test_width_mismatch_rejected(self, x_shape, w_shape):
        with pytest.raises(ShapeError):
            ro.linear(nc.Tensor(np.ones(x_shape)), nc.Tensor(np.ones(w_shape)))


# -- graph mechanics ----------------------------------------------------------------


class TestGraphMechanics:
    def test_grad_accumulates_across_reuse(self):
        x = nc.Tensor(np.array([2.0]), requires_grad=True)
        y = ro.add(ro.mul(x, x), ro.mul(x, x))  # 2x^2, used twice
        y.backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_diamond_graph(self):
        # z = (x*y) + (x+y); dz/dx = y+1, dz/dy = x+1
        x = nc.Tensor(np.array([3.0]), requires_grad=True)
        y = nc.Tensor(np.array([5.0]), requires_grad=True)
        z = ro.add(ro.mul(x, y), ro.add(x, y))
        z.backward()
        np.testing.assert_allclose(x.grad, [6.0])
        np.testing.assert_allclose(y.grad, [4.0])

    def test_deep_chain_no_recursion_limit(self):
        # iterative backward must survive graphs deeper than the recursion limit
        x = nc.Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = ro.add(y, nc.Tensor(np.array([0.0])))
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_no_grad_blocks_graph(self):
        x = nc.Tensor(np.ones(3), requires_grad=True)
        with nc.no_grad():
            y = ro.mul(x, x)
        assert y._parents == ()
        assert not y.requires_grad
        assert nc.is_grad_enabled()

    def test_backward_requires_scalar_without_seed(self):
        x = nc.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            ro.mul(x, x).backward()

    def test_check_finite_rejects_nan(self):
        with pytest.raises(FloatingPointError):
            nc.Tensor(np.array([1.0, np.nan]))
        with pytest.raises(VolgraphError, match="non-finite"):
            nc.Tensor(np.array([np.inf]))

    @pytest.mark.parametrize("requires_grad", [True, False], ids=["tape", "no-tape"])
    def test_non_finite_op_output_names_the_op(self, requires_grad):
        x = nc.Tensor(np.array([1.0, 1e200]), requires_grad=requires_grad)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as info:
            ro.mul(x, x)
        assert str(info.value) == "mul produced non-finite values"

    def test_every_input_becomes_float64(self):
        for data in (
            np.array([1.5, 2.5], dtype=np.float32),
            np.array([1, 2]),
            np.array([True, False]),
            [1, 2],
        ):
            assert nc.Tensor(data).data.dtype == np.float64
            assert as_tensor(data).data.dtype == np.float64
        t = nc.Tensor(np.array([0.1], dtype=np.float32), requires_grad=True)
        ro.mul(t, t).backward()
        assert t.grad.dtype == np.float64
        arr = np.array([1.0, 2.0])
        assert nc.Tensor(arr).data is arr  # float64 input is not copied


# -- the public surface ---------------------------------------------------------------


def _numcore_imports(path: Path) -> set:
    """Names a module imports from ``volgraph.numcore`` itself."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
            node.module == "volgraph.numcore" or (node.level and node.module == "numcore")
        ):
            names.update(alias.name for alias in node.names)
    return names


def _references(tree: ast.AST) -> Counter:
    """Names a syntax tree reads, imports or reads as an attribute."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function and class and
    each public method and property of those classes; dunders are private here."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _defaulted_parameters(tree: ast.Module):
    """(keys, qualified name, parameters, defaulted) of each function and method
    with a defaulted parameter. ``parameters`` are the ones a call can pass by
    position (a method's first one, self or cls, left out), then the keyword-only
    ones. A call resolves to the definition through one of ``keys``: its name, or
    (class, name) for a method; a class's ``__init__`` is named as the class."""
    owners = {sub: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for sub in node.body if isinstance(sub, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        a, owner = node.args, owners.get(node)
        positional = [p.arg for p in a.posonlyargs + a.args]
        defaulted = positional[len(positional) - len(a.defaults):] + [
            k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
        ]
        if not defaulted:
            continue
        keys = {node.name}
        if owner is not None:
            keys = {owner if node.name == "__init__" else node.name, (owner, node.name)}
            if not any(ast.unparse(d) == "staticmethod" for d in node.decorator_list):
                positional = positional[1:]
        qualname = node.name if owner is None else f"{owner}.{node.name}"
        yield keys, qualname, positional + [k.arg for k in a.kwonlyargs], defaulted


def _call_key(call: ast.Call, classes: set):
    """What ``call`` resolves by: (class, method) for ``Cls.method(...)`` on a
    class of the library, else the called name."""
    f = call.func
    if isinstance(f, ast.Attribute):
        if isinstance(f.value, ast.Name) and f.value.id in classes:
            return f.value.id, f.attr
        return f.attr
    return f.id if isinstance(f, ast.Name) else None


def _passed(call: ast.Call, parameters: list) -> set:
    """The ``parameters`` a call passes, by position or keyword; a ``*`` or ``**``
    argument passes every one it can reach."""
    passed = set()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            passed.update(parameters[i:])
            break
        passed.update(parameters[i : i + 1])
    for kw in call.keywords:
        passed.update(parameters if kw.arg is None else [kw.arg])
    return passed


class TestPublicSurface:
    """Every name the package offers is used by the package or the benchmark.

    The checks go by name, so they are a lower bound: a method whose name
    is also read somewhere else passes.
    """

    ROOT = Path(__file__).resolve().parents[1]
    SRC, VOLBENCH = ROOT / "src" / "volgraph", ROOT / "volbench"
    # Only acceptance criterion 8 runs ``fine_tune``. Whether it gets a CLI
    # entry point or goes together with that criterion is still open.
    UNCALLED = {("pipeline/training.py", "fine_tune")}
    # the console script calls ``main()`` without arguments; tests pass argv
    UNPASSED = {("cli.py", "main", "argv")}

    def callers(self) -> dict:
        """Syntax trees of the modules whose uses count: the library outside its
        re-exporting ``__init__``s, and the benchmark."""
        paths = [p for p in self.SRC.rglob("*.py") if p.name != "__init__.py"]
        paths += sorted(self.VOLBENCH.glob("*.py"))
        return {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}

    def test_every_export_has_a_caller_outside_numcore(self):
        library = [p for p in self.SRC.rglob("*.py") if p.parent.name != "numcore"]
        callers = library + sorted(self.VOLBENCH.glob("*.py"))
        used = set().union(*(_numcore_imports(p) for p in callers))
        assert sorted(set(nc.__all__) - used) == []

    def test_every_export_has_a_caller_outside_its_module(self):
        trees = self.callers()
        unused = []
        for init in sorted(self.SRC.rglob("__init__.py")):
            package = ast.parse(init.read_text())
            exported = [
                ast.literal_eval(node.value)
                for node in package.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
            ]
            source = {
                alias.name: init.parent / f"{node.module}.py"
                for node in package.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names
            }
            for name in [n for names in exported for n in names]:
                home = source[name]
                if (home.relative_to(self.SRC).as_posix(), name) in self.UNCALLED:
                    continue
                if not any(_references(t)[name] for p, t in trees.items() if p != home):
                    unused.append(f"{init.parent.name}.{name}")
        assert unused == []

    def test_every_public_definition_has_a_caller(self):
        trees = self.callers()
        total = sum((_references(t) for t in trees.values()), Counter())
        uncalled = []
        for path in sorted(self.SRC.rglob("*.py")):
            rel = path.relative_to(self.SRC).as_posix()
            tree = trees.get(path) or ast.parse(path.read_text())
            for qualname, node in _public_definitions(tree):
                if (rel, node.name) in self.UNCALLED:
                    continue
                if total[node.name] - _references(node)[node.name] == 0:
                    uncalled.append(f"{rel}:{qualname}")
        assert uncalled == []

    def test_every_default_is_passed_at_some_call(self):
        # a defaulted parameter that no call of the library or the benchmark
        # passes takes one value outside the tests: a setting with one value
        # there, or one that repeats a value owned elsewhere
        trees = {p: ast.parse(p.read_text()) for p in sorted(self.SRC.rglob("*.py"))}
        classes = {
            n.name for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.ClassDef)
        }
        calls = {}
        for tree in self.callers().values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    calls.setdefault(_call_key(node, classes), []).append(node)
        unpassed = []
        for path, tree in trees.items():
            rel = path.relative_to(self.SRC).as_posix()
            for keys, qualname, parameters, defaulted in _defaulted_parameters(tree):
                passed = set().union(
                    *(_passed(c, parameters) for k in keys for c in calls.get(k, ()))
                )
                unpassed += [f"{rel}:{qualname}({name})" for name in defaulted
                             if name not in passed and (rel, qualname, name) not in self.UNPASSED]
        assert unpassed == []

    def test_annotations_resolve(self):
        for name in nc.__all__:
            obj = getattr(nc, name)
            targets = [obj]
            if isinstance(obj, type):  # the class's fields, constructor and methods
                methods = [f for n, f in vars(obj).items() if callable(f) and n[:2] != "__"]
                targets += [obj.__init__, *methods]
            for target in targets:
                typing.get_type_hints(target)


class TestParameterContainers:
    """Every field of a ``*Params`` dataclass and of ``StructEmbedTables`` in
    ``src/`` is annotated ``Tensor``: a container holds parameters, and a
    setting that takes one value, or that a table's shape already gives, is
    not one of its fields."""

    # the encoder's layer list, and its head count, which no shape gives
    NOT_TENSORS = {("DialogueEncoderParams", "layers"), ("DialogueEncoderParams", "n_heads")}

    def test_every_container_field_is_a_tensor(self):
        fields = []
        for path in sorted(TestPublicSurface.SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef) and (
                    node.name.endswith("Params") or node.name == "StructEmbedTables"
                ):
                    fields += [(node.name, f.target.id, ast.unparse(f.annotation))
                               for f in node.body if isinstance(f, ast.AnnAssign)]
        assert {cls for cls, _, _ in fields} >= {
            "DialogueEncoderParams", "GATLayerParams", "MarketParams", "StructEmbedTables",
            "TransformerLayerParams",
        }
        assert [
            f"{cls}.{name}: {annotation}" for cls, name, annotation in fields
            if annotation != "Tensor" and (cls, name) not in self.NOT_TENSORS
        ] == []


# -- property tests -----------------------------------------------------------------


@st.composite
def broadcastable_pair(draw):
    base = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    drop = draw(st.integers(0, len(base)))
    other = [draw(st.sampled_from([d, 1])) for d in base[drop:]]
    return tuple(base), tuple(other)


@given(broadcastable_pair())
@settings(max_examples=40, deadline=None)
def test_broadcast_add_grad_shapes(shapes):
    """Gradients always come back in the operand's own shape, with the
    broadcast dimensions summed out (d(sum)/da is a count of uses)."""
    sa, sb = shapes
    a = nc.Tensor(np.zeros(sa), requires_grad=True)
    b = nc.Tensor(np.zeros(sb), requires_grad=True)
    ro.sum_(ro.add(a, b)).backward()
    assert a.grad.shape == sa
    assert b.grad.shape == sb
    out_shape = np.broadcast_shapes(sa, sb)
    n_out = int(np.prod(out_shape))
    assert a.grad.sum() == pytest.approx(n_out)
    assert b.grad.sum() == pytest.approx(n_out)


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.floats(-50, 50),
)
@settings(max_examples=40, deadline=None)
def test_softmax_invariant_under_constant_shift(rows, cols, shift):
    rng = np.random.default_rng(rows * 7 + cols)
    x = rng.normal(size=(rows, cols))
    a = attention_weights(x)
    b = attention_weights(x + shift)
    np.testing.assert_allclose(a, b, atol=1e-10)
    np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-12)
