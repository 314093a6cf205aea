import numpy as np
import pytest

from mmfuse import autodiff as ad
from mmfuse.autodiff import Tensor, grad_check
from mmfuse.encoders import (
    Column,
    ImageEncoder,
    MetadataEncoder,
    MetadataSchema,
    encode_rows,
    one_hot_encode,
)
from mmfuse.errors import ConfigError, DataError, DimensionError, SchemaError

SCHEMA = MetadataSchema(
    columns=(
        Column(name="color", kind="categorical", vocab=("a", "b", "c")),
        Column(name="age", kind="numeric", min=0.0, max=120.0),
    ),
    classes=("x", "y"),
)


class TestOneHot:
    def test_indicator(self):
        vec = one_hot_encode({"color": "b", "age": 60}, SCHEMA)
        np.testing.assert_array_equal(vec[:4], [0, 1, 0, 0])

    def test_missing_categorical_goes_to_unknown_slot(self):
        schema = MetadataSchema(
            columns=(Column(name="c", kind="categorical", vocab=("a", "b")),),
            classes=("x",),
        )
        np.testing.assert_array_equal(one_hot_encode({"c": None}, schema), [0, 0, 1])
        np.testing.assert_array_equal(one_hot_encode({"c": ""}, schema), [0, 0, 1])

    def test_numeric_rescale(self):
        vec = one_hot_encode({"color": "a", "age": 30}, SCHEMA)
        assert vec[4] == 0.25

    def test_numeric_clamps_out_of_range(self):
        assert one_hot_encode({"color": "a", "age": 500}, SCHEMA)[4] == 1.0
        assert one_hot_encode({"color": "a", "age": -5}, SCHEMA)[4] == 0.0

    def test_missing_numeric_is_half(self):
        assert one_hot_encode({"color": "a", "age": None}, SCHEMA)[4] == 0.5

    @pytest.mark.parametrize("val", ["abc", "nan", "inf", "-inf", float("nan")])
    def test_non_finite_numeric_raises_naming_column_and_value(self, val):
        with pytest.raises(DataError, match=rf"'age': value {val!r} is not a finite"):
            one_hot_encode({"color": "a", "age": val}, SCHEMA)

    def test_unknown_value_strict_policy(self):
        schema = MetadataSchema(
            columns=(
                Column(name="c", kind="categorical", vocab=("a",), policy="strict"),
            ),
            classes=("x",),
        )
        with pytest.raises(DataError):
            one_hot_encode({"c": "zzz"}, schema)

    def test_unknown_value_lenient_policy(self):
        schema = MetadataSchema(
            columns=(Column(name="c", kind="categorical", vocab=("a",)),),
            classes=("x",),
        )
        np.testing.assert_array_equal(one_hot_encode({"c": "zzz"}, schema), [0, 1])

    def test_missing_column_raises(self):
        with pytest.raises(SchemaError):
            one_hot_encode({"color": "a"}, SCHEMA)

    def test_width_matches_declared_for_random_schemas(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            cols = []
            for j in range(rng.integers(1, 6)):
                if rng.random() < 0.5:
                    vocab = tuple(f"t{i}" for i in range(rng.integers(1, 7)))
                    cols.append(Column(name=f"c{j}", kind="categorical", vocab=vocab))
                else:
                    cols.append(Column(name=f"c{j}", kind="numeric", min=0, max=1))
            schema = MetadataSchema(columns=tuple(cols), classes=("x",))
            row = {}
            for c in cols:
                if c.kind == "categorical":
                    row[c.name] = c.vocab[rng.integers(len(c.vocab))]
                else:
                    row[c.name] = float(rng.uniform())
            assert one_hot_encode(row, schema).shape == (schema.encoded_width,)

    def test_vocab_validation(self):
        with pytest.raises(ConfigError):
            Column(name="c", kind="categorical", vocab=())
        with pytest.raises(ConfigError):
            Column(name="c", kind="categorical", vocab=("a", "a"))

    def test_schema_json_round_trip(self):
        restored = MetadataSchema.from_json(SCHEMA.to_json())
        assert restored == SCHEMA

    def test_schema_built_directly_is_validated(self):
        with pytest.raises(ConfigError, match="class name 'x'"):
            MetadataSchema(columns=SCHEMA.columns, classes=("x", "y", "x"))
        with pytest.raises(ConfigError, match="'classes'"):
            MetadataSchema(columns=SCHEMA.columns)


class TestMetadataEncoder:
    def test_zero_width_refused(self):
        with pytest.raises(ConfigError, match="no metadata columns"):
            MetadataEncoder(in_width=0)

    def test_zero_weights_give_zero_output(self):
        enc = MetadataEncoder(in_width=4, out_dim=3, hidden=(5,), rng=np.random.default_rng(0))
        for _, t in enc.params():
            t.data[...] = 0.0
        out = enc(Tensor(np.random.default_rng(1).normal(size=(6, 4))), "train")
        np.testing.assert_array_equal(out.data, np.zeros((6, 3)))

    def test_identity_weights_pass_through_bn_and_relu(self):
        enc = MetadataEncoder(in_width=4, out_dim=4, hidden=(), rng=np.random.default_rng(0))
        bn = enc.block0.bn
        enc.block0.w.data[...] = np.eye(4)
        x = np.random.default_rng(2).normal(size=(8, 4))
        out = enc(Tensor(x), "train")
        expected = ad.relu(
            ad.batch_norm(Tensor(x), bn.gamma, bn.beta, bn.stats, "train")
        )
        np.testing.assert_allclose(out.data, expected.data, rtol=1e-12)

    def test_default_shape_and_finiteness(self):
        enc = MetadataEncoder(in_width=19, rng=np.random.default_rng(3))
        out = enc(Tensor(np.random.default_rng(4).uniform(size=(5, 19))), "train")
        assert out.data.shape == (5, 64)
        assert np.all(np.isfinite(out.data))
        assert enc.depth == 2

    def test_width_mismatch(self):
        enc = MetadataEncoder(in_width=4, rng=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            enc(Tensor(np.zeros((2, 5))), "train")

    def test_eval_mode_deterministic(self):
        enc = MetadataEncoder(in_width=4, out_dim=3, rng=np.random.default_rng(5))
        x = Tensor(np.random.default_rng(6).normal(size=(3, 4)))
        a = enc(x, "eval").data
        b = enc(x, "eval").data
        assert np.array_equal(a, b)

    def test_gradients_end_to_end(self):
        rng = np.random.default_rng(7)
        enc = MetadataEncoder(in_width=3, out_dim=2, hidden=(4,), rng=rng)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        rep = grad_check(lambda _t: ad.mul(enc(x, "train"), enc(x, "train")).sum(), x)
        assert rep.passed, rep.max_rel_error


class TestImageEncoder:
    def test_zero_image_zero_biases_gives_zero_features(self):
        enc = ImageEncoder(in_shape=(3, 8, 8), channels=(2, 3, 4), out_dim=5,
                           rng=np.random.default_rng(0))
        out = enc(Tensor(np.zeros((2, 3, 8, 8))), "train")
        np.testing.assert_array_equal(out.data, np.zeros((2, 5)))

    def test_constant_image_unit_1x1_conv_gap_is_constant(self):
        x = Tensor(np.full((2, 1, 4, 4), 0.7))
        w = Tensor(np.ones((3, 1, 1, 1)))
        pooled = ad.global_avg_pool(ad.conv2d(x, w, Tensor(np.zeros(3))))
        np.testing.assert_allclose(pooled.data, np.full((2, 3), 0.7))

    def test_shape_oracle(self):
        enc = ImageEncoder(in_shape=(3, 32, 32), out_dim=128,
                           rng=np.random.default_rng(1))
        out = enc(Tensor(np.random.default_rng(2).uniform(size=(2, 3, 32, 32))), "train")
        assert out.data.shape == (2, 128)
        assert np.all(np.isfinite(out.data))

    def test_spatial_mismatch(self):
        enc = ImageEncoder(in_shape=(3, 16, 16), rng=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            enc(Tensor(np.zeros((1, 3, 32, 32))), "eval")

    def test_size_not_divisible_by_8(self):
        with pytest.raises(ConfigError):
            ImageEncoder(in_shape=(3, 12, 12), rng=np.random.default_rng(0))

    def test_gradients_end_to_end(self):
        rng = np.random.default_rng(8)
        enc = ImageEncoder(in_shape=(2, 8, 8), channels=(2, 2, 3), out_dim=4, rng=rng)
        x = Tensor(rng.normal(size=(2, 2, 8, 8)), requires_grad=True)

        def f(_t):
            out = enc(x, "train")
            return ad.mul(out, out).sum()

        rep = grad_check(f, x)
        assert rep.passed, rep.max_rel_error


def test_encode_rows_stacks():
    rows = [{"color": "a", "age": 0}, {"color": "c", "age": 120}]
    mat = encode_rows(rows, SCHEMA)
    assert mat.shape == (2, SCHEMA.encoded_width)
    np.testing.assert_array_equal(mat[0], [1, 0, 0, 0, 0.0])
    np.testing.assert_array_equal(mat[1], [0, 0, 1, 0, 1.0])
