"""Property tests of config and schema parsing: any JSON value at any known
key either parses or raises ``ConfigError``, never another exception; any
JSON text is a metadata schema or raises ``SchemaError``.
Configs built directly are validated as well."""

import copy
import dataclasses
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mmfuse.data import SyntheticSpec  # noqa: E402
from mmfuse.encoders import MetadataSchema  # noqa: E402
from mmfuse.errors import ConfigError, SchemaError  # noqa: E402
from mmfuse.experiment import DatasetConfig, ExperimentConfig, ModelConfig  # noqa: E402
from mmfuse.training import TrainConfig  # noqa: E402

SPEC = {
    "n_classes": 2,
    "per_class": 18,
    "image_shape": [3, 8, 8],
    "alpha_img": 1.0,
    "alpha_meta": 1.0,
    "noise": 0.05,
    "seed": 5,
}
EXPERIMENT = {
    "dataset": {"synthetic": SPEC},
    "model": {
        "structure": "jif",
        "fusion": "mmfa",
        "report": "all",
        "image_features": 8,
        "metadata_features": 4,
        "heads": 3,
        "channels": [2, 3, 4],
        "metadata_hidden": [6],
    },
    "train": {"epochs": 2, "patience": 2, "batch_size": 8, "augment": False},
    "folds": 3,
    "seeds": [0],
}


def keys(cls, prefix=""):
    return [prefix + f.name for f in dataclasses.fields(cls)]


EXPERIMENT_KEYS = (
    keys(ExperimentConfig)
    + keys(ModelConfig, "model.")
    + keys(TrainConfig, "train.")
    + keys(DatasetConfig, "dataset.")
    + keys(SyntheticSpec, "dataset.synthetic.")
)

# what json.loads can return, NaN and the infinities included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def replaced(raw, dotted, value):
    raw = copy.deepcopy(raw)
    *sections, key = dotted.split(".")
    node = raw
    for section in sections:
        node = node[section]
    node[key] = value
    return raw


@PROPERTY
@given(key=st.sampled_from(EXPERIMENT_KEYS), value=json_values)
def test_experiment_config_parses_or_raises_config_error(key, value):
    try:
        ExperimentConfig.from_dict(replaced(EXPERIMENT, key, value))
    except ConfigError:
        pass


@PROPERTY
@given(key=st.sampled_from(keys(SyntheticSpec)), value=json_values)
def test_synthetic_spec_parses_or_raises_config_error(key, value):
    try:
        SyntheticSpec.from_dict(replaced(SPEC, key, value))
    except ConfigError:
        pass


# schema.json columns with the keys MetadataSchema.to_json writes, any values;
# half of them carry a string name, so that the later checks are reached
column_values = json_values | st.sampled_from(["categorical", "numeric", "strict"])
schema_columns = st.dictionaries(
    st.sampled_from(["name", "kind", "vocab", "policy", "min", "max"]),
    column_values,
    max_size=6,
) | st.fixed_dictionaries(
    {"name": st.text(max_size=3)},
    optional={k: column_values for k in ("kind", "vocab", "policy", "min", "max")},
)
schema_texts = (
    json_values
    | st.fixed_dictionaries(
        {}, optional={"columns": st.lists(schema_columns, max_size=3), "classes": json_values}
    )
).map(json.dumps)


@PROPERTY
@given(text=schema_texts)
def test_schema_parses_or_raises_schema_error(text):
    try:
        MetadataSchema.from_json(text)
    except SchemaError:
        pass


def test_base_configs_are_valid():
    ExperimentConfig.from_dict(EXPERIMENT)
    SyntheticSpec.from_dict(SPEC)


MODEL = ModelConfig.from_dict(EXPERIMENT["model"])


@pytest.mark.parametrize("build", [
    lambda: dataclasses.replace(MODEL, fusion="concat"),
    lambda: ModelConfig(heads=5),
    lambda: SyntheticSpec(alpha_img=2.0),
    lambda: dataclasses.replace(ExperimentConfig.from_dict(EXPERIMENT), folds=2),
    lambda: ExperimentConfig(dataset={"dir": 5}),
    lambda: ExperimentConfig.from_dict({**EXPERIMENT, "seeds": [1, 1]}),
], ids=["replaced-fusion", "heads", "alpha_img", "folds", "dataset-dir", "duplicate-seeds"])
def test_direct_construction_validates(build):
    with pytest.raises(ConfigError):
        build()
