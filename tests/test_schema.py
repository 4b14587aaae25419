"""levyheat.schema, the CLI's JSON Schema interpreter, on the shipped
schema files, with jsonschema (a test dependency only) as the oracle."""

import copy
import json
from pathlib import Path

import pytest

from levyheat import ConfigInvalid
from levyheat import cli, schema

SCHEMAS = Path(cli.__file__).parent / "schemas"
EXPERIMENT = "experiment_config.schema.json"
SIMULATE = "simulate_config.schema.json"

GRID = {"dt": 0.01, "dx": 0.125, "L": 8.0, "t_end": 0.2}
# Between them the base documents take every kind's if/then branch and
# both arms of the custom measure's anyOf.
EXPERIMENT_DOCS = [
    {"kernel": {"kind": "brownian", "kappa": 1.0},
     "measure": {"kind": "delta", "mass": 1.0, "at": 0.0},
     "sigma": {"kind": "linear", "lam": 1.0},
     "grid": GRID, "seeds": [0, 1], "claims": ["mean_identity"],
     "output_dir": "out"},
    {"kernel": {"kind": "stable", "alpha": 1.5},
     "measure": {"kind": "positive_definite_example", "a": 0.5},
     "sigma": {"kind": "saturating_linear", "lam": 1.0, "cap": 2.0},
     "grid": GRID, "seeds": [3], "claims": [], "output_dir": "out"},
    {"kernel": {"kind": "tabulated", "xi": [0.0, 1.0], "psi": [0.0, 0.5]},
     "measure": {"kind": "custom", "support_radius": 1.0,
                 "atoms": [[0.0, 1.0], [0.5, 2.0]]},
     "sigma": {"kind": "custom", "table_x": [0.0, 1.0],
               "table_y": [0.0, 1.0], "lower_lip": 0.5},
     "grid": GRID, "seeds": [1, 2], "claims": ["exist_unique_k2"],
     "output_dir": "out"},
]
SIMULATE_DOCS = [
    {"kernel": {"kind": "brownian"},
     "u0": {"kind": "custom", "support_radius": 2.0,
            "density": {"grid": [-1.0, 1.0], "values": [0.5, 0.5]}},
     "sigma": {"kind": "linear", "lam": 0.0},
     "grid": {"dt": 0.01, "dx": 0.125, "L": 8.0}, "seeds": [0, 1],
     "t_end": 0.3,
     "outputs": {"dir": "sim", "snapshot_times": [0.1, 0.3],
                 "t_probes": [0.1], "x_probes": [0.0], "ks": [1.0, 2.0]}},
]
# Each path of a base document is set to each of these in turn (or
# deleted).  Among them: true (an integer to Python, not to JSON), 1.0 (an
# integer to JSON), the [1, 1.0] and [true, 2] seed lists, NaN and inf,
# every kind name, and the shapes of the custom measure's parts.
VALUES = [
    None, True, False, 0, 1, -1, 1.0, 2, 2.5, -0.5, 1e300, float("nan"),
    float("inf"), "", "x", "stable", "tabulated", "positive_definite_example",
    "custom", "saturating_linear", [], [1], [1, 1.0], [True, 2], [1.0, 2],
    [0.5, "a"], [[0.0, 1.0]], [[0.0, 1.0, 2.0]], {}, {"kind": "brownian"},
    {"grid": [0.0, 1.0], "values": [1.0, 1.0]},
]


def paths(node, prefix=()):
    yield prefix
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from paths(child, prefix + (key,))


def mutations(doc):
    """doc with each path set to each of VALUES, or deleted, and with an
    unknown key added to each object."""
    for path in paths(doc):
        if not path:
            yield from VALUES
            continue
        for value in VALUES + [KeyError]:
            new = copy.deepcopy(doc)
            parent = new
            for key in path[:-1]:
                parent = parent[key]
            if value is KeyError:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            yield new
        new = copy.deepcopy(doc)
        target = new
        for key in path:
            target = target[key]
        if isinstance(target, dict):
            target["made_up"] = 1
            yield new


@pytest.fixture(scope="module")
def oracle():
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")
    docs = {name: json.loads((SCHEMAS / name).read_text())
            for name in (EXPERIMENT, SIMULATE)}
    registry = referencing.Registry().with_resources(
        (doc["$id"], referencing.Resource.from_contents(doc))
        for doc in docs.values())
    return {name: jsonschema.Draft202012Validator(doc, registry=registry)
            for name, doc in docs.items()}


def accepts(doc, name):
    return schema.first_error(doc, name) is None


@pytest.mark.parametrize("name, bases", [(EXPERIMENT, EXPERIMENT_DOCS),
                                         (SIMULATE, SIMULATE_DOCS)])
def test_agrees_with_jsonschema(oracle, name, bases):
    count = 0
    for base in bases:
        assert accepts(base, name)
        for doc in mutations(base):
            expected = oracle[name].is_valid(doc)
            assert accepts(doc, name) == expected, (name, doc)
            count += 1
    assert count > 1000


@pytest.mark.parametrize("seeds, ok", [
    ([1, 1.0], False),   # 1 and 1.0 are the same JSON number
    ([True, 2], False),  # true is not an integer
    ([1.0, 2], True),    # 1.0 is
    ([1, 2], True),
])
def test_seed_list_edge_cases(oracle, seeds, ok):
    doc = dict(EXPERIMENT_DOCS[0], seeds=seeds)
    assert accepts(doc, EXPERIMENT) is ok
    assert oracle[EXPERIMENT].is_valid(doc) is ok


def test_nan_passes_bounds_then_fails_finiteness(oracle):
    doc = copy.deepcopy(EXPERIMENT_DOCS[0])
    doc["grid"]["dt"] = float("nan")
    assert accepts(doc, EXPERIMENT) and oracle[EXPERIMENT].is_valid(doc)
    with pytest.raises(ConfigInvalid, match=r"\$\.grid\.dt: nan is not a "
                                            r"finite number"):
        cli._validate_doc(doc, EXPERIMENT)


def keyword_uses(doc):
    """(keyword, argument) of a schema and of every subschema it holds."""
    for word, arg in doc.items():
        yield word, arg
        if word in ("properties", "$defs"):
            for sub in arg.values():
                yield from keyword_uses(sub)
        elif word in ("items", "if", "then"):
            yield from keyword_uses(arg)
        elif word in ("prefixItems", "allOf", "anyOf"):
            for sub in arg:
                yield from keyword_uses(sub)


@pytest.mark.parametrize("name", [EXPERIMENT, SIMULATE])
def test_every_schema_keyword_is_implemented(name):
    uses = list(keyword_uses(json.loads((SCHEMAS / name).read_text())))
    assert "$ref" in {word for word, _ in uses}
    for word, arg in uses:
        # raises NotImplementedError for a keyword the CLI does not know
        schema._schema_error(None, {word: arg}, "$", name)


def test_unknown_keyword_raises():
    with pytest.raises(NotImplementedError, match="multipleOf"):
        schema._schema_error(2, {"type": "number", "multipleOf": 3}, "$", "")
    with pytest.raises(NotImplementedError, match="additionalProperties"):
        schema._schema_error({}, {"additionalProperties": True}, "$", "")


def test_cross_file_reference_reports_the_document_path():
    doc = copy.deepcopy(SIMULATE_DOCS[0])
    doc["u0"]["density"]["values"] = [0.5]
    with pytest.raises(ConfigInvalid, match=r"^\$\.u0\.density\.values: "):
        cli._validate_doc(doc, SIMULATE)
