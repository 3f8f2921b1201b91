"""The schema walker against jsonschema's Draft 7 validator, the reference it reproduces.

``harness._walk`` checks scenario and summary documents against the
packaged schemas with no library. Here ``jsonschema`` is the oracle: on a
fixed-seed corpus of catalog, workload, summary and mutated documents the
walker must refuse exactly the documents ``Draft7Validator`` refuses, report
jsonschema's pointer and message where a document has one violation, and
one of jsonschema's violations where it has several.
"""

import contextlib
import copy
import json
import random
from importlib import resources

import pytest
from jsonschema import Draft7Validator
from jsonschema.exceptions import best_match

import test_harness
from consensuslab import ScenarioFormatError, catalog, harness, load_catalog_scenario, run_scenario, validate_summary
from test_bench_workloads import workloads


def _raw(name: str) -> dict:
    return json.loads((resources.files("consensuslab") / "schemas" / name).read_text())


SCENARIO, SUMMARY = _raw("scenario.schema.json"), _raw("summary.schema.json")


def _pointer(error) -> str:
    return "/" + "/".join(map(str, error.absolute_path))


def _violations(errors):
    """Every violation jsonschema reports, a ``oneOf``'s context included, as ``(pointer, message)``."""
    for e in errors:
        yield _pointer(e), e.message
        yield from _violations(e.context)


def _walker(doc, schema: dict):
    """The ``(pointer, message)`` the walker reports for ``doc``, or None if it accepts it."""
    try:
        harness._validate(doc, schema)
    except ScenarioFormatError as e:
        return e.pointer, str(e).removeprefix("schema violation: ").removesuffix(f" (at {e.pointer})")
    return None


def _compare(docs, raw: dict, schema: dict) -> dict:
    """Assert the walker agrees with ``Draft7Validator`` on every document; count the kinds of document."""
    oracle = Draft7Validator(raw)
    kinds = {"valid": 0, "one": 0, "several": 0}
    for doc in docs:
        errors = list(oracle.iter_errors(doc))
        reported = _walker(doc, schema)
        assert (reported is None) == (not errors), (doc, reported, [e.message for e in errors])
        if len(errors) == 1:
            best = best_match(errors)
            assert reported == (_pointer(best), best.message), doc
        elif errors:
            assert reported in set(_violations(errors)), (doc, reported)
        kinds["valid" if not errors else "one" if len(errors) == 1 else "several"] += 1
    return kinds


def _mutants(docs: list, count: int, seed: int):
    """``count`` copies of ``docs`` with one to three fields replaced, deleted or joined by an unknown one."""
    rng = random.Random(seed)
    for _ in range(count):
        doc = copy.deepcopy(rng.choice(docs))
        for _ in range(rng.randint(1, 3)):
            path = rng.choice(list(test_harness.TestCompileBoundary._paths(doc)))
            node = doc
            with contextlib.suppress(LookupError, TypeError):  # an earlier mutation may have replaced a parent
                for key in path[:-1]:
                    node = node[key]
                roll = rng.random()
                if roll < 0.1 and isinstance(node, dict):
                    del node[path[-1]]
                elif roll < 0.2 and isinstance(node, dict):
                    node["unexpected"] = 0
                else:
                    node[path[-1]] = copy.deepcopy(rng.choice(test_harness.TestRuntimeFuzz.VALUES))
        yield doc


def _generated(scale: str) -> list:
    return [doc for workload in (workloads.WIDE_AGENTS, workloads.MANY_RUNS)
            for doc in workloads.generate(workload, 401, scale)]


# mutated: the catalog's and the tiny workloads' documents; the full-scale ones (wide_agents: n=100) as they are
SMALL = [load_catalog_scenario(case_id).raw for case_id in catalog()] + _generated("tiny")


@pytest.fixture(scope="module")
def summaries(tmp_path_factory) -> list:
    """summary.json of every catalog case at a horizon of 12 and 6 runs, error rows and all."""
    docs = []
    for case_id in catalog():
        out = tmp_path_factory.mktemp(case_id)
        run_scenario(load_catalog_scenario(case_id), out_dir=out, horizon=12, ensemble=6)
        docs.append(json.loads((out / "summary.json").read_text()))
    return docs


def test_scenario_documents_get_the_verdicts_and_messages_of_draft7():
    docs = SMALL + _generated("full")
    assert _compare(docs, SCENARIO, harness._SCENARIO_SCHEMA) == {"valid": len(docs), "one": 0, "several": 0}
    kinds = _compare(_mutants(SMALL, 5000, seed=7), SCENARIO, harness._SCENARIO_SCHEMA)
    assert min(kinds.values()) > 500, kinds


def test_summary_documents_get_the_verdicts_and_messages_of_draft7(summaries):
    assert any(not doc["ok"] for doc in summaries) and any(doc["ok"] for doc in summaries)
    kinds = _compare(summaries, SUMMARY, harness._SUMMARY_SCHEMA)
    assert kinds == {"valid": len(summaries), "one": 0, "several": 0}
    kinds = _compare(_mutants(summaries, 2000, seed=7), SUMMARY, harness._SUMMARY_SCHEMA)
    assert min(kinds.values()) > 200, kinds


def test_validate_summary_raises_a_library_error_at_the_pointer(summaries):
    doc = summaries[0]
    validate_summary(doc)
    with pytest.raises(ScenarioFormatError) as e:
        validate_summary(dict(doc, ok="yes"))
    assert e.value.pointer == "/ok" and str(e.value) == "schema violation: 'yes' is not of type 'boolean' (at /ok)"
    with pytest.raises(ScenarioFormatError) as e:
        validate_summary(dict(doc, extra=1))
    assert e.value.pointer == "/" and "Additional properties are not allowed ('extra' was unexpected)" in str(e.value)


@pytest.mark.parametrize("value, schema, message", [
    ("a", {"type": "number"}, "'a' is not of type 'number'"),
    (True, {"type": "number"}, "True is not of type 'number'"),
    (False, {"type": "integer"}, "False is not of type 'integer'"),
    (2.5, {"type": "integer"}, "2.5 is not of type 'integer'"),
    ("z", {"enum": ["x", "y"]}, "'z' is not one of ['x', 'y']"),
    (True, {"const": 1}, "1 was expected"),
    ({}, {"required": ["a"]}, "'a' is a required property"),
    ({"a": 1}, {"additionalProperties": False}, "Additional properties are not allowed ('a' was unexpected)"),
    ({"b": 1, "a": 2}, {"additionalProperties": False},
     "Additional properties are not allowed ('a', 'b' were unexpected)"),
    (-1, {"minimum": 0}, "-1 is less than the minimum of 0"),
    (6, {"maximum": 5}, "6 is greater than the maximum of 5"),
    (0, {"exclusiveMinimum": 0}, "0 is less than or equal to the minimum of 0"),
    ([], {"minItems": 1}, "[] should be non-empty"),
    ([1], {"minItems": 2}, "[1] is too short"),
    ("", {"minLength": 1}, "'' should be non-empty"),
    (3, {"oneOf": [{"type": "null"}, {"type": "object"}]}, "3 is not valid under any of the given schemas"),
])
def test_each_keyword_words_its_violation_as_draft7(value, schema, message):
    assert _walker(value, harness._checked(schema, schema)) == ("/", message)
    assert best_match(Draft7Validator(schema).iter_errors(value)).message == message


def test_a_whole_float_is_an_integer():
    schema = {"type": "integer", "minimum": 1}
    assert _walker(2.0, harness._checked(schema, schema)) is None and Draft7Validator(schema).is_valid(2.0)


def _keywords(schema: dict) -> set:
    """The keywords ``schema`` and every schema inside it use."""
    inner = [*schema.get("properties", {}).values(), *schema.get("definitions", {}).values(),
             *schema.get("oneOf", []), *(schema[k] for k in ("items", "additionalProperties")
                                         if isinstance(schema.get(k), dict))]
    return set(schema).union(*map(_keywords, inner))


def test_the_walker_implements_every_keyword_of_the_packaged_schemas():
    used = _keywords(SCENARIO) | _keywords(SUMMARY)
    assert used == harness._KEYWORDS | {"$ref"}  # and implements no keyword they do not use


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"type": ["null", "object"]},
    {"type": "any"},
    {"$ref": "other.json#/definitions/noise"},
    {"$ref": "#/properties/id"},
    {"$ref": "#/definitions/missing"},
    {"$ref": "#/definitions/noise", "title": "a sibling"},
    {"items": [{"type": "number"}]},
    {"type": "object", "additionalProperties": True},
    {"oneOf": [{"type": "integer"}, {"type": "number"}]},
    {"oneOf": [{"type": "null"}, {"type": "null"}]},
    {"oneOf": [{"type": "null"}]},
    {"oneOf": [{"type": "null"}, {"minimum": 0}]},
    {"properties": {"a": {"type": "number", "multipleOf": 2}}},
    {"items": {"oneOf": [{"type": "null"}, {"type": "string", "format": "date"}]}},
], ids=lambda schema: json.dumps(schema))
def test_a_schema_form_the_walker_lacks_is_refused_when_read(schema):
    root = dict(schema, definitions={"noise": {"type": "object"}}) if "$ref" in schema else schema
    with pytest.raises(ValueError, match="does not implement"):
        harness._checked(schema, root)
