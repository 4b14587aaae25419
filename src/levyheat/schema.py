"""Config documents checked against the JSON Schema files shipped in
levyheat/schemas, without jsonschema.

The schema files are the normative description of the config formats.
This module interprets the keywords they use, as draft 2020-12 defines
them, and raises NotImplementedError on any other keyword, so an edit to
the files is never silently ignored.  The CLI imports it where it
validates a config, so `import levyheat` does not load it.
"""

from __future__ import annotations

import functools
import json
import operator
from importlib import resources

__all__ = ["first_error"]


@functools.cache
def _schema_doc(name: str) -> dict:
    text = resources.files("levyheat").joinpath("schemas", name).read_text()
    return json.loads(text)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_type(v, name: str) -> bool:
    if name in ("number", "integer"):  # 1.0 is an integer, true is neither
        return _is_number(v) and (name == "number" or isinstance(v, int)
                                  or v.is_integer())
    return isinstance(v, {"object": dict, "array": list, "string": str}[name])


def _json_key(v):
    """A hashable stand-in for a JSON value, equal exactly where the values
    are equal as JSON: 1 equals 1.0, but true equals neither."""
    if isinstance(v, bool):
        return (bool, v)
    if isinstance(v, list):
        return (list, tuple(map(_json_key, v)))
    if isinstance(v, dict):
        return (dict, frozenset((k, _json_key(x)) for k, x in v.items()))
    return v


# Annotations, and keywords another one reads: "$defs" through "$ref",
# "then" through "if".
_SKIPPED = ("$schema", "$id", "title", "description", "$defs", "then")
# Bounds compare as jsonschema does, so NaN passes them all.
_BOUNDS = {"minimum": (operator.lt, "less than the minimum of"),
           "exclusiveMinimum": (operator.le, "not greater than"),
           "maximum": (operator.gt, "greater than the maximum of")}
_SIZES = {"minItems": (list, operator.lt, "fewer than {} items"),
          "maxItems": (list, operator.gt, "more than {} items"),
          "minLength": (str, operator.lt, "fewer than {} characters")}


def _first(errors):
    return next((e for e in errors if e), None)


def first_error(doc, name: str) -> str | None:
    """The first way doc breaks the schema file name, as "<path>: <reason>"
    with a path such as $.grid.dt or $.seeds[1], or None if it conforms."""
    return _schema_error(doc, _schema_doc(name), "$", name)


def _schema_error(v, schema: dict, path: str, base: str):
    """The first way the value v at path breaks schema, or None.  base
    names the schema file that "#/..." points into.  As the standard has
    it, a keyword about one kind of value (objects, arrays, strings,
    numbers) passes every other kind."""
    obj, arr = isinstance(v, dict), isinstance(v, list)
    for word, arg in schema.items():
        reason = err = None
        if word == "$ref":  # "#/$defs/x", or "file.json#/$defs/x"
            name, _, pointer = arg.partition("#")
            target = _schema_doc(name or base)
            for part in pointer.split("/")[1:]:
                target = target[part]
            err = _schema_error(v, target, path, name or base)
        elif word == "type":
            reason = not _is_type(v, arg) and f"{v!r} is not of type {arg!r}"
        elif word == "enum":
            reason = _json_key(v) not in map(_json_key, arg) \
                and f"{v!r} is not one of {arg!r}"
        elif word == "const":
            reason = _json_key(v) != _json_key(arg) and f"{arg!r} was expected"
        elif word in _BOUNDS:
            fails, text = _BOUNDS[word]
            reason = _is_number(v) and fails(v, arg) \
                and f"{v!r} is {text} {arg!r}"
        elif word in _SIZES:
            kind, fails, text = _SIZES[word]
            reason = isinstance(v, kind) and fails(len(v), arg) \
                and f"{v!r} has {text.format(arg)}"
        elif word == "uniqueItems":
            reason = arg and arr and len(set(map(_json_key, v))) < len(v) \
                and f"{v!r} has non-unique elements"
        elif word == "required":
            reason = obj and _first(f"{k!r} is a required property"
                                    for k in arg if k not in v)
        elif word == "additionalProperties":
            if arg is not False:
                raise NotImplementedError("additionalProperties must be false")
            known = schema.get("properties", {})
            reason = obj and _first(f"additional property {k!r} is not "
                                    "allowed" for k in v if k not in known)
        elif word == "properties":
            err = obj and _first(
                _schema_error(v[k], sub, f"{path}.{k}", base)
                for k, sub in arg.items() if k in v)
        elif word == "prefixItems":
            err = arr and _first(
                _schema_error(x, sub, f"{path}[{i}]", base)
                for i, (x, sub) in enumerate(zip(v, arg)))
        elif word == "items":
            skip = len(schema.get("prefixItems", ()))
            err = arr and _first(
                _schema_error(x, arg, f"{path}[{i}]", base)
                for i, x in enumerate(v) if i >= skip)
        elif word == "allOf":
            err = _first(_schema_error(v, sub, path, base) for sub in arg)
        elif word == "anyOf":
            reason = all(_schema_error(v, sub, path, base) for sub in arg) \
                and f"{v!r} matches none of the anyOf alternatives"
        elif word == "if":
            err = not _schema_error(v, arg, path, base) \
                and _schema_error(v, schema.get("then", {}), path, base)
        elif word not in _SKIPPED:
            raise NotImplementedError(f"schema keyword {word!r}")
        if err or reason:
            return err or f"{path}: {reason}"
    return None
