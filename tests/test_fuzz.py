"""Fuzzed scenario files: every field of the scenario field table, at the
top level and in each path kind's geometry, set to values of its own type,
on both sides of its domain bound, NaN and infinities, and of wrong types
and shapes, plus unknown keys at both levels.  ``symreach
check-equivariance`` on each file must exit 0, 2, 3 or 4 and never raise.

That command loads the file, builds the automaton and the map, and grids
nothing.  ``run`` is left out: a tiny ``grid_width`` or ``dt`` makes a run
grid millions of cells or steps, and a test must not ask for that memory
or time.  Numbers stay within +-50 (or are NaN or infinite): a whole
number far larger, as a road count or a loop count, builds a path that
long."""

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from symreach.cli import main
from symreach.scenarios import _FIELDS, _GEOMETRY

from conftest import SCENARIO_DIR

SHIPPED = sorted(f for f in os.listdir(SCENARIO_DIR) if f.endswith(".scn"))

numbers = st.one_of(
    st.integers(-3, 50),
    st.floats(-50, 50),
    st.sampled_from([-1.0, -1e-9, 0.0, 1e-9, 0.5, 1.0, 2.5,
                     float("nan"), float("inf"), float("-inf")]))
scalars = st.one_of(numbers, st.booleans(), st.none(),
                    st.sampled_from(["", "x", "1", "inf", "2.5", "robot",
                                     "road", "custom", "tr", "sv"]))


def shaped(depth: int = 2):
    """Numbers, and lists of them nested up to ``depth`` deep: right and
    wrong shapes for pairs, triples, boxes, points and road rows."""
    if depth == 0:
        return numbers
    return st.one_of(numbers, st.lists(shaped(depth - 1), max_size=5))


def values_for(field):
    """Values for one table row: its default, the default with one entry
    changed, dropped or added, and values of any type and shape."""
    choices = [scalars, shaped(), st.dictionaries(st.sampled_from(
        ["x", "mode", "v", "L"]), scalars, max_size=2)]
    default = None if field.default is ... else field.default
    if isinstance(default, list) and default:
        choices.append(st.tuples(st.integers(0, len(default) - 1), numbers,
                                 st.sampled_from(["set", "drop", "add"]))
                       .map(lambda t: _edit(default, *t)))
    if default is not None:
        choices.append(st.just(default))
    return st.one_of(*choices)


def _edit(default: list, i: int, x, how: str) -> list:
    out = list(default)
    if how == "set":
        out[i] = x
    elif how == "drop":
        del out[i]
    else:
        out.append(x)
    return out


def _kind(name: str) -> str:
    return json.loads(open(os.path.join(SCENARIO_DIR, name)).read())[
        "path_kind"]


def edits_for(name: str):
    """One to three edits of scenario ``name``: a table field set, one of
    its path kind's geometry fields set, a field dropped, or an unknown
    key added at either level."""
    rows = _GEOMETRY[_kind(name)]
    edit = st.one_of(
        st.sampled_from(sorted(_FIELDS)).flatmap(lambda k: st.tuples(
            st.just("top"), st.just(k), values_for(_FIELDS[k]))),
        st.sampled_from(sorted(rows)).flatmap(lambda k: st.tuples(
            st.just("geometry"), st.just(k), values_for(rows[k]))),
        st.tuples(st.just("drop"), st.sampled_from(sorted(_FIELDS)),
                  st.none()),
        st.tuples(st.sampled_from(["top", "geometry"]),
                  st.sampled_from(["wat", "leg_X", "Roads"]), scalars))
    return st.lists(edit, min_size=1, max_size=3)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=st.sampled_from(SHIPPED).flatmap(
    lambda name: st.tuples(st.just(name), edits_for(name))))
def test_check_equivariance_exits_with_a_code(tmp_path_factory, case):
    name, edits = case
    raw = json.loads(open(os.path.join(SCENARIO_DIR, name)).read())
    for where, key, value in edits:
        if where == "drop":
            raw.pop(key, None)
        elif where == "geometry" and isinstance(raw.get("geometry"), dict):
            raw["geometry"][key] = value
        else:
            raw[key] = value
    p = tmp_path_factory.getbasetemp() / "fuzz.scn"
    p.write_text(json.dumps(raw))
    assert main(["check-equivariance", str(p), "--samples", "1"]) in (
        0, 2, 3, 4)
