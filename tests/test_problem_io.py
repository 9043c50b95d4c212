from __future__ import annotations

import copy
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from hyperfair import linalg, problem_io
from hyperfair.linalg import fmt, rat
from hyperfair.measures import Interval, common_refinement
from hyperfair.partition import Partition, PartitionError
from hyperfair.problem_io import (
    Problem,
    ProblemFormatError,
    load_partition,
    load_problem,
    parse_partition,
    parse_problem,
    parse_rational,
    serialize_partition,
    serialize_problem,
    write_json,
)

from conftest import random_profile, random_proper_goal, random_target

F = Fraction

FULL_PROBLEM = {
    "players": 3,
    "densities": [
        {"breakpoints": ["0", "1/10", "1"], "values": ["10", "0"]},
        {"breakpoints": ["0", "1/10", "1"], "values": ["0", "10/9"]},
        {"breakpoints": ["0", "1"], "values": ["1"]},
    ],
    "p": ["1/3", "1/3", "1/3"],
    "K": [
        ["1", "0", "-1"],
        ["-1/3", "1/9", "2/9"],
        ["-1/5", "1/10", "1/10"],
    ],
    "delta": "1/6",
}


# -- rationals ---------------------------------------------------------------

def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(3, "x") == F(3)
    assert parse_rational("-7/2", "x") == F(-7, 2)


def test_parse_rational_rejects_floats_naming_the_field():
    with pytest.raises(ProblemFormatError, match=r"p\[1\].*floating point"):
        parse_rational(0.5, "p[1]")


def test_parse_rational_rejects_bools_and_junk():
    with pytest.raises(ProblemFormatError, match="grid.delta"):
        parse_rational(True, "grid.delta")
    with pytest.raises(ProblemFormatError, match="1.5"):
        parse_rational("1.5", "x")
    with pytest.raises(ProblemFormatError):
        parse_rational(None, "x")


# -- problems ---------------------------------------------------------------

def test_parse_problem_full_round_trip():
    problem = parse_problem(FULL_PROBLEM)
    assert problem.n == 3
    assert problem.p.shares == (F(1, 3),) * 3
    assert problem.k.mat[0, 2] == -1
    assert problem.delta == F(1, 6)
    assert serialize_problem(problem) == FULL_PROBLEM
    assert parse_problem(serialize_problem(problem)) == problem


def test_parse_problem_with_pattern_and_max_margin():
    obj = {
        "players": 2,
        "densities": [
            {"breakpoints": ["0", "1"], "values": ["1"]},
            {"breakpoints": ["0", "1"], "values": ["1"]},
        ],
        "R": [["=", "="], ["=", "="]],
        "delta": "max",
    }
    problem = parse_problem(obj)
    assert problem.r.n == 2
    assert problem.delta == "max"
    assert problem.p is None and problem.k is None
    assert serialize_problem(problem) == obj


def test_parse_problem_rejects_unknown_fields():
    obj = dict(FULL_PROBLEM, target="uniform")
    with pytest.raises(ProblemFormatError, match="unknown fields \\['target'\\]"):
        parse_problem(obj)


def test_parse_problem_requires_players_and_densities():
    with pytest.raises(ProblemFormatError, match="required"):
        parse_problem({"players": 2})
    with pytest.raises(ProblemFormatError, match="top level"):
        parse_problem(["not", "an", "object"])
    with pytest.raises(ProblemFormatError, match="positive integer"):
        parse_problem({"players": 0, "densities": []})
    with pytest.raises(ProblemFormatError, match="positive integer"):
        parse_problem({"players": True, "densities": []})


def test_parse_problem_rejects_density_count_mismatch():
    obj = dict(FULL_PROBLEM, players=2)
    with pytest.raises(ProblemFormatError, match="list of 2 densities"):
        parse_problem(obj)


def test_parse_problem_names_the_broken_density():
    obj = json.loads(json.dumps(FULL_PROBLEM))
    obj["densities"][1]["values"] = ["0", "1"]  # mass 9/10, not 1
    with pytest.raises(ProblemFormatError, match=r"densities\[1\].*integrate to 1") as exc:
        parse_problem(obj)
    assert str(exc.value) == "problem.densities[1]: density must integrate to 1, got 9/10"


def test_parse_problem_rejects_floats_in_densities():
    obj = json.loads(json.dumps(FULL_PROBLEM))
    obj["densities"][0]["breakpoints"][1] = 0.1
    with pytest.raises(ProblemFormatError, match=r"densities\[0\]\.breakpoints\[1\]"):
        parse_problem(obj)


def test_parse_problem_validates_the_target_point():
    obj = json.loads(json.dumps(FULL_PROBLEM))
    obj["p"] = ["1/2", "1/2"]
    with pytest.raises(ProblemFormatError, match="expected 3 shares"):
        parse_problem(obj)
    obj["p"] = ["1/2", "1/2", "1/2"]
    with pytest.raises(ProblemFormatError, match=r"\.p: shares must sum to 1") as exc:
        parse_problem(obj)
    assert str(exc.value) == "problem.p: shares must sum to 1, got 3/2"


def test_parse_problem_validates_the_goal_matrix():
    obj = json.loads(json.dumps(FULL_PROBLEM))
    obj["K"] = [["1", "0"], ["0", "1"]]
    with pytest.raises(ProblemFormatError, match="3x3"):
        parse_problem(obj)
    obj["K"] = [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    with pytest.raises(ProblemFormatError, match="sum to 0") as exc:
        parse_problem(obj)
    assert str(exc.value) == "problem.K: goal matrix rows must sum to 0; rows [0] do not"


def test_parse_problem_validates_the_relation_matrix():
    obj = json.loads(json.dumps(FULL_PROBLEM))
    del obj["K"]
    obj["R"] = [[">", "=", "<"], ["<", ">", ">"]]
    with pytest.raises(ProblemFormatError, match="3x3 grid"):
        parse_problem(obj)
    obj["R"] = [[">", "=", "<"], ["<", ">", ">"], ["<", ">", ">="]]
    with pytest.raises(ProblemFormatError, match="expected one of") as exc:
        parse_problem(obj)
    assert str(exc.value) == "problem.R: expected one of '<', '=', '>', got '>='"


@pytest.mark.parametrize("field, value, message", [
    ("p", "1/3", r"^problem\.p: expected a list$"),
    ("K", "0", r"^problem\.K: expected a list of rows$"),
    ("densities", [[], *FULL_PROBLEM["densities"][1:]],
     r"^problem\.densities\[0\]: expected an object with 'breakpoints' and 'values'$"),
])
def test_parse_problem_names_a_field_of_the_wrong_shape(field, value, message):
    obj = json.loads(json.dumps(FULL_PROBLEM))
    obj[field] = value
    with pytest.raises(ProblemFormatError, match=message):
        parse_problem(obj)


def test_parse_partition_refuses_an_empty_interval_list():
    message = r"^partition\.intervals: expected one interval list per player$"
    with pytest.raises(ProblemFormatError, match=message):
        parse_partition({"intervals": []})


def test_parse_problem_validates_delta():
    obj = json.loads(json.dumps(FULL_PROBLEM))
    obj["delta"] = "-1/6"
    with pytest.raises(ProblemFormatError, match="nonnegative"):
        parse_problem(obj)
    obj["delta"] = 0.25
    with pytest.raises(ProblemFormatError, match=r"\.delta.*floating point"):
        parse_problem(obj)


@pytest.mark.parametrize("zero", ["0", 0, "0/5"])
def test_parse_problem_rejects_a_zero_margin(zero):
    obj = json.loads(json.dumps(FULL_PROBLEM))
    obj["delta"] = zero
    with pytest.raises(ProblemFormatError, match=r"problem\.delta: margin must be positive"):
        parse_problem(obj)


def test_load_problem_round_trips_through_a_file(tmp_path):
    path = tmp_path / "problem.json"
    write_json(path, FULL_PROBLEM)
    assert path.read_text().endswith("}\n")
    problem = load_problem(path)
    assert serialize_problem(problem) == FULL_PROBLEM


def test_load_problem_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ProblemFormatError, match="not valid JSON"):
        load_problem(path)


# -- partitions ---------------------------------------------------------------

PARTITION_OBJ = {
    "intervals": [
        [["0", "1/20"], ["1/10", "7/20"]],
        [["1/20", "1/12"], ["7/20", "2/3"]],
        [["1/12", "1/10"], ["2/3", "1"]],
    ]
}


def test_parse_partition_round_trip():
    part = parse_partition(PARTITION_OBJ)
    assert part.n == 3
    assert part.pieces[0][0] == Interval.make("0", "1/20")
    assert serialize_partition(part) == PARTITION_OBJ


def test_parse_partition_schema_errors():
    with pytest.raises(ProblemFormatError, match="'intervals'"):
        parse_partition({"pieces": []})
    with pytest.raises(ProblemFormatError,
                       match=r"^partition\.intervals\[0\]: expected a list of \[lo, hi\] pairs$"):
        parse_partition({"intervals": ["0", [], []]})
    with pytest.raises(ProblemFormatError, match=r"intervals\[0\]\[1\]"):
        parse_partition({"intervals": [[["0", "1/2"], ["1/2"]]]})
    with pytest.raises(ProblemFormatError, match=r"intervals\[0\]\[0\]\[1\]"):
        parse_partition({"intervals": [[["0", 0.5]], [["1/2", "1"]]]})


def test_parse_partition_rejects_backwards_intervals():
    with pytest.raises(ProblemFormatError, match=r"intervals\[0\]\[0\]") as exc:
        parse_partition({"intervals": [[["1/2", "1/4"]], [["1/2", "1"]]]})
    assert str(exc.value) == ("partition.intervals[0][0]: "
                              "interval [1/2, 1/4] must satisfy 0 <= lo <= hi <= 1")


def test_parse_partition_rejects_gaps_and_overlaps():
    with pytest.raises(PartitionError, match=r"gap \[1/2, 3/5\]"):
        parse_partition({"intervals": [[["0", "1/2"]], [["3/5", "1"]]]})
    with pytest.raises(PartitionError, match="overlaps"):
        parse_partition({"intervals": [[["0", "3/5"]], [["1/2", "1"]]]})


@pytest.mark.parametrize("bad, message", [
    (["3/4", 1.0], 'partition.intervals[1][1][1]: floating point 1.0 is not accepted; '
                   'write an exact string like "1/3"'),
    ([True, "1"], "partition.intervals[1][1][0]: expected an exact rational, got bool True"),
    (["3/4.0", "1"], "partition.intervals[1][1][0]: expected an integer or 'num/den' string, "
                     "got '3/4.0'"),
    ("01", "partition.intervals[1][1]: expected a [lo, hi] pair"),
    ({"3/4": 0, "1": 0}, "partition.intervals[1][1]: expected a [lo, hi] pair"),
    (["3/4", "1", "1"], "partition.intervals[1][1]: expected a [lo, hi] pair"),
    (["3/4", "5/4"], "partition.intervals[1][1]: interval [3/4, 5/4] must satisfy "
                     "0 <= lo <= hi <= 1"),
])
def test_parse_partition_names_a_bad_element_after_good_ones(bad, message):
    # "01" and a two-key object unpack into two valid strings, so they
    # must be refused as pairs before any element is read
    obj = {"intervals": [[["0", "1/4"], ["1/2", "3/4"]], [["1/4", "1/2"], bad]]}
    with pytest.raises(ProblemFormatError) as exc:
        parse_partition(obj)
    assert str(exc.value) == message


@pytest.mark.parametrize("bad, message", [
    (0.5, 'floating point 0.5 is not accepted; write an exact string like "1/3"'),
    (False, "expected an exact rational, got bool False"),
    ("1/2/3", "expected an integer or 'num/den' string, got '1/2/3'"),
    (None, "expected an exact rational, got NoneType None"),
])
def test_parse_problem_names_a_bad_rational_after_good_ones(bad, message):
    obj = {"players": 2, "densities": [{"breakpoints": ["0", "1"], "values": ["1"]},
                                       {"breakpoints": ["0", bad, "1"], "values": ["1", "1"]}]}
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(obj)
    assert str(exc.value) == f"problem.densities[1].breakpoints[1]: {message}"


# Each loader reads a string repeated within one file once; a malformed
# element after many repeats of good strings keeps its field-named message.

def _density_on_even_cells(values):
    return {"breakpoints": ["0"] + [f"{i}/{len(values)}" for i in range(1, len(values))] + ["1"],
            "values": values}


@pytest.mark.parametrize("bad, message", [
    (True, "expected an exact rational, got bool True"),
    (1.0, 'floating point 1.0 is not accepted; write an exact string like "1/3"'),
    ("1.0", "expected an integer or 'num/den' string, got '1.0'"),
    ([], "expected an exact rational, got list []"),
])
def test_parse_problem_names_a_bad_value_after_many_repeats(bad, message):
    values = ["1", 1] * 12 + [bad, "1"]
    obj = {"players": 2, "densities": [_density_on_even_cells(["1"] * 26), _density_on_even_cells(values)]}
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(obj)
    assert str(exc.value) == f"problem.densities[1].values[24]: {message}"


@pytest.mark.parametrize("bad, message", [
    (True, "expected an exact rational, got bool True"),
    (1.0, 'floating point 1.0 is not accepted; write an exact string like "1/3"'),
])
def test_parse_problem_names_a_bad_goal_entry_after_the_same_strings(bad, message):
    obj = {"players": 2, "densities": [_density_on_even_cells(["1"] * 4)] * 2,
           "p": ["1/2", "1/2"], "K": [["1", "-1"], ["-1", bad]]}
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(obj)
    assert str(exc.value) == f"problem.K[1][1]: {message}"


def test_parse_problem_reads_one_string_and_its_int_alike():
    problem = parse_problem({"players": 1, "densities": [_density_on_even_cells(["1", 1, "1", 1])]})
    assert problem.densities[0].values == (1, 1, 1, 1)
    assert all(type(v) is F for v in problem.densities[0].values)


def _late_partition(bad):
    cuts = [f"{i}/40" for i in range(1, 40)]
    ends = ["0"] + cuts + ["1"]
    pairs = [[lo, hi] for lo, hi in zip(ends, ends[1:])]
    return {"intervals": [pairs[:20], pairs[20:-1] + [bad]]}


@pytest.mark.parametrize("bad, message", [
    (["39/40", True], "[1][19][1]: expected an exact rational, got bool True"),
    ([1.0, "1"], '[1][19][0]: floating point 1.0 is not accepted; write an exact string '
                 'like "1/3"'),
    (["39/40", "1", "1"], "[1][19]: expected a [lo, hi] pair"),
    (["39/40"], "[1][19]: expected a [lo, hi] pair"),
    (["1", "39/40"], "[1][19]: interval [1, 39/40] must satisfy 0 <= lo <= hi <= 1"),
])
def test_parse_partition_names_a_late_bad_pair_after_many_repeats(bad, message):
    with pytest.raises(ProblemFormatError) as exc:
        parse_partition(_late_partition(bad))
    assert str(exc.value) == f"partition.intervals{message}"


def test_parse_partition_reads_late_good_pairs():
    part = parse_partition(_late_partition(["39/40", 1]))
    assert part.pieces[1][-1] == Interval(F(39, 40), F(1))
    assert type(part.pieces[1][-1].hi) is F


def test_load_partition_from_file(tmp_path):
    path = tmp_path / "partition.json"
    write_json(path, PARTITION_OBJ)
    part = load_partition(path)
    assert serialize_partition(part) == PARTITION_OBJ


def test_problem_dataclass_defaults():
    problem = Problem(densities=())
    assert problem.p is None and problem.k is None
    assert problem.r is None and problem.delta is None


# -- report files ------------------------------------------------------------

_text = st.text(st.characters(codec="utf-8"), max_size=12) | st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x1f\x7f", "1/3", "\u00e9\u4e2d\U0001f600", "\ud800"])
_leaves = st.none() | st.booleans() | st.integers(-10**30, 10**30) | _text
_trees = st.recursive(_leaves, lambda inner: (
    st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4)), max_leaves=30)


@given(st.dictionaries(_text, _trees, max_size=5))
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("report") / "report.json"
    write_json(path, obj)
    assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode("utf-8")


# -- reports echo a file's canonical strings ------------------------------------

def _respell(text, rng):
    """A non-canonical spelling of the canonical number ``text``."""
    x = F(text)
    num, den = x.numerator, x.denominator
    choices = [f"{2 * num}/{2 * den}", f" {text}", f"{text} ", f"{num} / {den}"]
    if num >= 0:
        choices += [f"+{text}", f"00{text}"]
    if num == 0:
        choices.append("-0")
    if den == 1:
        choices += [f"{text}/1", num]
    return rng.choice(choices)


def _respelled(obj, rng):
    """``obj`` with every number string re-spelled: lists of lists of number strings."""
    if isinstance(obj, list):
        return [_respelled(x, rng) for x in obj]
    return _respell(obj, rng)


def _random_problem(rng):
    densities = list(random_profile(rng).densities)
    if rng.random() < 0.5:  # one density on breakpoints of its own
        densities[0] = random_profile(rng, n=2).densities[0]
    n = len(densities)
    profile = common_refinement(densities)
    k = random_proper_goal(rng, profile) if rng.random() < 0.8 else None
    p = random_target(rng, n) if rng.random() < 0.8 else None
    delta = rng.choice([None, "max", F(rng.randint(1, 9), rng.randint(1, 9))])
    return Problem(tuple(densities), p, k, None, delta)


def _random_partition(rng):
    cuts = sorted({F(rng.randint(1, 47), 48) for _ in range(rng.randint(0, 8))})
    points = [F(0), *cuts, F(1)]
    if rng.random() < 0.5:  # an interval of length zero
        at = rng.randrange(len(points))
        points.insert(at, points[at])
    pieces = [[] for _ in range(rng.randint(1, 3))]
    for lo, hi in zip(points, points[1:]):
        rng.choice(pieces).append(Interval(lo, hi))
    return Partition(tuple(map(tuple, pieces)))


def _renumbered(obj, rng):
    """The problem file ``obj`` with every number of its number lists re-spelled."""
    out = dict(obj, densities=[{key: _respelled(xs, rng) for key, xs in d.items()}
                               for d in obj["densities"]])
    for key in ("p", "K"):
        if key in obj:
            out[key] = _respelled(obj[key], rng)
    return out


@given(st.randoms(use_true_random=False))
def test_problem_reports_echo_canonical_files_and_format_the_rest(rng):
    built = _random_problem(rng)
    expected = serialize_problem(built)
    for obj, echoed in ((expected, True), (_renumbered(expected, rng), False)):
        parsed = parse_problem(obj)
        assert (parsed._text is not None) == echoed
        assert parsed == built
        rebuilt = Problem(parsed.densities, parsed.p, parsed.k, parsed.r, parsed.delta)
        assert serialize_problem(parsed) == serialize_problem(rebuilt) == expected
        assert parse_problem(serialize_problem(parsed)) == parsed
        first = serialize_problem(parsed)
        first["densities"][0]["breakpoints"][0] = "x"
        first["densities"][-1]["values"].append("y")
        for row in first.get("K", []):
            row.clear()
        first.get("p", []).reverse()
        assert serialize_problem(parsed) == expected
    obj = json.loads(json.dumps(expected))
    parsed = parse_problem(obj)
    obj["densities"][0]["values"][0] = "z"  # the parsed problem keeps its own strings
    assert serialize_problem(parsed) == expected


@given(st.randoms(use_true_random=False))
def test_partition_reports_echo_canonical_files_and_format_the_rest(rng):
    built = _random_partition(rng)
    expected = serialize_partition(built)
    respelled = {"intervals": _respelled(expected["intervals"], rng)}
    for obj, echoed in ((expected, True), (respelled, False)):
        parsed = parse_partition(obj)
        assert (parsed._text is not None) == echoed
        assert parsed == built
        assert serialize_partition(parsed) == serialize_partition(Partition(parsed.pieces)) == expected
        assert parse_partition(serialize_partition(parsed)) == parsed
        first = serialize_partition(parsed)
        first["intervals"][0].append(["x", "y"])
        for pieces in first["intervals"]:
            for pair in pieces:
                pair[0] = "z"
        assert serialize_partition(parsed) == expected
    obj = json.loads(json.dumps(expected))
    parsed = parse_partition(obj)
    obj["intervals"][0].clear()
    assert serialize_partition(parsed) == expected


# -- the memo's recognizer ---------------------------------------------------------

@st.composite
def number_spellings(draw):
    """Number strings as a file may hold them, canonical or not."""
    digits = st.text(st.sampled_from("01234567890123456789_\u0663"), max_size=6)
    space = st.sampled_from(["", "", "", " ", "\t"])
    text = draw(st.sampled_from(["", "", "", "-", "+"])) + draw(digits)
    if draw(st.booleans()):
        text += draw(st.sampled_from(["/", "/", "/", " / ", "/-"])) + draw(digits)
    return draw(space) + text + draw(space)


@given(number_spellings())
@example("0")
@example("-0")
@example("007")
@example("0/5")
@example("4/1")
@example("2/4")
@example("-3/4")
@example(" 1/3 ")
@example("1_000")
@example("\u0663")
@example("1/2/3")
@example("1" * 4300)
@example("1" * 5000)
@example("1/" + "3" * 5000)
def test_memo_reads_by_their_integers_exactly_the_strings_fmt_writes(text):
    seen = []

    def counting(value):
        seen.append(value)
        return pattern.fullmatch(value)

    pattern = linalg._RAT_RE
    regex = mock.patch.object(linalg, "_RAT_RE", mock.Mock(fullmatch=counting))
    memo = problem_io._Memo()
    try:
        expected = rat(text)
    except ValueError as exc:
        with regex, pytest.raises(ValueError) as raised:
            memo[text]
        assert str(raised.value) == str(exc) and seen == [text]
        return
    with regex:
        value = memo[text]
        assert memo[text] is value  # read once
    recognized = not seen
    assert recognized == (fmt(expected) == text) == memo.canonical
    assert value == expected and type(value) is Fraction


def _number_paths(obj, path=()):
    """The paths to every number string of a problem or partition file."""
    if isinstance(obj, dict):
        return [q for key, value in obj.items() if key not in ("players", "R", "delta")
                for q in _number_paths(value, path + (key,))]
    if isinstance(obj, list):
        return [q for i, value in enumerate(obj) for q in _number_paths(value, path + (i,))]
    return [path]


def _respelled_at(obj, path):
    out = copy.deepcopy(obj)
    *head, last = path
    holder = out
    for key in head:
        holder = holder[key]
    x = F(holder[last])
    holder[last] = f"{2 * x.numerator}/{2 * x.denominator}"
    return out


def test_one_noncanonical_string_clears_the_echo_for_its_whole_file():
    expected = serialize_problem(parse_problem(FULL_PROBLEM))
    assert parse_problem(FULL_PROBLEM)._text is not None
    paths = _number_paths(FULL_PROBLEM)
    assert len(paths) == 25
    for path in paths:
        parsed = parse_problem(_respelled_at(FULL_PROBLEM, path))
        assert parsed._text is None
        assert serialize_problem(parsed) == expected
    expected = serialize_partition(parse_partition(PARTITION_OBJ))
    assert parse_partition(PARTITION_OBJ)._text is not None
    for path in _number_paths(PARTITION_OBJ):
        parsed = parse_partition(_respelled_at(PARTITION_OBJ, path))
        assert parsed._text is None
        assert serialize_partition(parsed) == expected


# -- the emitter's list shapes ---------------------------------------------------------

@pytest.mark.parametrize("obj", [
    {"": [[], None]},
    [["a"], []],
    [[], ["a"]],
    [("a",), ["b"]],
    [["a"], [1]],
    [["a"], {"k": "v"}],
    [["a"], "b"],
    [[["a"]]],
    ["a", 1],
    ["a", ["b"]],
    [None, "a"],
    [["\"q\"", "back\\slash"], ["\n\t\x00\x1f\x7f", "\u00e9\u4e2d\U0001f600", "\ud800"]],
    ["1/3", "\u2028", "</script>"],
    {"gram": [["1/2", "1/2"], ["1/2", "1/2"]], "kernel_basis": [], "pairs": [[["0", "1"]], []]},
    [True, 1, False, 0, None],
    ["a", True],
    [True, "a"],
    [[], "a"],
    {"a": 1, "b": True, "c": None},
    {1: "a", None: "b"},
], ids=repr)
def test_report_emitter_writes_each_list_shape_as_json_dumps(tmp_path, obj):
    assert problem_io._json(obj, "") == json.dumps(obj, indent=2)
    path = tmp_path / "report.json"
    write_json(path, {"report": obj})
    assert path.read_bytes() == (json.dumps({"report": obj}, indent=2) + "\n").encode("utf-8")
