"""Problem, partition, and report files.

Everything on disk is JSON with rationals as exact ``"num/den"``
strings (plain integers are also accepted on input).  Floats are
rejected with an error naming the offending field, never silently
rounded; a field's name is spelled out only on that error path.  Each
distinct number string of a file is read once per parse call, by
:mod:`hyperfair.linalg`'s one reader, which also tells whether the
string is canonical (as :func:`fmt` writes it); this module reads no
number text itself.  A file whose numbers are all canonical strings
keeps them, and its reports echo them; otherwise they format each
number, to the same text.  Reports are written as
``json.dumps(obj, indent=2)`` would write them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Any, Callable, Sequence

from .hyperfree import GoalMatrix, TargetPoint
from .linalg import RatMatrix, _read, fmt, rat
from .measures import Interval, StepDensity
from .partition import MAXIMIZE, Partition
from .relations import RelationMatrix


class ProblemFormatError(ValueError):
    """A problem or partition file does not match the schema."""


def _checked(where: str, make: Callable[..., Any], *args: Any) -> Any:
    """``make(*args)``, with the ``ValueError`` it may raise reported against ``where``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from None


def parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, float):
        raise ProblemFormatError(
            f"{where}: floating point {value!r} is not accepted; write an exact "
            f"string like \"1/3\""
        )
    try:
        return rat(value)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{where}: {exc}") from None


class _Memo(dict):
    """``memo[x]`` is ``rat(x)``, read once per distinct string.

    One memo serves one parse call.  ``canonical`` stays true while
    every key read is a string that :func:`fmt` writes back unchanged.
    """

    canonical = True

    def __missing__(self, key: Any) -> Fraction:
        if type(key) is str:
            value, canonical = _read(key)
            self[key] = value
        else:  # not stored: True, 1.0 and 1 hash alike, and rat reads or refuses each
            value, canonical = rat(key), False
        if not canonical:
            self.canonical = False
        return value


def _rational_list(value: Any, where: str, memo: _Memo) -> list[Fraction]:
    if not isinstance(value, list):
        raise ProblemFormatError(f"{where}: expected a list")
    try:
        return [memo[x] for x in value]
    except (TypeError, ValueError):  # again element by element, to name the element
        return [parse_rational(x, f"{where}[{i}]") for i, x in enumerate(value)]


@dataclass(frozen=True)
class Problem:
    """Parsed problem file: densities plus optional plan ingredients."""

    densities: tuple[StepDensity, ...]
    p: TargetPoint | None = None
    k: GoalMatrix | None = None
    r: RelationMatrix | None = None
    delta: Fraction | str | None = None
    # A canonical file's strings, as (densities, p, K), for serialize_problem to echo
    _text: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.densities)


def parse_problem(obj: Any, source: str = "problem") -> Problem:
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{source}: top level must be an object")
    known = {"players", "densities", "p", "K", "R", "delta"}
    unknown = set(obj) - known
    if unknown:
        raise ProblemFormatError(f"{source}: unknown fields {sorted(unknown)}")
    if "players" not in obj or "densities" not in obj:
        raise ProblemFormatError(f"{source}: 'players' and 'densities' are required")
    players = obj["players"]
    if not isinstance(players, int) or isinstance(players, bool) or players < 1:
        raise ProblemFormatError(f"{source}.players: expected a positive integer")
    raw_densities = obj["densities"]
    if not isinstance(raw_densities, list) or len(raw_densities) != players:
        raise ProblemFormatError(f"{source}.densities: expected a list of {players} densities")

    memo = _Memo()
    densities = []
    for i, d in enumerate(raw_densities):
        where = f"{source}.densities[{i}]"
        if not isinstance(d, dict) or set(d) != {"breakpoints", "values"}:
            raise ProblemFormatError(f"{where}: expected an object with 'breakpoints' and 'values'")
        densities.append(_checked(where, StepDensity,
                                  tuple(_rational_list(d["breakpoints"], f"{where}.breakpoints", memo)),
                                  tuple(_rational_list(d["values"], f"{where}.values", memo))))

    p = None
    if "p" in obj:
        shares = _rational_list(obj["p"], f"{source}.p", memo)
        if len(shares) != players:
            raise ProblemFormatError(f"{source}.p: expected {players} shares")
        p = _checked(f"{source}.p", TargetPoint, tuple(shares))

    k = None
    if "K" in obj:
        if not isinstance(obj["K"], list):
            raise ProblemFormatError(f"{source}.K: expected a list of rows")
        grid = [_rational_list(row, f"{source}.K[{i}]", memo) for i, row in enumerate(obj["K"])]
        if len(grid) != players or any(len(row) != players for row in grid):
            raise ProblemFormatError(f"{source}.K: expected a {players}x{players} matrix")
        entries = tuple(x for row in grid for x in row)  # read once, by the memo
        k = _checked(f"{source}.K", GoalMatrix, RatMatrix(players, players, entries))

    r = None
    if "R" in obj:
        raw = obj["R"]
        if (not isinstance(raw, list) or len(raw) != players
                or any(not isinstance(row, list) or len(row) != players for row in raw)):
            raise ProblemFormatError(f"{source}.R: expected a {players}x{players} grid of symbols")
        r = _checked(f"{source}.R", RelationMatrix.from_symbols, raw)

    delta: Fraction | str | None = None
    if "delta" in obj:
        if obj["delta"] == MAXIMIZE:
            delta = MAXIMIZE
        else:
            delta = parse_rational(obj["delta"], f"{source}.delta")
            if delta <= 0:
                raise ProblemFormatError(
                    f"{source}.delta: margin must be positive, not merely nonnegative")

    text = None
    if memo.canonical:
        text = ([(tuple(d["breakpoints"]), tuple(d["values"])) for d in raw_densities],
                None if p is None else tuple(obj["p"]),
                None if k is None else tuple(map(tuple, obj["K"])))
    return Problem(tuple(densities), p, k, r, delta, text)


def serialize_problem(problem: Problem) -> dict:
    densities, p, k = problem._text or (
        [(d.breakpoints, d.values) for d in problem.densities],
        problem.p and problem.p.shares, problem.k and problem.k.mat.to_rows())
    strings = vector_to_strings if problem._text is None else list
    out: dict[str, Any] = {
        "players": problem.n,
        "densities": [{"breakpoints": strings(b), "values": strings(v)} for b, v in densities],
    }
    if p is not None:
        out["p"] = strings(p)
    if k is not None:
        out["K"] = [strings(row) for row in k]
    if problem.r is not None:
        out["R"] = problem.r.to_symbols()
    if problem.delta is not None:
        out["delta"] = problem.delta if isinstance(problem.delta, str) else fmt(problem.delta)
    return out


def _read_json(path: str | Path) -> Any:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise ProblemFormatError(f"{path}: JSON nested too deeply") from None


def load_problem(path: str | Path) -> Problem:
    return parse_problem(_read_json(path), source=str(path))


def parse_partition(obj: Any, source: str = "partition") -> Partition:
    if not isinstance(obj, dict) or "intervals" not in obj:
        raise ProblemFormatError(f"{source}: expected an object with an 'intervals' field")
    raw = obj["intervals"]
    if not isinstance(raw, list) or not raw:
        raise ProblemFormatError(f"{source}.intervals: expected one interval list per player")
    memo = _Memo()
    pieces = []
    for j, lst in enumerate(raw):
        if not isinstance(lst, list):
            raise ProblemFormatError(f"{source}.intervals[{j}]: expected a list of [lo, hi] pairs")
        ivs = []
        for t, pair in enumerate(lst):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ProblemFormatError(f"{source}.intervals[{j}][{t}]: expected a [lo, hi] pair")
            try:
                ivs.append(Interval(memo[pair[0]], memo[pair[1]]))
            except (TypeError, ValueError):  # again with field names, to name the element
                where = f"{source}.intervals[{j}][{t}]"
                lo = parse_rational(pair[0], f"{where}[0]")
                ivs.append(_checked(where, Interval, lo, parse_rational(pair[1], f"{where}[1]")))
        pieces.append(tuple(ivs))
    text = tuple(tuple(map(tuple, lst)) for lst in raw) if memo.canonical else None
    return Partition(tuple(pieces), text)


def load_partition(path: str | Path) -> Partition:
    return parse_partition(_read_json(path), source=str(path))


def serialize_partition(part: Partition) -> dict:
    if part._text is None:
        return {"intervals": [[[fmt(iv.lo), fmt(iv.hi)] for iv in pieces] for pieces in part.pieces]}
    return {"intervals": [[list(pair) for pair in pieces] for pieces in part._text]}


def matrix_to_strings(m: RatMatrix) -> list[list[str]]:
    return [[fmt(x) for x in m.row(i)] for i in range(m.rows)]


def vector_to_strings(v: Sequence[Fraction]) -> list[str]:
    return [fmt(x) for x in v]


def _json(obj: Any, indent: str) -> str:
    """``json.dumps(obj, indent=2)`` at nesting ``indent``, strings escaped in C.

    Every non-empty list is first joined as strings, in one pass of the
    escaper; if an element is not a string (the escaper raises
    ``TypeError``), each element is written on its own.  ``None``,
    ``True`` and ``False`` are told by identity, since ``1 == True``;
    only numbers and empty containers go to ``json.dumps``.
    """
    inner = indent + "  "
    if isinstance(obj, (list, tuple)) and obj:
        try:
            return "[\n" + inner + (",\n" + inner).join(map(_escape, obj)) + f"\n{indent}]"
        except TypeError:  # an element that is not a string
            return "[\n" + inner + (",\n" + inner).join([_json(v, inner) for v in obj]) + f"\n{indent}]"
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, dict) and obj:
        return "{\n" + ",\n".join([
            f"{inner}{_escape(k if isinstance(k, str) else json.dumps(k))}: {_json(v, inner)}"
            for k, v in obj.items()]) + f"\n{indent}}}"
    return json.dumps(obj)  # numbers, {}, []


def write_json(path: str | Path, obj: dict) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline, byte for byte."""
    Path(path).write_text(_json(obj, "") + "\n", encoding="utf-8")
