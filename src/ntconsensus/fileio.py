"""JSON / CSV readers and writers for graphs, schedules, and trajectories."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from .errors import FileFormatError
from .graph import SignedGraph
from .simulate import SwitchingSchedule, Trajectory

PathLike = Union[str, Path]


def _integer(value: object, name: str) -> int:
    """A JSON integer, or a float with an integral value; anything else is a
    format error rather than a truncated size, vertex id or graph id."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{name} must be an integer, got {value!r}")
    return value


def _number(value: object, name: str) -> float:
    """A JSON number; a string such as "0.1" or a boolean is a format error,
    not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{name} must be a number, got {value!r}")
    return float(value)


def _boolean(value: object, name: str) -> bool:
    """A JSON boolean; a string such as "false" is a format error, not true."""
    if not isinstance(value, bool):
        raise FileFormatError(f"{name} must be true or false, got {value!r}")
    return value


def load_graph(path: PathLike) -> SignedGraph:
    """Graph file format: {"d", "n", "directed", "edges": [{"from", "to",
    "weight"}]}; "from"/"to" are 1-based, weight is a row-major d x d array
    stored as A[to, from]."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read graph file {path}: {exc}") from exc
    try:
        n = _integer(data["n"], "n")
        d = _integer(data["d"], "d")
        directed = _boolean(data["directed"], "directed")
        edges: Dict[Tuple[int, int], np.ndarray] = {}
        for e in data["edges"]:
            key = (_integer(e["to"], "to"), _integer(e["from"], "from"))
            if key in edges:
                raise FileFormatError(f"edge {key[1]}->{key[0]} is listed more than once")
            edges[key] = np.array(
                [[_number(v, "weight entry") for v in row] for row in e["weight"]], dtype=float
            )
            if edges[key].shape != (d, d):
                raise FileFormatError(
                    f"edge {e['from']}->{e['to']} weight is not {d}x{d}"
                )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"malformed graph file {path}: {exc}") from exc
    return SignedGraph.from_edges(n, d, directed, edges)


def save_graph(g: SignedGraph, path: PathLike) -> None:
    """Write the graph file read by ``load_graph``: edges sorted by (to,
    from), each undirected pair once, as (min, max)."""
    order = np.lexsort((g.tails, g.heads))
    if not g.directed:
        order = order[g.heads[order] < g.tails[order]]
    edges = [
        {"from": j + 1, "to": i + 1, "weight": w.tolist()}
        for i, j, w in zip(g.heads[order].tolist(), g.tails[order].tolist(), g.entries[order])
    ]
    payload = {"d": g.d, "n": g.n, "directed": g.directed, "edges": edges}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_schedule(path: PathLike) -> SwitchingSchedule:
    """Schedule file format: {"alpha", "pattern", "dt": float or [floats],
    "repeat"}."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read schedule file {path}: {exc}") from exc
    try:
        alpha = _number(data["alpha"], "alpha")
        pattern = [_integer(x, "pattern entry") for x in data["pattern"]]
        repeat = _boolean(data.get("repeat", False), "repeat")
        dt = data.get("dt", alpha)
        if not isinstance(dt, list):
            return SwitchingSchedule.uniform(_number(dt, "dt"), pattern, alpha=alpha, repeat=repeat)
        lengths = tuple(_number(x, "dt entry") for x in dt)
        if len(lengths) != len(pattern):
            raise FileFormatError("dt list must match the pattern length")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"malformed schedule file {path}: {exc}") from exc
    return SwitchingSchedule(
        lengths=lengths, graph_ids=tuple(pattern), alpha=alpha, repeat=repeat
    )


# '%.17g' in vectorized chunks.  A value |x| in [1e-11, 1e17) is scaled by an
# exact power of ten to y = |x| 10^k in [1e16, 1e17] with one rounding in long
# double; D = rint(y) is its correctly rounded 17-digit significand whenever
# y is farther than y eps from a tie, and the text is laid out from D and the
# decimal exponent in fixed NUL-padded columns, one array row per column so
# that every operation runs along the chunk.  Every other value (zero,
# non-finite, out of range, a near-tie, or all of them where long double is a
# plain double) goes through '%.17g' itself.
_CHUNK_VALUES = 8192
_EPS = float(np.finfo(np.longdouble).eps)
_POW10 = np.cumprod(np.array([1] + [10] * 27, dtype=np.longdouble))  # 10^0..10^27, exact
# the ASCII digits of 0..9999, four bytes to a word
_QUADS = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(
    np.uint8
).view(np.uint32).ravel()
_X_MIN, _X_MAX = -11, 17
_FIELD = 28  # sign 1, prefix 5, digits and point 18, suffix 4; the longest '%.17g' is 24
_ROW = np.arange(18, dtype=np.uint8)[:, None]


def _columns(texts: list, width: int) -> np.ndarray:
    """ASCII texts as the rows of a NUL-padded uint8 matrix."""
    padded = "".join(t.ljust(width, "\0") for t in texts).encode("ascii")
    return np.frombuffer(padded, dtype=np.uint8).reshape(len(texts), width)


def _layouts() -> tuple:
    """Per decimal exponent X in [_X_MIN, _X_MAX], the range that 16 - k plus
    a carry spans, as columns: the prefix, the exponent suffix, the digit the
    point follows (17: none) and how many digits are kept even when zero (the
    integer part)."""
    xs = range(_X_MIN, _X_MAX + 1)
    fixed = [-4 <= x < 17 for x in xs]
    prefix = ["0." + "0" * (-x - 1) if f and x < 0 else "" for x, f in zip(xs, fixed)]
    suffix = ["" if f else "e%+03d" % x for x, f in zip(xs, fixed)]
    point = [x + 1 if f and x >= 0 else 17 if f else 1 for x, f in zip(xs, fixed)]
    whole = [x + 1 if f and x >= 0 else 0 for x, f in zip(xs, fixed)]
    return (_columns(prefix, 5).T.copy(), _columns(suffix, 4).T.copy(),
            np.array(point, dtype=np.uint8), np.array(whole, dtype=np.uint8))


_PREFIX, _SUFFIX, _POINT, _WHOLE = _layouts()


def _format_rows(body: np.ndarray) -> bytes:
    """The rows of a 2-D float array as ASCII CSV lines, each value
    byte-identical to '%.17g'."""
    cols = body.shape[1]
    x = body.ravel()
    a = np.abs(x)
    fast = (a >= 1e-11) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    # k = 16 - floor(log10 |x|), or one more where log10 rounds up to an integer:
    # then y >= 1e17, and only y = 1e17 (a carry) is kept
    k = np.minimum((17 - np.log10(a)).astype(np.intp), 27)
    y = _POW10[k] * a
    floor = y.astype(np.int64)
    frac = (y - floor).astype(np.float64)  # exact
    # |y - D| < 1/2 - y eps/2 bounds the scaling's one rounding; floor eps is more
    fast &= (floor >= 10**16) & (np.abs(frac - 0.5) > floor * _EPS)
    sig = floor + (frac > 0.5)
    fast &= sig <= 10**17
    carry = sig == 10**17
    sig[carry] = 10**16
    layout = 16 - _X_MIN - k + carry
    # digit groups by floor division alone, which NumPy vectorizes and % it does not
    pair = np.empty((2, x.size), dtype=np.int64)
    pair[0] = sig // 10**8
    pair[1] = sig - pair[0] * 10**8
    top = pair[0] // 10**8
    pair[0] -= top * 10**8
    high = pair // 10**4
    quads = _QUADS[np.stack([high, pair - high * 10**4], axis=1).reshape(4, -1)]
    digits = np.empty((18, x.size), dtype=np.uint8)
    digits[0] = top + 48
    digits[1:17] = quads.view(np.uint8).reshape(4, x.size, 4).transpose(0, 2, 1).reshape(16, -1)
    digits[17] = 0
    span = ((_ROW[:17] + 1) * (digits[:17] != 48)).max(axis=0)  # up to the last nonzero digit
    digits *= _ROW < np.maximum(span, _WHOLE[layout])
    point = _POINT[layout]
    out = np.empty((_FIELD + 1, x.size), dtype=np.uint8)
    out[0] = (x < 0) * np.uint8(45)
    out[1:6] = _PREFIX.take(layout, axis=1)
    # digits before the point in place, those after it one column on
    area = out[6:24]
    area[0] = 0
    area[1:] = digits[:17]
    digits -= area
    digits *= _ROW < point
    area += digits
    area[point, np.arange(x.size)] = (span > point) * np.uint8(46)
    out[24:28] = _SUFFIX.take(layout, axis=1)
    out[_FIELD] = 44
    out[_FIELD, cols - 1 :: cols] = 10
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[:_FIELD, slow] = _columns(["%.17g" % v for v in x[slow].tolist()], _FIELD).T
    return out.T.tobytes().translate(None, b"\0")


def write_trajectory_csv(traj: Trajectory, path: PathLike) -> None:
    """Header t,x1_1,...,xN_d,errnorm; every value as '%.17g' would print it
    (full double precision).  Rows are formatted in vectorized chunks of
    about 8192 values, with a per-value '%.17g' fallback for the values the
    vectorized path cannot prove, and each chunk is written as it is made."""
    cols = [f"x{i}_{k}" for i in range(1, traj.n + 1) for k in range(1, traj.d + 1)]
    header = ",".join(["t"] + cols + ["errnorm"])
    body = np.column_stack([traj.times, traj.states, traj.error_norm])
    step = max(1, _CHUNK_VALUES // body.shape[1])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, body.shape[0], step):
            fh.write(_format_rows(body[start : start + step]).decode("ascii"))


def read_trajectory_csv(path: PathLike) -> np.ndarray:
    """The trajectory CSV's samples as a 2-D array, one row per sample.  The
    file is read as a stream; one with no sample after its header is a
    format error."""
    try:
        with open(path) as fh:
            fh.readline()  # the header
            body = fh.tell()
            if not fh.readline().strip():
                raise FileFormatError(f"trajectory {path} has no samples")
            fh.seek(body)
            return np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise FileFormatError(f"cannot read trajectory {path}: {exc}") from exc
