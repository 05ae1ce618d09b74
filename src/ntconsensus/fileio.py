"""JSON / CSV readers and writers for graphs, schedules, and trajectories."""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
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
        edges = _graph_edges(data["edges"], d)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"malformed graph file {path}: {exc}") from exc
    return SignedGraph.from_edges(n, d, directed, edges)


def _graph_edges(listed: object, d: int) -> Dict[Tuple[int, int], np.ndarray]:
    """A graph file's edges as {(to, from): weight}, each weight a row of one
    (E, d, d) array.  One pass checks the type of every vertex id and weight
    entry (np.array would take "0.1" and true as numbers) and the length of
    every weight and row; only when it finds a fault do the per-edge checks
    run, to raise the first one in file order."""
    try:
        ids = [e[end] for e in listed for end in ("to", "from")]
        if float in set(map(type, ids)):  # 2.0 names vertex 2
            ids = [_integer(v, "vertex id") for v in ids]
        keys = list(zip(ids[::2], ids[1::2]))
        weights = [e["weight"] for e in listed]
        rows = [row for w in weights for row in w]
        entries = [v for row in rows for v in row]
        if keys and not (d > 0 and len(set(keys)) == len(keys) and set(map(type, ids)) <= {int}
                         and set(map(type, entries)) <= {int, float}
                         and set(map(len, weights)) | set(map(len, rows)) <= {d}):
            raise ValueError("an edge is repeated or malformed")
        stack = np.array(entries, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError, FileFormatError):
        seen = set()
        for e in listed:
            key = (_integer(e["to"], "to"), _integer(e["from"], "from"))
            if key in seen:
                raise FileFormatError(f"edge {key[1]}->{key[0]} is listed more than once")
            seen.add(key)
            weight = np.array(
                [[_number(v, "weight entry") for v in row] for row in e["weight"]], dtype=float
            )
            if weight.shape != (d, d):
                raise FileFormatError(f"edge {e['from']}->{e['to']} weight is not {d}x{d}")
        raise  # not reached: each fault the pass finds fails one of these checks
    return dict(zip(keys, stack.reshape(-1, d, d))) if keys else {}


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
        if not pattern:
            raise FileFormatError(f"schedule file {path}: pattern is empty")
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


# '%.17g' in vectorized chunks, in plain float64.  A value |x| in [1e-11, 1e17)
# with decimal exponent X is scaled by 10^k, k = 16 - X, and |x| 10^k in
# [1e16, 1e17) is held exactly as y + e: y = fl(|x| p) for the double p
# nearest 10^k, and e = |x| p - y by Dekker's TwoProduct.  Its halves are
# |x| = xh + xl, xh the top 26 bits and xl < 2^27 units of |x|'s last
# place, and Veltkamp's p = ph + pl, |pl| <= 2^26 units of p's; each
# partial product is then exact, and so is each partial sum in the order
# xh ph - y, + xl ph, + xh pl, + xl pl.  As y >= 2^53 is an integer, the
# correctly rounded 17-digit significand is D = y + rint(e), and an exact
# tie is |e - rint(e)| = 1/2, both exact.  10^k is a double up to k = 22.
# Above, 10^k = p + r exactly, since 5^27 < 2^63, and e gains fl(|x| r):
# with |x| 10^k < 2^57, TwoProduct's |e| <= 8 and |x r| <= 2^57 u, u = 2^-53,
# so the roundings of |x| r and of the sum leave e within 16u + 25u of the
# exact remainder, inside _GUARD = 64u, and such a value falls back when
# |e - rint(e)| lies within _GUARD of 1/2.  D and X are laid out in fixed
# NUL-padded columns, one array row per column so that every operation runs
# along the chunk.  Zeros, non-finite values, magnitudes out of range, exact
# ties and values inside the guard go through '%.17g' itself.
_CHUNK_VALUES = 8192
_X_MIN, _X_MAX = -11, 17
_HIGH = np.uint64(~(2**27 - 1) & (2**64 - 1))  # sign, exponent, top 26 significant bits
_INEXACT = 16 - 22 - _X_MIN  # 10^k is a double for k <= 22: X >= -6
_GUARD = 2.0**-47


def _scales() -> tuple:
    """Per decimal exponent X: the least double not below 10^X, for X in
    [_X_MIN, _X_MAX]; and for X up to 16, with k = 16 - X, 10^k as the
    double p nearest it with Veltkamp's halves of p, and the rest 10^k - p,
    which is exact, and 0 for k <= 22."""
    exact = [Fraction(10) ** x for x in range(_X_MIN, _X_MAX + 1)]
    least = [float(v) if float(v) >= v else math.nextafter(float(v), math.inf) for v in exact]
    powers = [10 ** (16 - x) for x in range(_X_MIN, 17)]
    nearest = np.array(powers, dtype=float)
    c = nearest * 134217729.0  # 2^27 + 1
    high = c - (c - nearest)
    rest = np.array([q - int(p) for q, p in zip(powers, nearest.tolist())], dtype=float)
    return np.array(least), np.stack([nearest, high, nearest - high]), rest


_DECADES, _SCALES, _REST = _scales()
# the ASCII digits of 0..9999, four bytes to a word
_QUADS = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(
    np.uint8
).view(np.uint32).ravel()
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
    fast = (a >= _DECADES[0]) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    # i = X - _X_MIN.  np.log10 rounds some values just under 10^X up to X,
    # and the least double not below 10^X tells those apart; one that it
    # rounds down past X gets a k one too large and D > 10^17, and falls back
    i = np.log10(a)
    i -= _X_MIN
    i = i.astype(np.intp)  # truncated, so in [0, _X_MAX - _X_MIN]
    i -= a < _DECADES.take(i)
    p, p_hi, p_lo = _SCALES.take(i, axis=1)
    y = a * p
    a_hi = (a.view(np.uint64) & _HIGH).view(np.float64)
    a_lo = a - a_hi
    e = a_hi * p_hi
    e -= y
    e += np.multiply(a_lo, p_hi, out=p_hi)
    e += np.multiply(a_hi, p_lo, out=a_hi)
    e += np.multiply(a_lo, p_lo, out=p_lo)
    deep = np.flatnonzero(i < _INEXACT) if i.min() < _INEXACT else None
    if deep is not None:
        e[deep] += a[deep] * _REST.take(i[deep])
    near = np.rint(e)
    sig = y.astype(np.int64)
    sig += near.astype(np.int64)
    e -= near
    tie = np.abs(e, out=e)
    fast &= (tie != 0.5) & (sig <= 10**17)
    if deep is not None:
        fast[deep] &= tie[deep] < 0.5 - _GUARD
    carry = sig == 10**17
    sig[carry] = 10**16
    layout = i + carry
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
    digits *= _ROW < np.maximum(span, _WHOLE.take(layout))
    point = _POINT.take(layout)
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
    # the point by a flat index, which NumPy takes in half the time of (point, arange)
    out.reshape(-1)[(6 + point.astype(np.intp)) * x.size + np.arange(x.size)] = (
        (span > point) * np.uint8(46)
    )
    out[24:28] = _SUFFIX.take(layout, axis=1)
    out[_FIELD] = 44
    out[_FIELD, cols - 1 :: cols] = 10
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[:_FIELD, slow] = _columns(["%.17g" % v for v in x[slow].tolist()], _FIELD).T
    return out.T.tobytes().translate(None, b"\0")


@functools.lru_cache(maxsize=8)
def _header(n: int, d: int) -> bytes:
    """The CSV header line t,x1_1,...,xN_d,errnorm, built once per (n, d)."""
    cols = [f"x{i}_{k}" for i in range(1, n + 1) for k in range(1, d + 1)]
    return (",".join(["t"] + cols + ["errnorm"]) + "\n").encode("ascii")


def write_trajectory_csv(traj: Trajectory, path: PathLike) -> None:
    """Header t,x1_1,...,xN_d,errnorm; every value as '%.17g' would print it
    (full double precision).  Rows are formatted in vectorized chunks of
    about 8192 values, with a per-value '%.17g' fallback for the few values
    the vectorized path leaves to it, and each chunk's ASCII bytes are
    written as they are made, in binary mode."""
    body = np.column_stack([traj.times, traj.states, traj.error_norm])
    step = max(1, _CHUNK_VALUES // body.shape[1])
    with open(path, "wb") as fh:
        fh.write(_header(traj.n, traj.d))
        for start in range(0, body.shape[0], step):
            fh.write(_format_rows(body[start : start + step]))


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
