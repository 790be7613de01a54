"""The compiled one-pass loop: build ``_onepass.c`` once per machine, load it, and say when it runs.

The library is built lazily, the first time a k = 1 one-pass batch runs, with
``cc -O2 -march=native -ffp-contract=off`` into ``$XDG_CACHE_HOME/onlinelp/``
(``~/.cache/onlinelp/`` when the variable is unset).  Its file name is a hash
of the source, the compiler, the flags and the host, so a home directory
shared between machines never loads a library built for another CPU, and each
build writes a temporary file that ``os.replace`` moves into place, so that
concurrent builds are safe.  It is loaded with ``ctypes``, which numpy has
already imported.  :func:`engine` selects it for a batch of k = 1 instances
of m constraints only if it loaded and its in-order ``fma`` sums reproduce
``np.vecdot``'s bits on a fixed probe at that m, checked once per process and
m; otherwise the numpy kernel runs, with the same answers.  The cache
directory is made private to the user (mode 0700), and a library is loaded
only where the directory and the file belong to the user and no one else can
write them, so that a cache in a shared place cannot hand the process another
user's code.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
from pathlib import Path
from typing import Dict, Union

import numpy as np

__all__ = ["cache_directory", "engine", "step_rows"]

SOURCE = Path(__file__).with_name("_onepass.c")
COMPILER = "cc"
FLAGS = ("-O2", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
# vectors of the dot-order probe; their entries span 16 decades, so that a
# different summation order shows in the last bits
_PROBE_VECTORS = 256


class _Library:
    """A loaded build of the source, and which m its dot order was checked at."""

    def __init__(self, path: Path):
        lib = ctypes.CDLL(str(path))
        self.rows, self.dots = lib.onepass_rows, lib.onepass_dots
        self.rows.restype = self.dots.restype = None
        self.rows.argtypes = [ctypes.c_int64] * 6 + [ctypes.c_void_p] * 12
        self.dots.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 3
        self.same_dots: Dict[int, bool] = {}

    def dots_match(self, m: int) -> bool:
        """Whether the loop's dot products give ``np.vecdot``'s bits on the probe at this m."""
        if m not in self.same_dots:
            rng = np.random.default_rng(m)
            x, y = (rng.standard_normal((_PROBE_VECTORS, m))
                    * 10.0 ** rng.integers(-8, 8, (_PROBE_VECTORS, m)) for _ in range(2))
            want = np.concatenate((np.vecdot(x, y), np.vecdot(x, x)))
            got = np.empty(2 * _PROBE_VECTORS)
            self.dots(_PROBE_VECTORS, m, x.ctypes.data, y.ctypes.data, got.ctypes.data)
            self.dots(_PROBE_VECTORS, m, x.ctypes.data, x.ctypes.data,
                      got[_PROBE_VECTORS:].ctypes.data)
            self.same_dots[m] = got.tobytes() == want.tobytes()
        return self.same_dots[m]


# cache directory -> the loaded library, or why none loaded
_loaded: Dict[Path, Union[_Library, str]] = {}


def cache_directory() -> Path:
    """Where the builds live: ``$XDG_CACHE_HOME/onlinelp``, by default ``~/.cache/onlinelp``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "onlinelp"


def _host() -> bytes:
    """The machine a build is for: its uname and, where the file exists, its CPU flags."""
    flags = b""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", "rb") as info:
            flags = next((line for line in info if line.startswith(b"flags")), b"")
    return repr(tuple(os.uname())).encode() + flags


def _private(path: Path) -> bool:
    """Whether ``path`` is ours and nobody else can write it, so that what it holds is ours."""
    info = path.stat()
    return info.st_uid == os.getuid() and not info.st_mode & 0o022


def load() -> Union[_Library, str]:
    """Build the source into :func:`cache_directory` with ``COMPILER`` unless built; load it.

    Returns the library, or why there is none: ``"no source"``, ``"no
    compiler"``, ``"cache not writable"``, ``"build failed"`` or ``"cache
    not private"``: a library is loaded only from a directory and a file
    that belong to this user and that no one else can write.
    """
    directory = cache_directory()
    try:
        source = SOURCE.read_bytes()
    except OSError:
        return "no source"
    key = hashlib.sha256(b"\0".join((source, COMPILER.encode(), " ".join(FLAGS).encode(),
                                     _host()))).hexdigest()
    path = directory / f"onepass-{key[:20]}.so"
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(directory):
            return "cache not private"
    except OSError:
        return "cache not writable"
    if not path.is_file():
        reason = _build(path)
        if reason:
            return reason
    try:
        if not _private(path):
            return "cache not private"
        return _Library(path)
    except (OSError, AttributeError):
        return "build failed"


def _build(path: Path) -> str:
    """Compile the source to ``path`` through a temporary file; returns why it failed, or ``""``."""
    import subprocess
    import tempfile

    try:
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
        os.close(fd)
    except OSError:
        return "cache not writable"
    try:
        done = subprocess.run([COMPILER, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                              capture_output=True, timeout=300)
        if done.returncode != 0:
            return "build failed"
        os.chmod(tmp, 0o700)  # whatever mode the linker gave it
        os.replace(tmp, path)
        return ""
    except FileNotFoundError:
        return "no compiler"
    except (OSError, subprocess.SubprocessError):
        return "build failed"
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _library() -> Union[_Library, str]:
    directory = cache_directory()
    if directory not in _loaded:
        _loaded[directory] = load()
    return _loaded[directory]


def engine(k: int, m: int) -> str:
    """Which engine steps a one-pass batch of k alternatives and m constraints.

    ``"compiled"``, or ``"numpy: <reason>"``, the reason being ``k > 1``
    (the numpy kernel's seeded tie streams), the reason :func:`load` gave,
    or ``dot order differs at m = <m>``.  Builds and loads the library on
    the first k = 1 call of the process.
    """
    if k > 1:
        return "numpy: k > 1"
    lib = _library()
    if isinstance(lib, str):
        return "numpy: " + lib
    return "compiled" if lib.dots_match(m) else f"numpy: dot order differs at m = {m}"


def _addresses(arrays):
    return np.array([a.ctypes.data for a in arrays], dtype=np.uintp)


def step_rows(data, capacity, schedules, gated: slice, track: slice):
    """Step the rows of a k = 1 batch in the compiled loop (see ``_onepass.c``).

    Takes the arguments of the numpy engine,
    :func:`~onlinelp.algorithms._numpy_rows`, but its tie streams, and
    returns its answers bit for bit.  Each row's step sizes come from its
    schedule's ``gamma``, as broadcast views; the loop reads them and the
    instances' arrays in place.  Call it only where :func:`engine` says
    ``"compiled"``.
    """
    lib = _library()
    rewards = [r[:, 0] for r, _ in data]
    columns = [cols[:, 0] for _, cols in data]
    if any(a.dtype != np.float64 for a in rewards + columns + [capacity]) \
            or not capacity.flags.c_contiguous:
        raise ValueError("the compiled loop reads float64 data and contiguous capacities")
    n_inst, rows, (n_max, m) = len(data), len(schedules), columns[0].shape
    lengths = np.array([len(r) for r in rewards], dtype=np.int64)
    t, ns = np.arange(1.0, n_max + 1)[:, None], lengths.astype(np.float64)
    gammas = [np.broadcast_to(np.asarray(s.gamma(t, ns), dtype=np.float64), (n_max, n_inst))
              for s in schedules]
    # every array whose address the loop reads stays bound until it returns
    reward_at, column_at, gamma_at = map(_addresses, (rewards, columns, gammas))
    reward_strides = np.array([r.strides[0] for r in rewards], dtype=np.int64) // 8
    column_strides = np.array([c.strides for c in columns], dtype=np.int64) // 8
    gamma_strides = np.array([g.strides for g in gammas], dtype=np.int64) // 8
    decided = np.zeros((n_inst, rows, n_max), dtype=bool)
    realized = np.zeros((n_inst, gated.stop - gated.start, n_max), dtype=bool)
    prices = np.zeros((n_inst, rows, m))
    peak = np.zeros((n_inst, rows))
    lib.rows(n_inst, rows, gated.start, track.start, m, n_max, lengths.ctypes.data,
             reward_at.ctypes.data, reward_strides.ctypes.data,
             column_at.ctypes.data, column_strides.ctypes.data, capacity.ctypes.data,
             gamma_at.ctypes.data, gamma_strides.ctypes.data,
             decided.ctypes.data, realized.ctypes.data, prices.ctypes.data, peak.ctypes.data)
    return (decided.transpose(1, 0, 2), realized.transpose(1, 0, 2),
            prices.transpose(1, 0, 2), peak.T)
