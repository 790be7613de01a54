"""The compiled loops: build ``_onepass.c`` and ``_simplex.c`` once per content and machine.

One library holds both loops: the one-pass kernel's k = 1 rows and the offline
LP's pivots.  It is built lazily, the first time either runs, with ``cc -O3
-march=native -ffp-contract=off`` into ``$XDG_CACHE_HOME/onlinelp/``
(``~/.cache/onlinelp/`` when the variable is unset), and looked up once per
process.  Its file name is a hash of the sources, the compiler, the flags and
the host, so checkouts with the same sources share one build and a home
directory shared between machines never loads a library built for another
CPU; each build writes a temporary file that ``os.replace`` moves into
place, so that concurrent builds are safe.  Loading a build marks it used,
and a fresh build removes the user's builds unused for 30 days.  It is
loaded with ``ctypes``, which numpy has already imported.  :func:`engine`
says whether it loaded.  Where it did, every one-pass batch of k = 1
instances steps in it, its dot products in-order sums as the numpy kernel's
are, so both engines answer alike on any host, and every LP pivots in it,
the answer solved from the final basis in numpy; elsewhere numpy runs both.
The cache directory is made private to the user (mode 0700), and a library
is loaded only where the directory and the file belong to the user and no
one else can write them, so that a cache in a shared place cannot hand the
process another user's code.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import stat
import threading
import time
from pathlib import Path
from typing import Tuple, Union

import numpy as np

__all__ = ["cache_directory", "engine", "pivot_lp", "step_rows"]

SOURCES = (Path(__file__).with_name("_onepass.c"), Path(__file__).with_name("_simplex.c"))
COMPILER = "cc"
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
_DAY = 86400.0  # seconds


class _Library:
    """A loaded build of the sources."""

    def __init__(self, path: Path):
        lib = ctypes.CDLL(str(path))
        self.rows = lib.onepass_rows
        self.rows.restype = None
        self.rows.argtypes = [ctypes.c_int64] * 6 + [ctypes.c_void_p] * 12
        self.pivots = lib.simplex_pivots
        self.pivots.restype = ctypes.c_int64
        self.pivots.argtypes = ([ctypes.c_int64] * 2 + [ctypes.c_void_p] * 7 + [ctypes.c_int64]
                                + [ctypes.c_double] * 2 + [ctypes.c_void_p] * 3)


# the library this process loaded, or why none loaded; None until first asked
_lib: Union[_Library, str, None] = None


def cache_directory() -> Path:
    """Where the builds live: ``$XDG_CACHE_HOME/onlinelp``, by default ``~/.cache/onlinelp``."""
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "onlinelp"


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
    """Build the sources into :func:`cache_directory` with ``COMPILER`` unless built; load them.

    Returns the library, or why there is none: ``"no source"``, ``"no
    compiler"``, ``"cache not writable"``, ``"build failed"`` or ``"cache
    not private"``: a library is loaded only from a directory and a file
    that belong to this user and that no one else can write.
    """
    directory = cache_directory()
    try:
        sources = [source.read_bytes() for source in SOURCES]
    except OSError:
        return "no source"
    key = hashlib.sha256(b"\0".join((*sources, COMPILER.encode(), " ".join(FLAGS).encode(),
                                     _host()))).hexdigest()
    path = directory / f"native-{key[:20]}.so"
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
        _prune(directory)
    try:
        if not _private(path):
            return "cache not private"
        if path.stat().st_mtime < time.time() - _DAY:  # mark it used, to the day
            with contextlib.suppress(OSError):
                os.utime(path)
        return _Library(path)
    except (OSError, AttributeError):
        return "build failed"


def _build(path: Path) -> str:
    """Compile the sources to ``path`` through a temporary file; returns why it failed, or ``""``."""
    import subprocess
    import tempfile

    try:
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
        os.close(fd)
    except OSError:
        return "cache not writable"
    try:
        done = subprocess.run([COMPILER, *FLAGS, "-o", tmp, *map(str, SOURCES), "-lm"],
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


def _prune(directory: Path) -> None:
    """Remove the user's builds from ``directory`` that no process loaded for 30 days.

    A build is a regular file named ``native-*.so``, whatever scheme named
    it, and its mtime is when it was last loaded; a symlink, another user's
    file and a build still being written (a ``.tmp`` file) stay.
    """
    cutoff = time.time() - 30 * _DAY
    for other in directory.glob("native-*.so"):
        with contextlib.suppress(OSError):
            info = other.lstat()
            if stat.S_ISREG(info.st_mode) and info.st_uid == os.getuid() \
                    and info.st_mtime < cutoff:
                other.unlink()


def _library() -> Union[_Library, str]:
    global _lib
    if _lib is None:
        _lib = load()
    return _lib


def engine() -> str:
    """Which engines run: ``"compiled"``, or ``"numpy: <reason>"``, the reason :func:`load` gave.

    Builds and loads the library on the first call of the process.
    """
    lib = _library()
    return "numpy: " + lib if isinstance(lib, str) else "compiled"


# simplex_pivots' return codes (see _simplex.c)
PIVOT_STATUS = ("optimal", "no entering column", "budget exceeded", "singular basis",
                "basis out of range")


def pivot_lp(A, Gt, r, b, basis, at_upper, nonbasic, budget: int,
             pivot_tol: float, feas_tol: float) -> Tuple[str, int]:
    """Run :func:`~onlinelp.simplex._solve`'s pivot loop in the compiled library, ``_simplex.c``.

    ``A`` (m, n), ``Gt`` (n + m, m), ``r`` and ``b`` are C-contiguous float64
    arrays; ``basis`` (int64), ``at_upper`` and ``nonbasic`` (bool) are the
    start, updated in place.  Returns the loop's status, one of the first
    four of ``PIVOT_STATUS``, and the pivots it began; raises
    ``ValueError`` on arrays of another layout or a basis index outside
    [0, n + m), which the loop checks before it reads any.  Call it only
    where :func:`engine` says ``"compiled"``.
    """
    lib = _library()
    m, n = A.shape
    N = n + m
    arrays = (A, Gt, r, b, basis, at_upper, nonbasic)
    if not (A.dtype == Gt.dtype == r.dtype == b.dtype == np.float64 and basis.dtype == np.int64
            and at_upper.dtype == nonbasic.dtype == np.bool_
            and all(a.flags.c_contiguous for a in arrays)):
        raise ValueError("the compiled pivot loop reads contiguous float64 data, "
                         "int64 basis indices and boolean flags")
    if [a.shape for a in arrays[1:]] != [(N, m), (n,), (m,), (m,), (N,), (N,)]:
        raise ValueError("inconsistent LP dimensions")
    work, iwork = _workspace(2 * m * m + 2 * m + 6 * N, 5 * N)
    iterations = ctypes.c_int64()
    status = PIVOT_STATUS[lib.pivots(n, m, *(a.ctypes.data for a in arrays), budget, pivot_tol,
                                     feas_tol, work.ctypes.data, iwork.ctypes.data,
                                     ctypes.byref(iterations))]
    if status == "basis out of range":
        raise ValueError("basis indices must lie in [0, n + m)")
    return status, iterations.value


# per thread: the compiled pivot loop's scratch arrays, kept between calls, so
# that a large LP does not fault in fresh pages at every solve
_scratch = threading.local()


def _workspace(doubles: int, ints: int):
    """This thread's scratch arrays, of at least ``doubles`` float64s and ``ints`` int64s."""
    work, iwork = getattr(_scratch, "arrays", (None, None))
    if work is None or work.size < doubles or iwork.size < ints:
        if work is not None:
            doubles, ints = max(doubles, work.size), max(ints, iwork.size)
        work, iwork = _scratch.arrays = np.empty(doubles), np.empty(ints, dtype=np.int64)
    return work, iwork


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
