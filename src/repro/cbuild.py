"""Build-on-first-use of the package's C sources.

The one place that knows how a ``.c`` file next to a module becomes a
loaded ``ctypes`` library: the host's ``cc``/``gcc``, fixed flags, a
shared object cached as ``${XDG_CACHE_HOME:-~/.cache}/repro/
<stem>-<hash>.so`` (the hash covering the source, the compiler's version
line and the flags).  ``REPRO_CFLAGS`` adds flags (a sanitizer build,
``make sanitize-smoke``); they join the hash, so such a build never
replaces a default object, and unset it changes neither.  Code is loaded
from that directory, so it must be the caller's own and nobody else's to
write; otherwise the build goes to a per-process temporary directory.
Clients (:mod:`repro.kernels.native`, :mod:`repro.graph.native`)
declare the entry points of what comes back, and both answer
:func:`python_bodies`: inside it, on the calling thread, neither library
is reached and every step runs its Python or NumPy body, the oracle the
C code is checked against.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Optional

__all__ = ["FLAGS", "NativeUnavailable", "build", "cache_dir", "compiler",
           "flags", "load_library", "python_bodies", "python_only"]

#: No ``-ffast-math`` (the finite tests must hold), no ``-march=native``
#: (the cached object must survive a host migration), no contraction of
#: ``a * b + c`` into an FMA (gcc's default where the base ISA has one):
#: the analysis scores must round as NumPy rounds them on every host.
#: ``-pthread``: the DAG executor of ``native.c`` starts its workers.
FLAGS = ("-O2", "-ffp-contract=off", "-pthread", "-shared", "-fPIC")


def flags() -> tuple[str, ...]:
    """:data:`FLAGS`, then the words of ``$REPRO_CFLAGS``."""
    return FLAGS + tuple(shlex.split(os.environ.get("REPRO_CFLAGS", "")))


class NativeUnavailable(RuntimeError):
    """A C source cannot be built or loaded on this host."""


#: ``python`` set: :func:`python_bodies` is active on this thread.
_local = threading.local()


@contextlib.contextmanager
def python_bodies() -> Iterator[None]:
    """Within the block, on the calling thread only, no C library is
    called: the analysis, the factorization, both solves and the
    mat-vec run their Python and NumPy bodies."""
    previous = python_only()
    _local.python = True
    try:
        yield
    finally:
        _local.python = previous


def python_only() -> bool:
    """``True`` inside :func:`python_bodies` on this thread."""
    return getattr(_local, "python", False)


def compiler() -> str:
    for name in ("cc", "gcc"):
        path = shutil.which(name)
        if path:
            return path
    raise NativeUnavailable("no C compiler (cc/gcc) on PATH")


def cache_dir() -> Optional[Path]:
    """The caller's own build cache, or ``None`` if there is no safe one."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    path = Path(root) / "repro"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return None
    # Code is loaded from here: it must be ours and only ours to write.
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        return None
    return path if os.access(path, os.W_OK) else None


def build(source: Path, directory: Path) -> tuple[Path, dict[str, Any]]:
    """Compile ``source`` into ``directory`` unless already there.

    Returns the shared object's path and ``{"compiler", "flags",
    "build_s", "cached"}``.  The object is written under a temporary name
    and renamed into place, so concurrent first users never load a
    half-written file.
    """
    cc = compiler()
    options = flags()
    try:
        version = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, check=True
        ).stdout.splitlines()[0]
        text = source.read_bytes()
    except (OSError, subprocess.CalledProcessError, IndexError) as exc:
        raise NativeUnavailable(
            f"cannot query {cc} or read {source.name}: {exc}")
    digest = hashlib.sha256(
        text + version.encode() + " ".join(options).encode()
    ).hexdigest()[:16]
    target = directory / f"{source.stem}-{digest}.so"
    info = {"compiler": version, "flags": " ".join(options), "build_s": 0.0,
            "cached": target.exists()}
    if info["cached"]:
        return target, info
    start = time.perf_counter()
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *options, str(source), "-o", tmp, "-lm"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise NativeUnavailable(
                f"build failed ({cc} exit {proc.returncode}):\n{proc.stderr}"
            )
        os.replace(tmp, target)
    except OSError as exc:
        raise NativeUnavailable(f"build failed: {exc}")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    info["build_s"] = time.perf_counter() - start
    return target, info


def _open(path: Path) -> ctypes.CDLL:
    try:
        return ctypes.CDLL(str(path))
    except OSError as exc:
        raise NativeUnavailable(f"cannot load {path}: {exc}")


def load_library(source: Path) -> ctypes.CDLL:
    """Build (or find cached) and ``dlopen`` the object of ``source``."""
    directory = cache_dir()
    if directory is not None:
        return _open(build(source, directory)[0])
    scratch = Path(tempfile.mkdtemp(prefix="repro-native-"))
    try:
        # The mapping outlives the file: nothing to clean up at exit.
        return _open(build(source, scratch)[0])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
