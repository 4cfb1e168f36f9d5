"""Build, cache and load the native tick stepper (``_stepper.c``).

The flat engine walks the character kernel's transition tensor natively
when this loader can provide the ``_stepper`` extension, and falls back to
closure dispatch otherwise.  Nothing here runs at import time: the first
:class:`~repro.sim.flatcore.FlatEngine` construction calls :func:`load`,
which either loads a cached build or compiles the C file once.

The build needs only a C compiler and the interpreter's headers:

* the compiler is ``$CC`` when set, else the one the interpreter was
  built with (``sysconfig``), driven directly — no setuptools;
* the shared object is cached per user under ``$XDG_CACHE_HOME`` (or
  ``~/.cache``) at ``repro/native/_stepper-<key><EXT_SUFFIX>``, where the
  key digests the C source and the compile command, and the suffix names
  the interpreter ABI — so an edited source or another interpreter
  simply misses and rebuilds;
* a build is written to a private temporary name and published with one
  atomic rename, so concurrent builders never expose a torn file and all
  end up loading the same published path;
* a loaded module must report the key it was built from (stale files
  copied under a key rebuild once) and the packed-entry layout of
  :mod:`repro.sim.flatcore`.

Any failure — no compiler, a failed compile, an unwritable cache, a
corrupt or stale file that does not heal — leaves the engine on closure
dispatch, and :func:`status` says why.  ``tools/build_native.py`` prebuilds
the same artifact.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sysconfig
from pathlib import Path

__all__ = ["SOURCE", "cache_dir", "artifact_path", "build_and_load", "load", "status"]

#: the C source, shipped as package data next to this module
SOURCE = Path(__file__).with_name("_stepper.c")

#: compile flags (part of the cache key).  -O1 runs as fast as -O2 here
#: (the walk's time goes to interpreter calls) and keeps the compiler's
#: peak memory ~5 MB lower.
CFLAGS = ("-O1", "-shared", "-fPIC", "-fno-strict-aliasing")

#: process-wide outcome of :func:`load`: (module or None, fallback reason)
_LOADED: tuple | None = None


def _compiler(env: dict) -> list[str]:
    cc = env.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shlex.split(cc)


def _key(env: dict) -> str:
    h = hashlib.sha256(SOURCE.read_bytes())
    h.update(repr((_compiler(env), CFLAGS)).encode())
    return h.hexdigest()[:16]


def cache_dir(env: dict | None = None) -> Path:
    """The per-user native build cache: ``$XDG_CACHE_HOME/repro/native``."""
    env = os.environ if env is None else env
    base = env.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro" / "native"


def artifact_path(env: dict | None = None) -> Path:
    """Where the build for this source, compiler and interpreter lives."""
    env = os.environ if env is None else env
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return cache_dir(env) / f"_stepper-{_key(env)}{suffix}"


def _build(dest: Path, key: str, env: dict) -> None:
    """Compile the source and publish it at ``dest`` atomically."""
    dest.parent.mkdir(parents=True, exist_ok=True)
    tmp = dest.with_name(f".{dest.name}.{os.getpid()}.tmp")
    include = sysconfig.get_paths()["include"]
    cmd = [
        *_compiler(env),
        *CFLAGS,
        f"-I{include}",
        f'-DREPRO_STEPPER_DIGEST="{key}"',
        str(SOURCE),
        "-o",
        str(tmp),
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, env=env)
    except (OSError, subprocess.SubprocessError) as exc:
        raise RuntimeError(f"compiler {cmd[0]!r} did not run: {exc}") from None
    try:
        if proc.returncode != 0 or not tmp.exists():
            detail = (proc.stderr or proc.stdout).strip().splitlines()
            tail = detail[-1] if detail else f"exit status {proc.returncode}"
            raise RuntimeError(f"compiler {cmd[0]!r} failed: {tail}")
        os.replace(tmp, dest)
    finally:
        tmp.unlink(missing_ok=True)


def _import(path: Path, key: str):
    # a build embeds its key (see _stepper.c); checking the bytes first
    # keeps a stale file out of the process, whose loader would otherwise
    # hand back the same mapping for the rebuilt file at the same path
    if f"repro-stepper-key:{key}".encode() not in path.read_bytes():
        raise ImportError("stale build (key not found in the file)")
    spec = importlib.util.spec_from_file_location("repro.sim._stepper", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if getattr(module, "SOURCE_DIGEST", None) != key:
        raise ImportError(f"stale build (key {getattr(module, 'SOURCE_DIGEST', None)})")
    from repro.sim import flatcore

    layout = {
        "CODE_BITS": flatcore.CODE_BITS,
        "SEQ_SHIFT": flatcore.SEQ_SHIFT,
        "PORT_SHIFT": flatcore.PORT_SHIFT,
        "PRIO_SHIFT": flatcore.PRIO_SHIFT,
    }
    for name, value in layout.items():
        if getattr(module, name, None) != value:
            raise ImportError(f"packed-entry layout mismatch on {name}")
    return module


def build_and_load(env: dict | None = None):
    """Load the cached build, compiling it first when missing or broken.

    Returns ``(module, None)`` on success and ``(None, reason)`` when the
    engine must fall back to closure dispatch.  ``env`` (default
    ``os.environ``) supplies ``CC`` and the cache location.
    """
    env = dict(os.environ if env is None else env)
    try:
        key = _key(env)
        path = artifact_path(env)
    except OSError as exc:
        return None, f"source unreadable: {exc}"
    if path.exists():
        try:
            return _import(path, key), None
        except Exception as exc:  # corrupt or stale: rebuild once below
            failure = f"cached build unusable ({exc})"
    else:
        failure = None
    try:
        _build(path, key, env)
    except OSError as exc:
        return None, f"cache not writable: {exc}"
    except RuntimeError as exc:
        return None, str(exc) if failure is None else f"{failure}; {exc}"
    try:
        return _import(path, key), None
    except Exception as exc:
        return None, f"fresh build unusable: {exc}"


def load():
    """The process-wide stepper module, or ``None`` (see :func:`status`)."""
    global _LOADED
    if _LOADED is None:
        _LOADED = build_and_load()
    return _LOADED[0]


def status() -> tuple[str, str | None]:
    """``("native", None)`` or ``("closure", reason)`` for this process.

    Before any flat engine asked for the stepper this reports
    ``("closure", "not loaded")``.
    """
    if _LOADED is None:
        return "closure", "not loaded"
    module, reason = _LOADED
    return ("native", None) if module is not None else ("closure", reason)
