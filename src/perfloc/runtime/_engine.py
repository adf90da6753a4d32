"""The compiled engine: ``engine.c``, built on first import and cached.

The first import compiles ``engine.c`` with the C compiler ``sysconfig``
names, into ``__pycache__/_engine.<key><EXT_SUFFIX>`` next to this file;
the key is a CRC-32 of the source and the compiler flags. The file is
written under a private name and published with ``os.replace``, so
processes that build at once never load a half-written file. Later imports
only stat, read the source for its key, and load the cached file.

A failed build raises ImportError quoting the compiler's first error line;
``runtime.exec`` then falls back to ``engine_py``.
"""

import os
import zlib
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "engine.c")
_FLAGS = ("-O2", "-shared", "-fPIC")


def _first_error(stderr: str) -> str:
    lines = [line.strip() for line in stderr.splitlines() if line.strip()]
    errors = [line for line in lines if "error" in line]
    return (errors or lines or ["no diagnostic"])[0]


def _build(target: str) -> None:
    import shlex
    import subprocess
    import sysconfig
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    partial = f"{target}.{os.getpid()}.tmp"
    command = [*compiler, *_FLAGS, "-I", sysconfig.get_paths()["include"],
               _SOURCE, "-o", partial]
    try:
        os.makedirs(os.path.dirname(target), exist_ok=True)
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            raise ImportError(f"cannot build the compiled engine: "
                              f"{_first_error(done.stderr)}")
        os.replace(partial, target)
    except OSError as exc:
        raise ImportError(f"cannot build the compiled engine: {exc}") from None
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _load():
    with open(_SOURCE, "rb") as fh:
        key = zlib.crc32(" ".join(_FLAGS).encode(), zlib.crc32(fh.read()))
    path = os.path.join(_HERE, "__pycache__",
                        f"_engine.{key:08x}{EXTENSION_SUFFIXES[0]}")
    if not os.path.exists(path):
        _build(path)
    loader = ExtensionFileLoader(__name__, path)
    module = module_from_spec(spec_from_loader(__name__, loader))
    loader.exec_module(module)
    return module


run_tests = _load().run_tests
