"""Pin every loaded OpenBLAS to one thread.

The package's dense products (solver sweeps, Gram matrices, USVT blocks) run
through BLAS, whose reductions may order their sums by thread count.  With
one thread per process the bits cannot depend on ``OPENBLAS_NUM_THREADS``,
and ``run --workers k`` runs k BLAS threads, not k per core.  numpy and
scipy each bundle their own OpenBLAS, so both are loaded first.
"""

import ctypes

import numpy as np
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)
import scipy.sparse.linalg  # noqa: F401

_SYMBOLS = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")


def openblas_calls(name: str, argtypes: list, restype) -> list:
    """``openblas_<name>`` of each OpenBLAS mapped into this process, under
    whichever prefix and suffix its build uses; None for a build that has none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    except FileNotFoundError:  # not Linux
        paths = []
    calls = []
    for path in paths:
        library = ctypes.CDLL(path)
        symbols = (symbol.format(name) for symbol in _SYMBOLS)
        call = next((getattr(library, symbol) for symbol in symbols if hasattr(library, symbol)), None)
        if call is not None:
            call.argtypes, call.restype = argtypes, restype
        calls.append(call)
    return calls


_setters = openblas_calls("set_num_threads", [ctypes.c_int], None)
if not _setters or None in _setters:
    _blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    raise ImportError(
        "latent_ot pins its BLAS to one thread and needs numpy and scipy built on OpenBLAS (Linux); "
        f"numpy reports {_blas.get('name')} {_blas.get('version')}"
    )
for _set in _setters:
    _set(1)
