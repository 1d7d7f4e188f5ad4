"""Numerical laboratory for spectral statistics of random lattice operators.

Builds finite volumes of Anderson-type Hamiltonians h = h0 + coupling * sum_n
omega_n P_n, estimates integrated and smoothed densities of states and their
energy derivatives by Monte Carlo, measures fractional-moment decay, and
certifies the operator inequalities the estimators rely on by quadrature.
"""

import ctypes
import importlib
import os
import pickle
import signal
from contextlib import contextmanager
from typing import NamedTuple

__version__ = "0.14.0"


def cpu_affinity() -> int:
    """How many CPUs this process may run on: the size of its affinity set,
    or 1 where the platform does not report one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def fork_map(fn, items) -> list:
    """[fn(item) for item in items], in item order.

    Item 0 runs here, every other one in a forked child, which sends its
    pickled result, or the exception it raised, back through a pipe.  The
    first exception in item order is raised here; every child is killed and
    reaped before this returns or raises.
    """
    items = list(items)
    children = []  # (pid, read end of its pipe)
    finished = False
    try:
        for item in items[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(fn, item, r, w)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = [fn(item) for item in items[:1]]
        for index, (_, pipe) in enumerate(children, 1):
            data = pipe.read()
            if not data:
                raise RuntimeError(f"the process of item {index} exited with no result")
            result = pickle.loads(data)
            if isinstance(result, BaseException):
                raise result
            results.append(result)
        finished = True
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(fn, item, r: int, w: int):
    """A forked child's whole life: run fn(item), send the pickled result or
    exception through w, leave by os._exit."""
    code = 1
    try:
        os.close(r)
        try:
            result = fn(item)
        except BaseException as exc:  # noqa: BLE001 - sent on; the parent raises it
            result = exc
        try:
            data = pickle.dumps(result)
            if isinstance(result, BaseException):
                pickle.loads(data)  # an exception can pickle and not unpickle
        except Exception:  # noqa: BLE001 - a result pickle cannot carry
            data = pickle.dumps(RuntimeError(f"{type(result).__name__}: {result}"))
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)



# -- one BLAS thread in forked shares ------------------------------------------


class OpenBlas(NamedTuple):
    """One OpenBLAS library mapped into this process, with its thread-count
    calls."""

    name: str
    config: str
    get_threads: object
    set_threads: object


# symbol patterns of the thread-count calls: numpy's 64-bit-integer build,
# scipy's build, and a system OpenBLAS either way
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"
)


def loaded_openblas() -> list[OpenBlas]:
    """Every OpenBLAS this process has loaded, by file name, in name order.

    Read from /proc/self/maps, so a library not yet loaded stays unloaded,
    and empty where the platform has no such file."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    except (OSError, IndexError):
        return []
    found = []
    for path in sorted(paths, key=os.path.basename):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for pattern in _OPENBLAS_SYMBOLS:
            try:
                get, put, config = (
                    getattr(lib, pattern.format(f))
                    for f in ("get_num_threads", "set_num_threads", "get_config")
                )
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            config.argtypes, config.restype = [], ctypes.c_char_p
            build = " ".join(config().decode().split())
            found.append(OpenBlas(os.path.basename(path), build, get, put))
            break
    return found


@contextmanager
def _one_blas_thread():
    """Every loaded OpenBLAS runs one thread inside; the old counts after."""
    libs = loaded_openblas()
    counts = [lib.get_threads() for lib in libs]
    for lib in libs:
        lib.set_threads(1)
    try:
        yield
    finally:
        for lib, count in zip(libs, counts):
            lib.set_threads(count)


# exported names by submodule, each loaded on first access (PEP 562): a chain
# run then loads no scipy, and `python -m doslab.cli` finds no doslab.cli
# imported before it runs
_SUBMODULE_NAMES = {
    "cli": ("ConfigError", "ExperimentConfig", "RunManifest", "reproduce", "run"),
    "disorder": ("SingleSiteDensity", "stieltjes_transform"),
    "lattice": (
        "FreeOperatorSpec",
        "ModelSpec",
        "ProjectionFamily",
        "SiteSpace",
        "build_box_enumeration",
    ),
    "montecarlo": (
        "DecayFit",
        "Estimate",
        "McConfig",
        "TelescopeReport",
        "fit_decay",
        "telescope_series_diagnostic",
    ),
    "verify": (
        "CheckReport",
        "Corpus",
        "run_default_verification",
        "smoothstep",
        "verify_boundary_derivatives",
        "verify_finite_smooth",
        "verify_resolvent_average_bound",
        "verify_resolvent_semigroup_identity",
        "verify_semigroup_hoelder",
        "verify_spectral_averaging",
    ),
}
_SUBMODULE_OF = {
    name: module for module, names in _SUBMODULE_NAMES.items() for name in names
}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
