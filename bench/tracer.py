"""Run the doslab command line with a span around each layer's public calls.

    python3 bench/tracer.py SPANS_JSON run [doslab run arguments ...]

The program is not modified: wrappers replace module and class attributes
at run time (numpy.linalg.eigh, montecarlo.draw_disorder, verify.verify_*,
...), so every call the command makes through those names becomes a span
with its name, start, end, parent span and thread.  A name the program no
longer has is skipped.  Spans are kept in memory and written to SPANS_JSON
when the command ends.  Spans opened on the estimators' pool threads take
the open estimator span as their parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

from layers import VERIFY_CHECKS


class Recorder:
    def __init__(self):
        # (id, parent, name, start, end, thread, size)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._estimator = 0

    def wrap(self, name, fn, size=None, estimator=False):
        """fn with a span named name; size(args, kwargs, result) -> list."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else self._estimator
            owns_estimator = estimator and not self._estimator
            if owns_estimator:
                self._estimator = sid
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if owns_estimator:
                    self._estimator = 0
                info = size(args, kwargs, result) if size and result is not None else None
                self.spans.append(
                    (sid, parent, name, start, end, threading.get_ident(), info)
                )

        return traced

    def patch(self, owners, attr, name, **kw):
        """Replace attr on every owner that has it with one traced wrapper."""
        owners = [o for o in owners if hasattr(o, attr)]
        if owners:
            traced = self.wrap(name, getattr(owners[0], attr), **kw)
            for owner in owners:
                setattr(owner, attr, traced)

    def patch_classmethod(self, cls, attr, name):
        fn = cls.__dict__[attr].__func__
        setattr(cls, attr, classmethod(self.wrap(name, fn)))


def _order(args, kwargs, result):
    a = args[0]
    return [int(a.shape[-1]), int(a.dtype.kind == "c")]


def _solve_order(args, kwargs, result):
    lu = args[0][0]
    rhs = args[1]
    cols = 1 if rhs.ndim == 1 else int(rhs.shape[1])
    return [int(lu.shape[0]), int(lu.dtype.kind == "c"), cols]


def _nodes(args, kwargs, result):
    return [int(len(result[0]))]


def install(rec: Recorder) -> None:
    import numpy
    import scipy.linalg

    import doslab.cli as cli
    import doslab.lattice as lattice
    import doslab.montecarlo as montecarlo
    import doslab.quadrature as quadrature
    import doslab.spectral as spectral
    import doslab.verify as verify
    from doslab.disorder import SingleSiteDensity

    rec.patch([cli], "run", "cli.run")
    rec.patch_classmethod(cli.ExperimentConfig, "from_file", "cli.parse")

    rec.patch([cli, lattice], "build_box_enumeration", "lattice.build")
    rec.patch_classmethod(lattice.FreeOperatorSpec, "nearest_neighbor", "lattice.build")
    rec.patch_classmethod(lattice.ProjectionFamily, "contiguous", "lattice.build")
    rec.patch([lattice.ModelSpec], "__init__", "lattice.build")
    rec.patch([lattice.FreeOperatorSpec], "matrix", "lattice.matrix")

    rec.patch([montecarlo], "draw_disorder", "disorder.draw")
    rec.patch([SingleSiteDensity], "log_derivative", "disorder.score")
    rec.patch([SingleSiteDensity], "log_curvature", "disorder.score")

    for fn in (
        "smoothed_dos_curve",
        "ids_curve",
        "dos_derivative_curve",
        "fractional_moment_profile",
        "telescope_series_diagnostic",
        "estimate_dos_derivative_tilted",
    ):
        rec.patch([montecarlo, cli], fn, "montecarlo.estimator", estimator=True)
    rec.patch_classmethod(montecarlo.Estimate, "from_samples", "montecarlo.reduce")

    rec.patch([numpy.linalg], "eigh", "linalg.eigh", size=_order)
    rec.patch([scipy.linalg], "lu_factor", "linalg.lu_factor", size=_order)
    rec.patch([scipy.linalg], "lu_solve", "linalg.lu_solve", size=_solve_order)
    rec.patch([numpy.linalg], "svd", "linalg.svd")
    rec.patch([numpy.linalg], "inv", "linalg.inv")
    rec.patch([scipy.linalg], "expm", "linalg.expm")
    for fn in (
        "resolvent_columns",
        "kernel_block",
        "kernel_block_norm",
        "spectral_projector_trace",
        "eigen_weights",
        "dissipative_exp",
    ):
        rec.patch([spectral], fn, f"spectral.{fn}")

    rec.patch([cli], "run_default_verification", "verify.run")
    for check in VERIFY_CHECKS:
        rec.patch([verify], f"verify_{check}", f"verify.{check}")
    rec.patch([quadrature, verify], "panel_rule", "quadrature.panel_rule", size=_nodes)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    started = time.perf_counter()
    import doslab.cli

    import_s = time.perf_counter() - started
    rec = Recorder()
    install(rec)
    try:
        return doslab.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"run_id": f"{os.getpid()}-{started!r}", "import_s": import_s, "spans": rec.spans},
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
