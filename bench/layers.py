"""Per-layer metrics from the spans one traced `doslab run` process wrote.

A span's self time is its duration minus the part of it that its child
spans cover.  Linear-algebra spans (linalg.*) and spectral.* spans count
toward the spectral layer under an estimator span and toward the verify
layer under a verify check.  Operation counts are computed from matrix
orders, not measured:
    eigh (with vectors)   9 n^3   real symmetric, 4x that for Hermitian
    LU factorization      2/3 n^3 real,           8/3 n^3 complex
    LU solve, k columns   2 n^2 k real,           8 n^2 k complex
"""

from __future__ import annotations

from collections import defaultdict

VERIFY_CHECKS = (
    "finite_smooth",
    "resolvent_average_bound",
    "semigroup_hoelder",
    "resolvent_semigroup_identity",
    "spectral_averaging",
    "boundary_derivatives",
)
LAYERS = ("lattice", "disorder", "spectral", "montecarlo", "verify", "quadrature", "cli")


def union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _gflop(name: str, info) -> float:
    if name == "linalg.eigh":
        n, cplx = info
        return 9.0 * n**3 * (4 if cplx else 1) / 1e9
    if name == "linalg.lu_factor":
        n, cplx = info
        return (8.0 if cplx else 2.0) / 3.0 * n**3 / 1e9
    if name == "linalg.lu_solve":
        n, cplx, k = info
        return (8.0 if cplx else 2.0) * n * n * k / 1e9
    return 0.0


def layer_metrics(trace: dict, n_samples: int, workers: int, compute_s: float) -> dict:
    spans = {
        sid: {"id": sid, "parent": parent, "name": name, "start": start,
              "end": end, "thread": thread, "info": info}
        for sid, parent, name, start, end, thread, info in trace["spans"]
    }
    children = defaultdict(list)
    for s in spans.values():
        children[s["parent"]].append(s)

    def ancestors(s):
        while s["parent"] in spans:
            s = spans[s["parent"]]
            yield s

    def dur(s):
        return s["end"] - s["start"]

    def descendants(s):
        todo = list(children[s["id"]])
        while todo:
            c = todo.pop()
            todo.extend(children[c["id"]])
            yield c

    for s in spans.values():
        names = [a["name"] for a in ancestors(s)]
        s["in_estimator"] = "montecarlo.estimator" in names
        s["in_check"] = any(
            n.startswith("verify.") and n != "verify.run" for n in names
        )
        prefix = s["name"].split(".")[0]
        if prefix in ("linalg", "spectral"):
            s["layer"] = "verify" if s["in_check"] and not s["in_estimator"] else "spectral"
        else:
            s["layer"] = prefix

    def named(name, where=None):
        return [
            s for s in spans.values()
            if s["name"] == name and (where is None or s[where])
        ]

    m: dict[str, float] = {}

    # lattice
    build = [s for s in named("lattice.build")
             if not any(a["name"] == "lattice.build" for a in ancestors(s))]
    m["lattice.build_s"] = sum(map(dur, build))
    matrix = named("lattice.matrix")
    m["lattice.matrix_calls"] = len(matrix)
    m["lattice.matrix_s"] = sum(map(dur, matrix))

    # disorder
    draws = named("disorder.draw")
    m["disorder.draw_calls"] = len(draws)
    m["disorder.draw_s"] = sum(map(dur, draws))
    m["disorder.draws_per_sample"] = len(draws) / n_samples if n_samples else 0.0
    score = named("disorder.score")
    m["disorder.score_calls"] = len(score)
    m["disorder.score_s"] = sum(map(dur, score))

    # spectral: the per-sample kernel under estimator spans
    eigh = named("linalg.eigh", "in_estimator")
    lu_f = named("linalg.lu_factor", "in_estimator")
    lu_s = named("linalg.lu_solve", "in_estimator")
    kernel = [
        s for s in spans.values()
        if s["in_estimator"] and s["layer"] == "spectral"
        and not any(a["layer"] == "spectral" for a in ancestors(s))
    ]
    # wall time with at least one thread in the kernel
    kernel_s = union_length((s["start"], s["end"]) for s in kernel)
    gflop = sum(_gflop(s["name"], s["info"]) for s in eigh + lu_f + lu_s)
    m["spectral.eigh_calls"] = len(eigh)
    m["spectral.eigh_s"] = sum(map(dur, eigh))
    m["spectral.eigh_mean_n"] = (
        sum(s["info"][0] for s in eigh) / len(eigh) if eigh else 0.0
    )
    m["spectral.lu_calls"] = len(lu_f)
    m["spectral.lu_s"] = sum(map(dur, lu_f + lu_s))
    m["spectral.calls_per_sample"] = (
        (len(eigh) + len(lu_f)) / n_samples if n_samples else 0.0
    )
    m["spectral.share"] = kernel_s / compute_s
    m["spectral.gflop_computed"] = gflop
    m["spectral.gflops_achieved"] = gflop / kernel_s if kernel_s > 0 else 0.0

    # montecarlo
    estimators = [s for s in named("montecarlo.estimator") if not s["in_estimator"]]
    estimator_wall = sum(map(dur, estimators))
    reduce = named("montecarlo.reduce")
    overhead = 0.0
    busy = 0.0
    threads = set()
    for est in estimators:
        inner = list(descendants(est))
        overhead += dur(est) - union_length((c["start"], c["end"]) for c in inner)
        by_thread = defaultdict(list)
        for c in children[est["id"]]:
            by_thread[c["thread"]].append((c["start"], c["end"]))
        busy += sum(union_length(iv) for iv in by_thread.values())
        threads.update(c["thread"] for c in inner if c["name"] == "disorder.draw")
    m["montecarlo.estimator_calls"] = len(estimators)
    m["montecarlo.estimator_s"] = estimator_wall
    m["montecarlo.reduce_calls"] = len(reduce)
    m["montecarlo.reduce_s"] = sum(map(dur, reduce))
    m["montecarlo.overhead_s"] = overhead
    m["montecarlo.threads_seen"] = len(threads)
    m["montecarlo.parallel_efficiency"] = (
        busy / (workers * estimator_wall) if estimator_wall > 0 else 0.0
    )

    # verify
    for check in VERIFY_CHECKS:
        m[f"verify.{check}_s"] = sum(map(dur, named(f"verify.{check}")))
    for op in ("svd", "inv", "expm"):
        calls = named(f"linalg.{op}", "in_check")
        m[f"verify.{op}_calls"] = len(calls)
        m[f"verify.{op}_s"] = sum(map(dur, calls))

    # quadrature
    rules = named("quadrature.panel_rule")
    m["quadrature.rule_calls"] = len(rules)
    m["quadrature.nodes"] = sum(s["info"][0] for s in rules)
    m["quadrature.s"] = sum(map(dur, rules))

    # self time per layer
    self_time = dict.fromkeys(LAYERS, 0.0)
    for s in spans.values():
        own = dur(s) - union_length(
            (c["start"], c["end"]) for c in children[s["id"]]
        )
        self_time[s["layer"]] = self_time.get(s["layer"], 0.0) + own
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]

    m["cli.import_s"] = trace["import_s"]
    m["cli.parse_s"] = sum(map(dur, named("cli.parse")))

    # how much of compute_s the spans account for
    top = estimators + named("verify.run")
    covered = [
        (c["start"], c["end"]) for t in top for c in descendants(t)
    ]
    m["trace.coverage"] = union_length(covered) / compute_s
    m["trace.compute_span_share"] = sum(map(dur, top)) / compute_s
    m["trace.spans"] = len(spans)
    return m
