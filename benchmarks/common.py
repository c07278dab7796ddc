"""Shared benchmark harness: scaling, searcher comparison, reporting.

Every bench file regenerates one paper table/figure.  Experiments print
the same rows/series the paper reports (run pytest with ``-s`` to see
them live) and append them to ``benchmarks/results/`` so the output
survives pytest's capture.  ``REPRO_SCALE`` scales workload sizes
(default 1.0; 2.0+ towards paper scale).  Below 1.0 runs are quicker
but not every assertion holds: Fig. 3c's what-if check fails at 0.5
(METAM's averaged utility at 200 queries reads 0.83, under its 0.95
bar).
"""

from __future__ import annotations

import os

from repro import DiscoveryEngine, DiscoveryRequest, MetamConfig

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))


def scaled(value: int, minimum: int = 1) -> int:
    """Scale an integer workload knob by REPRO_SCALE."""
    return max(minimum, int(round(value * SCALE)))


def report(name: str, lines) -> None:
    """Print a figure/table report and persist it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join([f"=== {name} ==="] + list(lines)) + "\n"
    print("\n" + text)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w", encoding="utf-8") as f:
        f.write(text)


def series_table(results: dict, query_points) -> list:
    """Format utility-vs-queries rows, one per searcher."""
    lines = ["searcher    " + "".join(f"{q:>8}" for q in query_points)]
    for name, result in results.items():
        lines.append(
            f"{name:12s}"
            + "".join(f"{result.utility_at(q):8.3f}" for q in query_points)
        )
    return lines


def run_comparison(
    scenario,
    budget: int,
    theta: float = 1.0,
    epsilon: float = 0.1,
    seed: int = 0,
    include_iarda: bool = False,
    iarda_target: str | None = None,
    iarda_mode: str = "classification",
    metam_config: MetamConfig | None = None,
    candidates=None,
    engine: DiscoveryEngine | None = None,
) -> dict:
    """Run METAM + MW/Overlap/Uniform (+iARDA) on one scenario.

    Returns ``{searcher_name: SearchResult}``; all searchers share the
    candidate set (prepared once by the engine) so query counts are
    comparable.  ``engine`` reuses an existing warm engine.
    """
    if engine is None:
        engine = DiscoveryEngine(corpus=scenario.corpus)
    if candidates is None:
        candidates = engine.prepare(scenario.base, seed=seed)
    config = metam_config or MetamConfig(
        theta=theta, query_budget=budget, epsilon=epsilon, seed=seed
    )

    def discover(searcher, **overrides):
        request = DiscoveryRequest(
            base=scenario.base,
            task=scenario.task,
            searcher=searcher,
            theta=theta,
            query_budget=budget,
            seed=seed,
            candidates=candidates,
            **overrides,
        )
        return engine.discover(request).result

    results = {"metam": discover("metam", config=config)}
    for name in ("mw", "overlap", "uniform"):
        results[name] = discover(name)
    if include_iarda:
        results["iarda"] = discover(
            "iarda",
            options={"target_column": iarda_target, "mode": iarda_mode},
        )
    return results


def average_results(per_seed: list, query_points) -> dict:
    """Average utility_at curves across seeds → {name: [values]}."""
    names = per_seed[0].keys()
    out = {}
    for name in names:
        out[name] = [
            sum(r[name].utility_at(q) for r in per_seed) / len(per_seed)
            for q in query_points
        ]
    return out


def averaged_table(averages: dict, query_points) -> list:
    lines = ["searcher    " + "".join(f"{q:>8}" for q in query_points)]
    for name, values in averages.items():
        lines.append(f"{name:12s}" + "".join(f"{v:8.3f}" for v in values))
    return lines
