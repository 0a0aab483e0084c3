"""X2 (extension) — rule-derived large-scale models on the engine.

Regenerates the paper family's large-scale workflow end to end: a
compact rule-based description expands into an RBM two orders of
magnitude larger, and the derived network is simulated as a perturbed
batch on the batched engine vs the sequential LSODA loop. This is the
autophagy/translation-switch pipeline shape (29 rules -> 6581
reactions -> PSA) on the Brusselator-style substitute workload.

The two engines run ``ROUNDS`` paired rounds, one batched run and one
LSODA loop back to back, alternating which goes first, so a slow spell
on the host hits both sides of a pair. The report gives the median
wall-clock of each side and the median of the per-round ratios,
batched over LSODA, with its interquartile range; the same numbers go
to ``benchmarks/out/BENCH_x2_rules_scale.json``.
"""

import numpy as np
import pytest

from repro.bench import format_table
from repro.core import SequentialSimulator, simulate
from repro.model import perturbed_batch
from repro.rules import multisite_cascade
from repro.solvers import SolverOptions

from common import write_bench_json, write_report

OPTIONS = SolverOptions(max_steps=100_000)
GRID = np.linspace(0.0, 3.0, 7)
ROUNDS = 5
ROWS = 64
#: Wall-clock cap of one LSODA loop, far above its ~0.3 s.
LSODA_BUDGET_SECONDS = 10.0

state = {}


@pytest.mark.parametrize("n_sites", [4, 6, 8])
def test_expansion_scale(benchmark, n_sites):
    rule_model = multisite_cascade(n_sites)

    def run():
        flat = rule_model.expand()
        state[f"expand-{n_sites}"] = (len(rule_model.rules),
                                      flat.n_species, flat.n_reactions)
        return flat

    flat = benchmark.pedantic(run, rounds=1, iterations=1)
    assert flat.n_species == 2 ** n_sites + 2


def test_paired_rounds(benchmark):
    model = multisite_cascade(7).expand()
    batch = perturbed_batch(model.nominal_parameterization(), ROWS,
                            np.random.default_rng(0))
    simulator = SequentialSimulator(model, OPTIONS, "lsoda")
    pairs = state.setdefault("pairs", [])

    def batched() -> float:
        result = simulate(model, (0.0, 3.0), GRID, batch, options=OPTIONS)
        assert result.all_success
        state["batched"] = result
        return result.elapsed_seconds

    def lsoda() -> float:
        result = simulator.simulate(
            (0.0, 3.0), GRID, batch,
            time_budget_seconds=LSODA_BUDGET_SECONDS)
        state["lsoda"] = result
        return result.elapsed_seconds

    def run():
        if len(pairs) % 2 == 0:
            batched_seconds = batched()
            lsoda_seconds = lsoda()
        else:
            lsoda_seconds = lsoda()
            batched_seconds = batched()
        pairs.append((batched_seconds, lsoda_seconds))

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)


def _summary() -> dict:
    batched, lsoda = np.array(state["pairs"]).T
    q1, median, q3 = np.percentile(batched / lsoda, [25, 50, 75])
    return {"batched_seconds": float(np.median(batched)),
            "lsoda_seconds": float(np.median(lsoda)),
            "batched_over_lsoda": float(median),
            "batched_over_lsoda_iqr": [float(q1), float(q3)],
            "steps_per_row": float(state["batched"].raw.n_steps.mean())}


def test_report(benchmark):
    summary = _summary()

    def render():
        lines = ["rule expansion growth:"]
        rows = []
        for n_sites in (4, 6, 8):
            rules, species, reactions = state[f"expand-{n_sites}"]
            rows.append((n_sites, rules, species, reactions))
        lines.append(format_table(
            ["sites", "rules", "species", "reactions"], rows))
        batched = state["batched"]
        lsoda = state["lsoda"]
        completed = sum(s == "success" for s in lsoda.statuses())
        lines.append("")
        lines.append(
            f"derived 7-site network ({2 ** 7 + 2} species, "
            f"{2 * 7 * 2 ** 6} reactions), {ROWS}-parameterization batch, "
            f"medians of {len(state['pairs'])} alternating pairs:")
        lines.append(f"  batched engine : {summary['batched_seconds']:.3f} s "
                     f"(all {batched.batch_size} succeeded, "
                     f"{summary['steps_per_row']:.0f} steps/row)")
        lines.append(f"  lsoda loop     : {summary['lsoda_seconds']:.3f} s, "
                     f"completed {completed}/{lsoda.batch_size}")
        q1, q3 = summary["batched_over_lsoda_iqr"]
        lines.append(f"  batched/lsoda  : {summary['batched_over_lsoda']:.2f}x "
                     f"(IQR {q1:.2f}-{q3:.2f}x)")
        lines.append("")
        lines.append(
            "note: this derived network is smooth and non-stiff, the "
            "regime where LSODA's high-order Adams steps are most "
            "efficient; the batched advantage grows with batch size and "
            "stiffness (see E1/E2).")
        return "\n".join(lines)

    text = benchmark.pedantic(render, rounds=1, iterations=1)
    write_report("x2_rules_scale", text)
    write_bench_json("x2_rules_scale", {
        "rows": ROWS,
        "rounds": len(state["pairs"]),
        "pairs_seconds": [list(pair) for pair in state["pairs"]],
        **summary,
    })
    # The derived network is exponentially larger than its rule set.
    rules, species, reactions = state["expand-8"]
    assert reactions / rules >= 100
    # Parity shape: the batched engine stays within a small factor of
    # the LSODA loop even in LSODA's best regime.
    assert summary["batched_seconds"] <= \
        3.0 * max(summary["lsoda_seconds"], 0.05)
