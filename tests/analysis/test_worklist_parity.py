"""The worklist fixpoint of `TaintEngine.run` against the round loop it
replaced.

The round loop forgot every summary and re-analysed every function in
each round, stopping after a round that added no event and changed no
global label.  The worklist re-analyses only stale roots; it must give
the same ordered event log, global labels (in insertion order) and
parameter set on every subject system's main run and mapping pre-pass,
and on seeded generated programs with seeds on globals and parameters.
"""

import random
import sys
from pathlib import Path

import pytest

from repro.analysis import AnalysisResult, GlobalSeed, ParamSeed, TaintEngine
from repro.analysis.engine import MAX_ROUNDS
from repro.core import SpexEngine
from repro.ir import build_ir
from repro.lang.program import Program
from repro.systems.registry import get_system, system_names

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "runtime"))
from test_engine_fuzz import ProgramGenerator  # noqa: E402

N_PROGRAMS = 50


def round_loop(engine: TaintEngine) -> AnalysisResult:
    """The fixpoint before the worklist, driving the same per-function
    analysis: every round starts from no summaries and analyses every
    function once."""
    for seed in engine.global_seeds:
        loc = ("global", seed.var, seed.path)
        engine.global_labels.setdefault(loc, {})[seed.param] = 0
    for _round in range(MAX_ROUNDS):
        engine.summaries = {}
        before_events = len(engine.events)
        before_globals = {k: dict(v) for k, v in engine.global_labels.items()}
        for fn in engine.module.functions.values():
            engine._analyse_root(fn, engine._root_assignment(fn))
        if len(engine.events) == before_events and (
            before_globals == engine.global_labels
        ):
            break
    return AnalysisResult(
        module=engine.module,
        events=engine.events,
        global_labels=engine.global_labels,
        parameters=set(engine.parameters),
    )


def twin(engine: TaintEngine) -> TaintEngine:
    """A fresh engine over the same inputs."""
    return TaintEngine(
        engine.module,
        engine.global_seeds + engine.param_seeds,
        list(engine.getters.values()),
        knowledge=engine.knowledge,
    )


def assert_same(worklist: AnalysisResult, reference: AnalysisResult) -> None:
    assert list(worklist.events.events) == list(reference.events.events)
    assert list(worklist.global_labels.items()) == list(
        reference.global_labels.items()
    )
    assert worklist.parameters == reference.parameters


@pytest.mark.parametrize("name", system_names())
def test_system_runs_match_round_loop(name, monkeypatch):
    """The main run and every mapping pre-pass of one system."""
    runs = []
    worklist_run = TaintEngine.run

    def recording_run(engine):
        reference = twin(engine)
        result = worklist_run(engine)
        runs.append((engine, result, reference))
        return result

    monkeypatch.setattr(TaintEngine, "run", recording_run)
    system = get_system(name)
    SpexEngine(system.program(), system.annotations).run()
    monkeypatch.undo()

    assert len(runs) >= 2  # at least one pre-pass and the main run
    for engine, result, reference in runs:
        assert_same(result, round_loop(reference))
        assert engine.analyses <= reference.analyses


# One program per dependency a skipped root could miss; each fails the
# parity check when the worklist ignores that dependency.
CRAFTED = {
    # `early` passes &g while g.f has no label; a later root labels it
    # (a subtree read through `labels_under`).
    "label-subtree": ("""
        struct cfg { int f; };
        struct cfg g;
        int use(struct cfg *c) { if (c->f > 3) { return 1; } return 0; }
        int early() { return use(&g); }
        int late(int v) { g.f = v; return 0; }
    """, [ParamSeed("P", "late", "v")]),
    # `early` dereferences gp before a later root points it at x.
    "pointer-targets": ("""
        int x;
        int *gp;
        int early() { int v = *gp; if (v > 3) { return 1; } return 0; }
        int late() { gp = &x; return 0; }
        int other() { if (x > 1) { return 1; } return 0; }
    """, [GlobalSeed("X", "x")]),
    # `b_second` reuses the summary `a_first` computed; g changes, so
    # `a_first` recomputes it.
    "reused-summary": ("""
        int g;
        int helper() { return g; }
        int a_first() { return helper(); }
        int b_second() { int v = helper(); if (v > 2) { return 1; } return 0; }
        int z_late(int p) { g = p; return 0; }
    """, [ParamSeed("P", "z_late", "p")]),
    # `r_k` computed f's summary; once gz carries Q, `r_j` computes the
    # same key first, inside h's recursion, and r_k must take that one.
    "computed-summary": ("""
        int g0;
        int gz;
        int h(int n);
        int f(int m) { return m + h(m); }
        int h(int n) { return g0 + f(n); }
        int r_j() { return h(gz); }
        int r_k(int y) { int t = y; int v = f(t); if (v > 1) { return 1; } return 0; }
        int z_late(int q) { gz = q; return 0; }
    """, [
        GlobalSeed("G", "g0"),
        ParamSeed("Q", "r_k", "y"),
        ParamSeed("Q", "z_late", "q"),
    ]),
}


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_crafted_dependencies_match_round_loop(name):
    source, seeds = CRAFTED[name]
    module = build_ir(Program.from_sources({"t.c": source}))
    engine = TaintEngine(module, seeds)
    reference = twin(engine)
    assert_same(engine.run(), round_loop(reference))
    assert engine.passes == 3  # a selective pass, then the confirming one
    assert engine.analyses < reference.analyses


def generated_seeds(module, seed: int) -> list:
    """Seeded globals (scalars, the option table, its rows' fields)
    and parameters of the generated helpers and `setopt`."""
    rng = random.Random(f"taint:{seed}")
    candidates = [
        GlobalSeed("p_g0", "g0"),
        GlobalSeed("p_g1", "g1"),
        GlobalSeed("p_g2", "g2"),
        GlobalSeed("p_garr", "garr"),
        GlobalSeed("p_opts", "opts", ("lo",)),
        GlobalSeed("p_tab", "tab", ("k",)),
        ParamSeed("p_key", "setopt", "key"),
        ParamSeed("p_v", "setopt", "v"),
    ]
    for fn in module.functions.values():
        if fn.name.startswith("f"):
            candidates += [ParamSeed(f"p_{fn.name}_{p.name}", fn.name, p.name)
                           for p in fn.params]
    return rng.sample(candidates, rng.randint(2, min(6, len(candidates))))


def test_generated_programs_match_round_loop():
    worklist_analyses = reference_analyses = multi_pass = 0
    for seed in range(N_PROGRAMS):
        source = ProgramGenerator(seed).program().source()
        module = build_ir(Program.from_sources({f"fuzz{seed}.c": source}))
        seeds = generated_seeds(module, seed)
        engine = TaintEngine(module, seeds)
        reference = twin(engine)
        assert_same(engine.run(), round_loop(reference))
        worklist_analyses += engine.analyses
        reference_analyses += reference.analyses
        multi_pass += engine.passes > 2
    # The corpus exercises the selective passes, not only the first.
    assert multi_pass > 0
    assert worklist_analyses < reference_analyses
