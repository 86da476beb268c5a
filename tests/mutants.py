"""Faults injected into the simulator's drift test, shared by the tests
that show the ledger and `verify` catch them. Each patches `abst.dynamic`
only: `abst.checks` imported `_drift_floor` and `_delta` by name, so its
ledger keeps the true drift test."""

from abst import dynamic
from abst.dynamic import StepRecord, init, run


def quarter_trigger(monkeypatch) -> None:
    """The simulator fires at a quarter of the observed frequency, not half."""
    monkeypatch.setattr(dynamic, "_drift_floor", lambda tw, s, total: 4 * tw * total // s + 1)


def zero_pseudo_count(monkeypatch) -> None:
    """Add-one smoothing served with raw counts: the pseudo-count is off by one."""
    monkeypatch.setattr(dynamic, "_delta", lambda smoothing: 0)


def skip_first_rebuild(monkeypatch, n: int, trace, smoothing: str) -> StepRecord:
    """Patch the simulator's drift floor so that a run of `trace` skips its
    first rebuild, and tests that key exactly again at its next request, as a
    drift test that swallowed its first firing would. Returns the record of
    the request that fires in a clean run."""
    clean = []
    run(init(n, 2, smoothing), trace, on_step=clean.append)
    first = next(rec for rec in clean if rec.rebuilt)
    delta = dynamic._delta(smoothing)
    true_floor = dynamic._drift_floor

    def floor(tree_weight, tree_total, total):
        if total == first.t + delta * n:
            return first.count + delta + 1
        return true_floor(tree_weight, tree_total, total)

    monkeypatch.setattr(dynamic, "_drift_floor", floor)
    return first


def late_floor_admission(monkeypatch) -> None:
    """The bulk path judges each key at its block's last total, which is too
    high, so a request that drifts earlier in the block is served in bulk
    and the rebuild comes late."""
    serve_prefix = dynamic._serve_safe_prefix
    true_floor = dynamic._drift_floor

    def late(state, block):
        last = state.t + len(block) + dynamic._delta(state.smoothing) * state.n
        dynamic._drift_floor = lambda tree_weight, tree_total, total: true_floor(
            tree_weight, tree_total, last
        )
        try:
            return serve_prefix(state, block)
        finally:
            dynamic._drift_floor = true_floor

    monkeypatch.setattr(dynamic, "_serve_safe_prefix", late)
