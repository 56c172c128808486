"""Baseline rejection sampling (RJS), the strategy of NextDoor.

Each trial draws a 2-D coordinate ``(x, y)``: ``x`` picks a candidate
neighbour uniformly and the candidate is accepted when ``y`` — drawn from
``[0, max w̃]`` — falls under its transition weight (Fig. 2d).  The baseline
pays for a **max reduction over every transition weight** before it can start
drawing, which for dynamic walks means computing every weight anyway; this is
exactly the cost eRJS removes.

The trial loop itself is shared by RJS and both eRJS paths
(:func:`run_rejection_trials_batch`).  It reads weights only through a probe
callable, one probed candidate per trial.  For a probe-only kernel (eRJS on
a cache-served workload, which reads nothing but the probed weights) it
also evaluates a trial's two random numbers only once the walker is about
to reach that trial, in growing spans of trials; the counters of a whole
trial block are still reserved per round, so every stream advances exactly
as the scalar loop advances it.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

import numpy as np

from repro.sampling.base import Sampler, StepContext, gather_transition_weights
from repro.sampling.batch import (
    BatchStepContext,
    local_positions,
    segment_first_true,
    segment_ids,
    segment_max,
    segment_offsets,
)

#: ``probe(walkers, xs) -> weights``: the transition weight of candidate
#: ``xs[k]`` of batch-local walker ``walkers[k]``.
Probe = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Size of the vectorised trial batches drawn at once (purely an
#: implementation detail; the trial count recorded in the counters is exact).
_TRIAL_BATCH = 16

#: Trial positions the batched loop evaluates together, as span boundaries.
#: A lazy first round goes span by span, so a walker that accepts at trial
#: ``j`` evaluates at most about ``2j`` trials' draws and weights instead of
#: the whole block; a walker still undecided after a full block has a low
#: acceptance rate, and its later rounds evaluate each block in one span.
#: Each span is one numpy pass over the undecided walkers, so a kernel that
#: already materialised every candidate's weight evaluates whole blocks:
#: there the extra passes cost more than the draws they save (low-acceptance
#: MetaPath steps in ``scripts/bench_engine.py``).
_LAZY_FIRST_ROUND_SPANS = (0, 1, 2, 4, 8, _TRIAL_BATCH)
_BLOCK_SPANS = (0, _TRIAL_BATCH)


def run_rejection_trials(
    ctx: StepContext,
    weights: np.ndarray,
    bound: float,
    max_trials: int,
) -> tuple[int | None, int]:
    """Run accept/reject trials against ``weights`` with proposal bound ``bound``.

    Returns ``(accepted index or None, number of trials performed)``.  The
    per-trial cost — two random numbers, one uncoalesced weight access, one
    dynamic-weight evaluation plus whatever side data that evaluation touches
    (``spec.probe_cost_words``, e.g. the dist(v', u) membership probe of
    second-order workloads) — is accounted here so both the baseline kernel
    and eRJS share the exact same trial pricing.
    """
    degree = int(weights.size)
    if degree == 0 or bound <= 0.0:
        return None, 0
    probe_words = 1 + ctx.spec.probe_cost_words(ctx.graph, ctx.state)
    trials_done = 0
    while trials_done < max_trials:
        batch = min(_TRIAL_BATCH, max_trials - trials_done)
        xs = ctx.rng.integers(0, degree, size=batch)
        ys = np.asarray(ctx.rng.uniform(batch)) * bound
        accepted = np.nonzero(ys <= weights[xs])[0]
        if accepted.size:
            used = int(accepted[0]) + 1
            trials_done += used
            ctx.counters.rng_draws += 2 * used
            ctx.counters.random_accesses += probe_words * used
            ctx.counters.weight_computations += used
            ctx.counters.rejection_trials += used
            return int(xs[accepted[0]]), trials_done
        trials_done += batch
        ctx.counters.rng_draws += 2 * batch
        ctx.counters.random_accesses += probe_words * batch
        ctx.counters.weight_computations += batch
        ctx.counters.rejection_trials += batch
    return None, trials_done


def flat_probe(batch: BatchStepContext, weights_flat: np.ndarray) -> Probe:
    """A trial probe reading the batch's flattened transition weights."""
    offsets = batch.offsets

    def probe(walkers: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return weights_flat[offsets[walkers] + xs]

    return probe


def run_rejection_trials_batch(
    batch: BatchStepContext,
    idx: np.ndarray,
    probe: Probe,
    bounds: np.ndarray,
    max_trials: np.ndarray,
    lazy: bool = False,
) -> np.ndarray:
    """Accept/reject trials for many walkers at once.

    The batched twin of :func:`run_rejection_trials`.  Per round every still
    undecided walker reserves one block of ``2·b`` counters on its own
    stream — ``b`` candidate uniforms, then ``b`` acceptance uniforms, the
    scalar loop's consumption order — so stream counters and draw tallies
    advance exactly as the scalar loop's.  The trials of the block then run
    span by span across the walkers still undecided: a span evaluates
    Philox only at its trials' candidate and acceptance positions and reads
    only the probed candidates' weights.  A walker that accepts at trial
    ``j`` evaluates nothing past the span holding ``j``.

    Parameters
    ----------
    idx:
        Batch-local indices of the participating walkers.
    probe:
        ``probe(walkers, xs)`` returns the transition weight of candidate
        ``xs[k]`` (a position in the neighbour list) of batch-local walker
        ``walkers[k]`` — a flat-array gather (:func:`flat_probe`) or a
        transition-cache read.
    bounds / max_trials:
        Per-walker proposal bounds and trial budgets, parallel to ``idx``.
    lazy:
        Run the first round in growing spans (:data:`_LAZY_FIRST_ROUND_SPANS`)
        rather than as one block.  For probe-only kernels, whose host work
        is otherwise just these draws.

    Returns the accepted candidate index *within each walker's neighbour
    list* (``-1`` when the budget was exhausted), charging exactly the trial
    costs the scalar helper charges.
    """
    choice = np.full(idx.size, -1, dtype=np.int64)
    if idx.size == 0:
        return choice
    degrees = batch.degrees[idx]
    probe_words = 1 + batch.spec.probe_cost_words_batch(batch.graph, batch)[idx]
    streams = batch.rng.subset(idx)
    done = np.zeros(idx.size, dtype=np.int64)
    active = np.nonzero((degrees > 0) & (bounds > 0))[0]
    spans = _LAZY_FIRST_ROUND_SPANS if lazy else _BLOCK_SPANS
    while active.size:
        block = np.minimum(_TRIAL_BATCH, max_trials[active] - done[active])
        runnable = block > 0
        active = active[runnable]
        block = block[runnable]
        if active.size == 0:
            break
        starts = streams.subset(active).reserve(2 * block)
        used = block.copy()
        accepted = np.zeros(active.size, dtype=bool)
        # Rows of the round (positions into ``active``) still undecided.
        pending = np.arange(active.size, dtype=np.int64)
        for lo, hi in itertools.pairwise(spans):
            pending = pending[block[pending] > lo]
            if pending.size == 0:
                break
            # Trials lo..hi-1 of every pending walker, flattened per walker.
            width = np.minimum(block[pending], hi) - lo
            at = pending[segment_ids(width)]
            trial = lo + local_positions(width)
            rows = active[at]
            u_x = streams.uniform_at(starts[at], trial, rows)
            u_y = streams.uniform_at(starts[at], block[at] + trial, rows)
            xs = np.floor(u_x * degrees[rows]).astype(np.int64)
            hit = u_y * bounds[rows] <= probe(idx[rows], xs)
            any_hit, first = segment_first_true(hit, width)
            won = pending[any_hit]
            choice[active[won]] = xs[segment_offsets(width)[:-1][any_hit] + first[any_hit]]
            used[won] = lo + first[any_hit] + 1
            accepted[won] = True
            pending = pending[~any_hit]
        spans = _BLOCK_SPANS

        slots = idx[active]
        batch.charge("rng_draws", 2 * used, slots)
        batch.charge("random_accesses", probe_words[active] * used, slots)
        batch.charge("weight_computations", used, slots)
        batch.charge("rejection_trials", used, slots)
        done[active] += used
        active = active[~accepted]
    return choice


class RejectionSampler(Sampler):
    """Max-reduce + accept/reject trials (NextDoor's strategy, Fig. 2d)."""

    name = "RJS"
    processing_unit = "thread"

    def __init__(self, max_trial_factor: int = 16, min_trials: int = 64) -> None:
        self.max_trial_factor = int(max_trial_factor)
        self.min_trials = int(min_trials)

    def sample(self, ctx: StepContext) -> int | None:
        if not self._check_nonempty(ctx):
            return None
        # The baseline must compute every transition weight to find the max.
        # Rejection-sampling kernels are thread-per-walker (Section 5.2), so
        # this scan is a serial, uncoalesced sweep — the "heavy weight max
        # reduction" the paper blames for NextDoor's weighted-workload
        # collapse and that eRJS's bound estimation removes.
        weights = gather_transition_weights(ctx, coalesced=False)
        degree = weights.size
        warp = ctx.warp()
        bound = warp.reduce_max(weights)
        if bound <= 0.0:
            return None

        max_trials = max(self.min_trials, self.max_trial_factor * degree)
        choice, _ = run_rejection_trials(ctx, weights, bound, max_trials)
        if choice is None:
            # Extremely unlucky trial budget exhaustion: finish the step with
            # a direct inversion over the already-computed weights so the
            # walk still advances from the correct distribution.
            total = float(weights.sum())
            if total <= 0.0:
                return None
            cdf = warp.prefix_sum(weights)
            u = ctx.rng.uniform()
            ctx.counters.rng_draws += 1
            choice = min(int(np.searchsorted(cdf, u * total)), degree - 1)
        return int(ctx.neighbors()[choice])

    # ------------------------------------------------------------------ #
    def _sample_batch_nonempty(self, batch: BatchStepContext, out: np.ndarray) -> np.ndarray:
        """Frontier-wide baseline RJS: vectorised max reduction + trials."""
        degrees = batch.degrees
        weights = batch.gather_weights(coalesced=False)
        bounds = segment_max(weights, degrees)
        batch.charge("reduction_elements", degrees)
        alive = np.nonzero(bounds > 0)[0]
        if alive.size == 0:
            return out

        max_trials = np.maximum(self.min_trials, self.max_trial_factor * degrees)
        choice = np.full(batch.size, -1, dtype=np.int64)
        choice[alive] = run_rejection_trials_batch(
            batch, alive, flat_probe(batch, weights), bounds[alive], max_trials[alive]
        )
        # Trial-budget exhaustion: finish with a direct inversion per walker,
        # replaying the scalar fallback on the same weight slice and stream.
        for i in alive[choice[alive] < 0]:
            lo, hi = int(batch.offsets[i]), int(batch.offsets[i + 1])
            wslice = weights[lo:hi]
            total = float(wslice.sum())
            if total <= 0.0:
                continue
            degree = hi - lo
            cdf = np.cumsum(wslice)
            batch.charge("prefix_sum_elements", degree, np.array([i]))
            u = batch.stream(i).uniform()
            batch.charge("rng_draws", 1, np.array([i]))
            choice[i] = min(int(np.searchsorted(cdf, u * total)), degree - 1)
        picked = np.nonzero(choice >= 0)[0]
        out[picked] = batch.graph.indices[batch.edge_start[picked] + choice[picked]]
        return out
