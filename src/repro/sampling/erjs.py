"""eRJS: FlexiWalker's enhanced rejection sampling kernel (Section 3.3).

The baseline rejection kernel must compute *every* transition weight just to
find the maximum that bounds the proposal's ``y`` axis.  eRJS replaces the
exact maximum with a **theoretical upper bound computed on the fly** from the
workload's structure (``max(w) · max(h)``, where ``max(h)`` comes from a
per-node preprocessing pass and ``max(w)`` from the workload's branch
analysis — both produced by Flexi-Compiler).  Sections 3.3's proof shows the
accepted node's distribution is *identical* for any constant ``c`` that upper
bounds the weights: only the acceptance rate (``Σ w̃ / (degree · c)``)
changes, so a looser bound costs extra trials, never correctness.

When no bound hint is available (the compiler fell back, or the user opted
out) the kernel degrades gracefully to the baseline max-reduction path.

On the host, the batched kernel reads only the weights its trials probe
whenever the workload's weights are node-only (a transition cache is
attached): the widening maximum comes from the cache's per-node maximum,
each trial reads one cached weight and evaluates its random numbers only
when the walker reaches it, and the chosen neighbour is read straight from
the CSR.  Nothing is flattened per candidate edge, so host work follows
the modeled ``O(trials)`` rather than ``O(Σ degree)``.  State-dependent
workloads (Node2Vec) still evaluate every candidate's weight, which the
widening rule needs until the bound is proven sound.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import Sampler, StepContext, gather_transition_weights
from repro.sampling.batch import BatchStepContext, segment_max
from repro.sampling.rejection import flat_probe, run_rejection_trials, run_rejection_trials_batch


class EnhancedRejectionSampler(Sampler):
    """eRJS: rejection sampling against an estimated upper bound."""

    name = "eRJS"
    processing_unit = "thread"

    def __init__(
        self,
        use_estimated_bound: bool = True,
        max_trial_factor: int = 16,
        min_trials: int = 64,
    ) -> None:
        self.use_estimated_bound = bool(use_estimated_bound)
        self.max_trial_factor = int(max_trial_factor)
        self.min_trials = int(min_trials)

    def sample(self, ctx: StepContext) -> int | None:
        if not self._check_nonempty(ctx):
            return None
        degree = ctx.degree

        # The trial loop needs the true weight of each probed candidate; the
        # Python implementation materialises the vector once for speed, but
        # only the per-trial accesses are charged to the counters (on the GPU
        # each trial reads exactly one candidate's data).
        weights = ctx.spec.transition_weights(ctx.graph, ctx.state)

        bound: float | None = None
        if self.use_estimated_bound and ctx.bound_hint is not None and ctx.bound_hint > 0:
            # Estimating the bound touches one preprocessed value per indexed
            # array plus a handful of arithmetic — Fig. 5b.
            bound = float(ctx.bound_hint)
            ctx.counters.random_accesses += 1
            ctx.counters.weight_computations += 1
        else:
            # Fallback: exact maximum via a full scan + max reduction, i.e.
            # the baseline behaviour (Fig. 5a).
            gathered = gather_transition_weights(ctx)
            bound = ctx.warp().reduce_max(gathered)

        if bound <= 0.0:
            return None
        # A bound below the true maximum would clip the distribution; since
        # correctness is non-negotiable (the paper's proof assumes c >= max),
        # widen the bound if the hint was violated.  This can only happen
        # with a user-supplied helper that is not a true upper bound.
        true_max = float(weights.max()) if weights.size else 0.0
        if true_max > bound:
            bound = true_max

        max_trials = max(self.min_trials, self.max_trial_factor * degree)
        choice, _ = run_rejection_trials(ctx, weights, bound, max_trials)
        if choice is None:
            # Either every weight is zero (dead end) or the trial budget was
            # exhausted because the bound is far from the actual weights; in
            # the latter case finish with a direct inversion so the walk
            # still advances from the correct distribution (and charge the
            # full scan that requires).
            total = float(weights.sum())
            if total <= 0.0:
                return None
            ctx.counters.coalesced_accesses += degree
            ctx.counters.weight_computations += degree
            cdf = ctx.warp().prefix_sum(weights)
            u = ctx.rng.uniform()
            ctx.counters.rng_draws += 1
            choice = min(int(np.searchsorted(cdf, u * total, side="right")), degree - 1)
        return int(ctx.neighbors()[choice])

    # ------------------------------------------------------------------ #
    def _sample_batch_nonempty(self, batch: BatchStepContext, out: np.ndarray) -> np.ndarray:
        """Frontier-wide eRJS: hinted bounds where available, scans elsewhere.

        Walkers with a usable compiler bound pay one uncoalesced hint read;
        the rest fall back to the scan + max-reduction path — per walker,
        exactly the branch the scalar kernel would have taken, with the same
        trial draws and the same charges.  With a transition cache attached,
        the scan is charged but not performed: its result is the cached
        per-node maximum, which is also the widening maximum.
        """
        degrees = batch.degrees
        cache = batch.transition_cache
        if cache is not None:
            true_max = cache.node_max(batch.current)
            edge_start = batch.edge_start

            def probe(walkers: np.ndarray, xs: np.ndarray) -> np.ndarray:
                return cache.edge_weights(edge_start[walkers] + xs)
        else:
            weights = batch.transition_weights()
            true_max = segment_max(weights, degrees)
            probe = flat_probe(batch, weights)

        hinted = np.zeros(batch.size, dtype=bool)
        if self.use_estimated_bound and batch.bound_hints is not None:
            hints = batch.bound_hints
            hinted = ~np.isnan(hints) & (hints > 0)
        bounds = np.empty(batch.size, dtype=np.float64)
        hint_idx = np.nonzero(hinted)[0]
        if hint_idx.size:
            # Estimating the bound touches one preprocessed value plus a bit
            # of arithmetic (Fig. 5b).
            bounds[hint_idx] = batch.bound_hints[hint_idx]
            batch.charge("random_accesses", 1, hint_idx)
            batch.charge("weight_computations", 1, hint_idx)
        scan_idx = np.nonzero(~hinted)[0]
        if scan_idx.size:
            # Fallback: exact maximum via a full scan + max reduction (Fig. 5a).
            batch.charge_gather(idx=scan_idx)
            batch.charge("reduction_elements", degrees[scan_idx], scan_idx)
            bounds[scan_idx] = true_max[scan_idx]

        alive = np.nonzero(bounds > 0)[0]
        if alive.size == 0:
            return out
        # Widen hint-violating bounds so correctness never depends on the
        # helper really being an upper bound (same rule as the scalar path).
        bounds = np.maximum(bounds, true_max)

        max_trials = np.maximum(self.min_trials, self.max_trial_factor * degrees)
        choice = np.full(batch.size, -1, dtype=np.int64)
        choice[alive] = run_rejection_trials_batch(
            batch, alive, probe, bounds[alive], max_trials[alive], lazy=cache is not None
        )
        for i in alive[choice[alive] < 0]:
            degree = int(degrees[i])
            wslice = probe(np.full(degree, i), np.arange(degree))
            total = float(wslice.sum())
            if total <= 0.0:
                continue
            only = np.array([i])
            batch.charge("coalesced_accesses", degree, only)
            batch.charge("weight_computations", degree, only)
            cdf = np.cumsum(wslice)
            batch.charge("prefix_sum_elements", degree, only)
            u = batch.stream(i).uniform()
            batch.charge("rng_draws", 1, only)
            choice[i] = min(int(np.searchsorted(cdf, u * total, side="right")), degree - 1)
        picked = np.nonzero(choice >= 0)[0]
        out[picked] = batch.graph.indices[batch.edge_start[picked] + choice[picked]]
        return out
