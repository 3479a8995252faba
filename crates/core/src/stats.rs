//! Simulation statistics.
//!
//! Cycle-accurate simulators exist to produce performance metrics — cycle
//! counts, CPI, utilization (paper, Section 1). The engine maintains a
//! [`Stats`] block with cheap counters; per-transition and per-place
//! breakdowns support the utilization reports.

use crate::ids::{PlaceId, TransitionId};

/// Counters maintained by [`crate::engine::Engine`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Simulated cycles executed.
    pub cycles: u64,
    /// Instruction tokens that reached an `end`-stage place.
    pub retired: u64,
    /// Instruction tokens created by sources.
    pub generated: u64,
    /// Instruction tokens created by `Fx::emit` (micro-ops).
    pub emitted: u64,
    /// Tokens removed by flushes (squashes).
    pub flushed: u64,
    /// Reservation tokens created.
    pub reservations: u64,
    /// Register reservations force-released at retire time (model leaks).
    pub leaked_reservations: u64,
    /// Guard evaluations that returned false.
    pub guard_fails: u64,
    /// Enabling attempts rejected for lack of destination capacity.
    pub capacity_blocks: u64,
    /// Ready instruction tokens that found no enabled transition this cycle.
    pub stalls: u64,
    /// Tokens committed from pending to live storage (two-list places).
    pub two_list_commits: u64,
    /// Fire count per transition.
    pub fires: Vec<u64>,
    /// Fire count per source.
    pub source_fires: Vec<u64>,
    /// Per-place stall counts (ready token, nothing fired).
    pub place_stalls: Vec<u64>,
    /// Per-place cumulative occupancy (token-cycles), for utilization.
    pub occupancy: Vec<u64>,
}

/// Host-side scheduler counters: how much per-cycle work the engine
/// actually performed versus skipped.
///
/// These are deliberately **not** part of [`Stats`]. `Stats` describes the
/// simulated machine and is bit-identical between the activity-driven
/// scheduler and the exhaustive-sweep oracle (that identity is the
/// correctness contract, enforced by the differential tests). `SchedStats`
/// describes the *host execution strategy* — the two schedulers do
/// different amounts of work by design, so these counters live in their
/// own block where they can differ freely. They are still deterministic
/// for a fixed engine configuration, so batch/sweep determinism checks may
/// include them.
///
/// They do not depend on how the cycles were driven. Under the activity
/// scheduler, [`crate::engine::Engine::run`] fast-forwards quiescent
/// cycles and counts each skipped cycle as the template cycle it repeats
/// (`DESIGN.md` §2a, "Quiescent cycles"), so every counter here equals a
/// cycle-by-cycle [`crate::engine::Engine::step`] run's. How many cycles
/// were skipped is [`crate::engine::Engine::fast_forwarded_cycles`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Places scanned for enabled transitions (one per processed place per
    /// cycle, or per fixpoint pass).
    pub place_visits: u64,
    /// Non-empty places skipped because no resident token becomes ready
    /// before the place's wake cycle. The exhaustive sweep would have
    /// scanned these; an all-zero value under the activity scheduler means
    /// the workload never goes quiescent.
    pub place_skips: u64,
    /// Tokens examined during place scans.
    pub token_visits: u64,
    /// Token examinations avoided by place skips (tokens resident in
    /// skipped places).
    pub token_visits_skipped: u64,
    /// Candidate-transition evaluations performed (enabling checks).
    pub trans_visits: u64,
    /// Dependent transitions of skipped places that were not reconsidered
    /// (from the compiled place→transitions reverse index; one count per
    /// dependent per skip).
    pub trans_visits_skipped: u64,
    /// Reservation-expiry scans performed.
    pub expiry_scans: u64,
    /// Reservation-expiry scans skipped because no reservation in the
    /// place can have expired yet.
    pub expiry_skips: u64,
    /// Guard evaluations dispatched through the micro-op IR interpreter
    /// (including fused ready/acquire checks). Together with
    /// `guard_hook_evals` this makes the dispatch refactor observable:
    /// an IR-lowered model shows its synthesized guards here instead of
    /// in the closure counter.
    pub guard_ir_evals: u64,
    /// Guard evaluations dispatched through `Box<dyn Fn>` closures (the
    /// hook path — user-supplied custom guards, or everything on a
    /// closure-lowered model).
    pub guard_hook_evals: u64,
    /// Firings that went through a fused `CheckReady`+`AcquireOperands`
    /// pair: the acquire latched operands from the sources the passing
    /// guard had just memoized instead of re-probing the scoreboard.
    pub actions_fused: u64,
    /// Firings dispatched through a compiled superblock: the (place,
    /// class)-indexed direct-threaded fast path instead of the generic
    /// candidate walk and per-op interpreters.
    pub superblocks_entered: u64,
    /// Micro-ops interpreted inside superblock firings (fused
    /// ready/acquire pairs count as two ops).
    pub ops_inlined: u64,
    /// Always 0. Cross-place chains, the dispatch tier that counted
    /// parked cursors here, were removed because they did not pay for
    /// themselves (`DESIGN.md` §2d); the field stays so the `rcpn-serve`
    /// wire codec, the sweep record and external readers of the
    /// counters keep their shape.
    pub chains_entered: u64,
    /// Always 0, for the same reason as `chains_entered`.
    pub chain_links_fired: u64,
}

impl SchedStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &SchedStats) {
        for (a, b) in self.counters_mut().into_iter().zip(other.clone().counters_mut()) {
            *a += *b;
        }
    }

    /// Every counter, in declaration order. Exhaustive destructuring, like
    /// [`Stats::merge`]: a new counter that is left out of the list (and
    /// so out of [`SchedStats::merge`] and the engine's fast-forward) is a
    /// compile error.
    pub(crate) fn counters_mut(&mut self) -> [&mut u64; 15] {
        let SchedStats {
            place_visits,
            place_skips,
            token_visits,
            token_visits_skipped,
            trans_visits,
            trans_visits_skipped,
            expiry_scans,
            expiry_skips,
            guard_ir_evals,
            guard_hook_evals,
            actions_fused,
            superblocks_entered,
            ops_inlined,
            chains_entered,
            chain_links_fired,
        } = self;
        [
            place_visits,
            place_skips,
            token_visits,
            token_visits_skipped,
            trans_visits,
            trans_visits_skipped,
            expiry_scans,
            expiry_skips,
            guard_ir_evals,
            guard_hook_evals,
            actions_fused,
            superblocks_entered,
            ops_inlined,
            chains_entered,
            chain_links_fired,
        ]
    }

    /// Total guard evaluations, independent of dispatch representation.
    pub fn guard_evals(&self) -> u64 {
        self.guard_ir_evals + self.guard_hook_evals
    }

    /// A copy with the dispatch-representation counters folded away:
    /// `guard_ir_evals` merged into `guard_hook_evals`, and
    /// `actions_fused`, `superblocks_entered` and `ops_inlined` zeroed.
    /// An IR-lowered model, its closure-lowered twin and the
    /// superblocks-off per-op oracle must agree on *this* view
    /// bit-for-bit (the oracle tests compare it); the raw counters differ
    /// by design — that difference is the refactor's observability.
    pub fn dispatch_normalized(&self) -> SchedStats {
        let mut s = self.clone();
        s.guard_hook_evals += s.guard_ir_evals;
        s.guard_ir_evals = 0;
        s.actions_fused = 0;
        s.superblocks_entered = 0;
        s.ops_inlined = 0;
        s
    }

    /// Fraction of place visits avoided: `skips / (visits + skips)`, or
    /// 0.0 before any cycle ran.
    pub fn place_skip_ratio(&self) -> f64 {
        let total = self.place_visits + self.place_skips;
        if total == 0 {
            0.0
        } else {
            self.place_skips as f64 / total as f64
        }
    }
}

/// The counters a template cycle can move, recorded as the engine's
/// template cycle begins so that the template's delta can be repeated once
/// per skipped cycle (`DESIGN.md` §2a, "Quiescent cycles").
///
/// The template follows a quiescent cycle and precedes the next event, so
/// it fires, commits, expires and generates nothing: it moves only the
/// cycle, stall, guard-failure and capacity-block counts, the per-place
/// stall and occupancy vectors, and [`SchedStats`].
#[derive(Debug, Default)]
pub(crate) struct TemplateMark {
    scalars: [u64; 4],
    sched: SchedStats,
    place_stalls: Vec<u64>,
    occupancy: Vec<u64>,
}

impl TemplateMark {
    pub(crate) fn record(&mut self, stats: &Stats, sched: &SchedStats) {
        self.scalars = [stats.cycles, stats.stalls, stats.guard_fails, stats.capacity_blocks];
        self.sched.clone_from(sched);
        self.place_stalls.clone_from(&stats.place_stalls);
        self.occupancy.clone_from(&stats.occupancy);
    }

    /// Adds `repeats` times each counter's movement since
    /// [`TemplateMark::record`] to it. Returns `false`, changing no
    /// counter, if one would overflow. Either way the mark is spent.
    pub(crate) fn repeat(
        &mut self,
        stats: &mut Stats,
        sched: &mut SchedStats,
        repeats: u64,
    ) -> bool {
        /// Turns each mark into its counter's delta; returns whether
        /// `repeats` more of every delta fit.
        fn to_deltas<'a>(
            pairs: impl Iterator<Item = (&'a mut u64, &'a mut u64)>,
            repeats: u64,
        ) -> bool {
            let mut fits = true;
            for (now, mark) in pairs {
                *mark = *now - *mark;
                fits &= mark.checked_mul(repeats).and_then(|d| now.checked_add(d)).is_some();
            }
            fits
        }
        fn add<'a>(pairs: impl Iterator<Item = (&'a mut u64, &'a mut u64)>, repeats: u64) {
            for (now, delta) in pairs {
                *now += *delta * repeats;
            }
        }
        let mut scalars = [
            &mut stats.cycles,
            &mut stats.stalls,
            &mut stats.guard_fails,
            &mut stats.capacity_blocks,
        ];
        let mut sched_now = sched.counters_mut();
        let mut sched_mark = self.sched.counters_mut();
        let fits = to_deltas(scalars.iter_mut().map(|c| &mut **c).zip(&mut self.scalars), repeats)
            & to_deltas(
                sched_now.iter_mut().map(|c| &mut **c).zip(sched_mark.iter_mut().map(|c| &mut **c)),
                repeats,
            )
            & to_deltas(stats.place_stalls.iter_mut().zip(&mut self.place_stalls), repeats)
            & to_deltas(stats.occupancy.iter_mut().zip(&mut self.occupancy), repeats);
        if fits {
            add(scalars.into_iter().zip(&mut self.scalars), repeats);
            add(sched_now.into_iter().zip(sched_mark), repeats);
            add(stats.place_stalls.iter_mut().zip(&mut self.place_stalls), repeats);
            add(stats.occupancy.iter_mut().zip(&mut self.occupancy), repeats);
        }
        fits
    }
}

impl Stats {
    pub(crate) fn new(n_transitions: usize, n_sources: usize, n_places: usize) -> Self {
        Stats {
            fires: vec![0; n_transitions],
            source_fires: vec![0; n_sources],
            place_stalls: vec![0; n_places],
            occupancy: vec![0; n_places],
            ..Default::default()
        }
    }

    /// Accumulates `other` into `self`, summing every counter and
    /// element-wise summing the per-entity vectors (shorter vectors are
    /// padded, so stats from differently sized models can be aggregated).
    ///
    /// Used by [`crate::batch::merge_stats`] to aggregate per-job results;
    /// fold in job order to keep aggregates bit-reproducible.
    pub fn merge(&mut self, other: &Stats) {
        // Exhaustive destructuring (no `..`): adding a Stats field without
        // merging it must be a compile error, not a silently-dropped
        // counter in every batch aggregate.
        let Stats {
            cycles,
            retired,
            generated,
            emitted,
            flushed,
            reservations,
            leaked_reservations,
            guard_fails,
            capacity_blocks,
            stalls,
            two_list_commits,
            fires,
            source_fires,
            place_stalls,
            occupancy,
        } = other;
        self.cycles += cycles;
        self.retired += retired;
        self.generated += generated;
        self.emitted += emitted;
        self.flushed += flushed;
        self.reservations += reservations;
        self.leaked_reservations += leaked_reservations;
        self.guard_fails += guard_fails;
        self.capacity_blocks += capacity_blocks;
        self.stalls += stalls;
        self.two_list_commits += two_list_commits;
        fn add_vec(into: &mut Vec<u64>, from: &[u64]) {
            if into.len() < from.len() {
                into.resize(from.len(), 0);
            }
            for (a, b) in into.iter_mut().zip(from) {
                *a += b;
            }
        }
        add_vec(&mut self.fires, fires);
        add_vec(&mut self.source_fires, source_fires);
        add_vec(&mut self.place_stalls, place_stalls);
        add_vec(&mut self.occupancy, occupancy);
    }

    /// Cycles per instruction.
    ///
    /// Returns `None` until at least one instruction has retired.
    pub fn cpi(&self) -> Option<f64> {
        if self.retired == 0 {
            None
        } else {
            Some(self.cycles as f64 / self.retired as f64)
        }
    }

    /// Instructions per cycle.
    ///
    /// Returns `None` until at least one cycle has executed.
    pub fn ipc(&self) -> Option<f64> {
        if self.cycles == 0 {
            None
        } else {
            Some(self.retired as f64 / self.cycles as f64)
        }
    }

    /// Fire count of one transition.
    pub fn fires_of(&self, t: TransitionId) -> u64 {
        self.fires[t.index()]
    }

    /// Stall count of one place.
    pub fn stalls_of(&self, p: PlaceId) -> u64 {
        self.place_stalls[p.index()]
    }

    /// Mean occupancy of one place (tokens per cycle).
    pub fn mean_occupancy(&self, p: PlaceId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.occupancy[p.index()] as f64 / self.cycles as f64
        }
    }

    /// A compact human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "cycles={} retired={} cpi={} generated={} emitted={} flushed={} stalls={}",
            self.cycles,
            self.retired,
            self.cpi().map_or_else(|| "n/a".to_string(), |c| format!("{c:.3}")),
            self.generated,
            self.emitted,
            self.flushed,
            self.stalls,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_and_ipc() {
        let mut s = Stats::new(2, 1, 3);
        assert_eq!(s.cpi(), None);
        assert_eq!(s.ipc(), None);
        s.cycles = 100;
        s.retired = 50;
        assert_eq!(s.cpi(), Some(2.0));
        assert_eq!(s.ipc(), Some(0.5));
    }

    #[test]
    fn summary_mentions_key_counters() {
        let mut s = Stats::new(0, 0, 0);
        s.cycles = 7;
        let txt = s.summary();
        assert!(txt.contains("cycles=7"));
        assert!(txt.contains("cpi=n/a"));
    }

    #[test]
    fn occupancy_mean() {
        let mut s = Stats::new(0, 0, 2);
        s.cycles = 10;
        s.occupancy[1] = 25;
        assert_eq!(s.mean_occupancy(PlaceId::from_index(1)), 2.5);
        assert_eq!(s.mean_occupancy(PlaceId::from_index(0)), 0.0);
    }
}
