//! The cycle-accurate simulation engine (paper, Section 4).
//!
//! The engine executes a compiled model one clock cycle at a time. The
//! main loop mirrors Figure 8 of the paper:
//!
//! ```text
//! CalculateSortedTransitions();            // done at Model::build time
//! P = places in reverse topological order; // baked into the ExecPlan
//! while program not finished
//!     foreach two-list place p: mark written tokens available for read;
//!     foreach place p in P: Process(p);
//!     execute the instruction-independent sub-net (sources);
//!     increment cycle count;
//! ```
//!
//! `Process(p)` (Figure 7) walks the instruction tokens resident in `p`
//! and, for each, tries the statically sorted transition list of the
//! token's operation class; the first enabled transition fires and the
//! token moves on.
//!
//! The pipeline is split into an explicit **model → compile → run**
//! sequence: [`crate::compiled::CompiledModel`] partially evaluates a
//! [`Model`] into flat hot tables (the compile step, playing the role of
//! the paper's simulator *generation*), and `Engine` is the run step —
//! pure mutable state (token pool, place lists, statistics) over the
//! shared read-only plan. [`Engine::new`] compiles and instantiates in
//! one call for convenience; use [`crate::compiled::CompiledModel`]
//! directly to build once and instantiate many times.
//!
//! ## Activity-driven scheduling
//!
//! The `foreach place p in P` of Figure 8 is exhaustive: it visits every
//! place every cycle even when most of the pipeline is quiescent (drained
//! bubbles, tokens parked on multi-cycle latencies). The default
//! [`SchedulerMode::ActivityDriven`] scheduler makes that sweep sparse
//! with a dirty-place worklist built on three per-place facts maintained
//! incrementally by every token movement:
//!
//! * `n_instr[p]` — live instruction tokens resident in `p`;
//! * `wake[p]` — a lower bound on the earliest cycle at which any token in
//!   `p` can enable a transition (min token `ready_at`; a token that was
//!   ready but found no enabled transition re-arms `wake` to the next
//!   cycle, because capacity, guards, or join inputs may change);
//! * `res_wake[p]` — the earliest reservation expiry in `p`.
//!
//! A place is processed in a cycle only when `n_instr[p] > 0` and
//! `wake[p]` has arrived; latch commits walk a dirty list of two-list
//! places with pending tokens, and reservation expiry walks only places
//! whose earliest expiry has arrived. Skipped work is *provably* a no-op:
//! a place is skipped only when every resident instruction token is still
//! delayed, which is exactly the case where the exhaustive sweep scans it
//! and does nothing — so retirement streams, traces, and [`Stats`] are
//! bit-identical between the two schedulers (the differential property
//! tests enforce this). Firing a transition re-dirties its output places
//! through the token insertion itself, which preserves the paper's
//! fixed-point semantics under `two_list_everywhere`. The amount of work
//! skipped is observable through [`SchedStats`] (see [`Engine::sched`]),
//! quantified against the compiled place→transitions reverse index.
//!
//! [`SchedulerMode::Exhaustive`] keeps the verbatim Figure 8 sweep as the
//! differential-testing oracle (and as the honest ablation baseline).
//!
//! Three optimizations from the paper are implemented and individually
//! switchable through [`EngineConfig`] so their contribution can be
//! measured (see the `ablations` bench):
//!
//! * [`TableMode::PerPlaceClass`] — the `sorted_transitions[p, IType]`
//!   table; alternatives re-introduce the search cost the paper eliminates.
//! * Reverse-topological evaluation with two-list storage only on feedback
//!   places; [`EngineConfig::two_list_everywhere`] instead runs the generic
//!   two-storage fixpoint scheme for every place, like a naive synchronous
//!   Petri-net simulator.
//!
//! Each `EngineConfig` selects a compiled *variant*: only the lookup
//! table the variant needs is materialized in its plan.

use std::sync::Arc;

use crate::compiled::{ActionCode, CompiledModel, ExecPlan, GuardCode, HotTrans, Lookup, SbBlock};
use crate::ids::{PlaceId, SourceId, TokenId, TransitionId};
use crate::ir::{self, MicroOp};
use crate::model::{ActionKind, Fx, GuardKind, Machine, Model};
use crate::stats::{SchedStats, Stats};
use crate::token::{InstrData, TokenKind, TokenPool};

/// How `Process(p)` locates candidate transitions for a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableMode {
    /// The paper's optimization: a pre-sorted list per (place, class).
    #[default]
    PerPlaceClass,
    /// A pre-sorted list per place; class membership checked dynamically.
    PerPlace,
    /// No tables: scan every transition of the net for each token, the way
    /// a generic Petri-net simulator searches for enabled transitions.
    FullScan,
}

/// How the per-cycle loop selects the places to process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// The sparse dirty-place worklist: a place is scanned only when it
    /// holds an instruction token that can become ready this cycle, and
    /// latch/expiry scans walk active lists. Bit-identical simulation to
    /// [`SchedulerMode::Exhaustive`]; strictly less host work.
    #[default]
    ActivityDriven,
    /// The verbatim Figure 8 sweep: every place in the evaluation order is
    /// scanned every cycle. Kept as the differential-testing oracle.
    Exhaustive,
}

/// Engine tuning knobs; the defaults enable every optimization.
///
/// `table_mode` and `two_list_everywhere` are *compile-time* choices: they
/// select which tables a [`CompiledModel`] materializes.
/// `scheduler`, `collect_occupancy` and `trace` are runtime flags carried
/// into each instantiated engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Candidate-transition lookup strategy.
    pub table_mode: TableMode,
    /// Use two-storage (master/slave) token lists for *every* place and a
    /// per-cycle fixpoint search instead of the reverse-topological single
    /// pass. This is the "usual, computationally expensive solution" the
    /// paper avoids.
    pub two_list_everywhere: bool,
    /// Per-cycle place-selection strategy: the sparse activity-driven
    /// worklist (default) or the exhaustive oracle sweep.
    pub scheduler: SchedulerMode,
    /// Accumulate per-place occupancy statistics (small per-cycle cost).
    pub collect_occupancy: bool,
    /// Record a [`TraceEvent`] log (for model validation / CPN equivalence
    /// checks).
    pub trace: bool,
    /// Compile superblocks (compile-time choice): a (place, class) pair
    /// whose candidate list is a single pure-data transition dispatches
    /// through one pre-resolved block over a flattened op stream instead
    /// of the candidate walk + generic interpreters. `false` keeps the
    /// per-op dispatch everywhere — the differential oracle for the fast
    /// path. Simulation results are bit-identical either way; only
    /// [`SchedStats`] dispatch counters and host speed differ.
    pub superblocks: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            table_mode: TableMode::default(),
            two_list_everywhere: false,
            scheduler: SchedulerMode::default(),
            collect_occupancy: false,
            trace: false,
            superblocks: true,
        }
    }
}

/// One recorded simulation event (enabled by [`EngineConfig::trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A transition fired, moving the token with sequence number `seq`.
    Fired {
        /// Cycle of the firing.
        cycle: u64,
        /// The transition.
        transition: TransitionId,
        /// Sequence number of the moved token.
        seq: u64,
    },
    /// A source generated a token.
    Generated {
        /// Cycle of the generation.
        cycle: u64,
        /// The source.
        source: SourceId,
        /// Sequence number of the new token.
        seq: u64,
    },
    /// An instruction token reached an `end` place.
    Retired {
        /// Cycle of the retirement.
        cycle: u64,
        /// The end place reached.
        place: PlaceId,
        /// Sequence number of the retired token.
        seq: u64,
    },
    /// A token was squashed by a flush.
    Flushed {
        /// Cycle of the flush.
        cycle: u64,
        /// The flushed place.
        place: PlaceId,
        /// Sequence number of the squashed token.
        seq: u64,
    },
}

/// Why [`Engine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The model requested a halt (e.g. an exit system call).
    Halted,
    /// The cycle budget was exhausted first.
    CycleLimit,
}

/// The RCPN cycle-accurate simulator: the run step of the model →
/// compile → run pipeline.
///
/// Created from a [`CompiledModel`] (via
/// [`CompiledModel::instantiate`], or the [`Engine::new`] /
/// [`Engine::with_config`] conveniences that compile on the spot) and an
/// initial [`Machine`]; stepped with [`Engine::step`] or driven with
/// [`Engine::run`]. The compiled tables are shared; all mutable
/// simulation state is per-engine.
pub struct Engine<D: InstrData, R> {
    model: Arc<Model<D, R>>,
    plan: Arc<ExecPlan>,
    st: EngineState<D, R>,
}

/// The mutable per-run half of an [`Engine`], split from the shared
/// model/plan so the per-cycle loop can borrow the read-only tables and
/// the mutable state disjointly — no `Arc` traffic on the hot path.
///
/// All buffers used inside a cycle (`scratch`, `expired`, `flush_buf`,
/// the `fx` side-effect collector) are owned here and reused, so the
/// steady-state path allocates nothing per cycle.
struct EngineState<D: InstrData, R> {
    machine: Machine<R>,
    pool: TokenPool<D>,
    live: Vec<Vec<TokenId>>,
    pending: Vec<Vec<TokenId>>,
    stage_occ: Vec<u32>,
    /// Live instruction tokens per place (activity criterion).
    n_instr: Vec<u32>,
    /// Live reservation tokens per place (expiry-scan criterion).
    n_res: Vec<u32>,
    /// Earliest cycle at which a place may need processing; `u64::MAX`
    /// when nothing resident can ever become ready without new arrivals.
    wake: Vec<u64>,
    /// Earliest reservation expiry per place; `u64::MAX` when none.
    res_wake: Vec<u64>,
    /// Two-list places with tokens written this cycle (the latch-commit
    /// worklist; may hold stale/duplicate entries, resolved at commit).
    pending_dirty: Vec<u32>,
    cfg: EngineConfig,
    stats: Stats,
    sched: SchedStats,
    halted: bool,
    cycle: u64,
    trace: Vec<TraceEvent>,
    scratch: Vec<TokenId>,
    expired: Vec<TokenId>,
    flush_buf: Vec<TokenId>,
    /// Per-operand source decisions of the last passing fused guard
    /// (`false` = register file, `true` = forwarding scoreboard);
    /// consumed by the immediately following fused acquire.
    fused_memo: Vec<bool>,
    /// The side-effect collector. Actions and sources borrow it in place
    /// (a disjoint field borrow beside `machine` and the token payload);
    /// it leaves the state only while [`EngineState::apply_fx`]
    /// applies an emit, flush, reservation or halt it gathered.
    fx: Fx<D>,
}

impl<D: InstrData, R> Engine<D, R> {
    /// Compiles `model` with the default (fully optimized) configuration
    /// and instantiates an engine over it.
    pub fn new(model: Model<D, R>, machine: Machine<R>) -> Self {
        CompiledModel::compile(model).instantiate(machine)
    }

    /// Compiles `model` into the variant selected by `cfg` and
    /// instantiates an engine over it.
    pub fn with_config(model: Model<D, R>, machine: Machine<R>, cfg: EngineConfig) -> Self {
        CompiledModel::compile_with(model, cfg).instantiate(machine)
    }

    /// Instantiation entry point used by [`CompiledModel::instantiate`].
    pub(crate) fn from_compiled(compiled: CompiledModel<D, R>, machine: Machine<R>) -> Self {
        let CompiledModel { model, plan, cfg } = compiled;
        let n_places = model.place_count();
        let stats = Stats::new(model.transition_count(), model.source_count(), model.place_count());
        Engine {
            st: EngineState {
                live: vec![Vec::new(); n_places],
                pending: vec![Vec::new(); n_places],
                stage_occ: vec![0; plan.n_stages],
                n_instr: vec![0; n_places],
                n_res: vec![0; n_places],
                wake: vec![u64::MAX; n_places],
                res_wake: vec![u64::MAX; n_places],
                pending_dirty: Vec::new(),
                cfg,
                stats,
                sched: SchedStats::default(),
                halted: false,
                cycle: 0,
                trace: Vec::new(),
                scratch: Vec::new(),
                expired: Vec::new(),
                flush_buf: Vec::new(),
                fused_memo: Vec::new(),
                fx: Fx::new(None),
                machine,
                pool: TokenPool::new(),
            },
            model,
            plan,
        }
    }

    /// The model being simulated.
    pub fn model(&self) -> &Model<D, R> {
        &self.model
    }

    /// A handle to the compiled artifact this engine runs (cheap clone;
    /// can be used to instantiate sibling engines).
    pub fn compiled(&self) -> CompiledModel<D, R> {
        CompiledModel {
            model: Arc::clone(&self.model),
            plan: Arc::clone(&self.plan),
            cfg: self.st.cfg.clone(),
        }
    }

    /// The machine state.
    pub fn machine(&self) -> &Machine<R> {
        &self.st.machine
    }

    /// Mutable machine state (for initialization between runs).
    pub fn machine_mut(&mut self) -> &mut Machine<R> {
        &mut self.st.machine
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.st.stats
    }

    /// Host-side scheduler counters: visited vs skipped places, tokens and
    /// candidate transitions. Unlike [`Engine::stats`] these depend on the
    /// [`SchedulerMode`] (that is their purpose — they make the sparsity
    /// win observable), but they are deterministic for a fixed
    /// configuration.
    pub fn sched(&self) -> &SchedStats {
        &self.st.sched
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u64 {
        self.st.cycle
    }

    /// Whether a halt was requested.
    pub fn halted(&self) -> bool {
        self.st.halted
    }

    /// Number of tokens (live + pending) currently in `place`.
    pub fn tokens_in(&self, place: PlaceId) -> usize {
        self.st.live[place.index()].len() + self.st.pending[place.index()].len()
    }

    /// Total number of in-flight tokens.
    pub fn live_tokens(&self) -> usize {
        self.st.pool.live()
    }

    /// Drains and returns the recorded trace.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.st.trace)
    }

    /// Injects an instruction token directly into a place (testing and
    /// model-bring-up aid). The token becomes eligible after the place's
    /// default delay.
    pub fn inject(&mut self, payload: D, place: PlaceId) -> TokenId {
        self.st.inject(&self.plan, payload, place)
    }

    /// Executes one clock cycle (Figure 8 main loop body).
    pub fn step(&mut self) {
        self.st.step(&self.model, &self.plan);
    }

    /// Runs until the model halts or `max_cycles` have executed.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        let limit = self.st.cycle.saturating_add(max_cycles);
        while !self.st.halted && self.st.cycle < limit {
            self.st.step(&self.model, &self.plan);
        }
        if self.st.halted {
            RunOutcome::Halted
        } else {
            RunOutcome::CycleLimit
        }
    }

    /// Squashes every token in `place`, releasing register reservations.
    pub fn flush_place(&mut self, place: PlaceId) {
        self.st.flush_place(&self.model, &self.plan, place);
    }
}

impl<D: InstrData, R> EngineState<D, R> {
    fn inject(&mut self, plan: &ExecPlan, payload: D, place: PlaceId) -> TokenId {
        let ready = self.cycle + plan.hot_place[place.index()].delay;
        let id = self.pool.alloc(TokenKind::Instruction, Some(payload), place, self.cycle, ready);
        self.insert_token(plan, id, place.index() as u32, ready);
        self.stats.generated += 1;
        id
    }

    /// One clock cycle (Figure 8 main loop body).
    fn step(&mut self, model: &Model<D, R>, plan: &ExecPlan) {
        self.machine.cycle = self.cycle;
        let exhaustive = self.cfg.scheduler == SchedulerMode::Exhaustive;

        // 1. Two-list commit: written tokens become readable. Walks the
        //    dirty worklist (places that received pending tokens), sorted
        //    into place-index order so the commit sequence is identical to
        //    the full `two_list_places` sweep it replaces.
        if !self.pending_dirty.is_empty() {
            let mut dirty = std::mem::take(&mut self.pending_dirty);
            dirty.sort_unstable();
            dirty.dedup();
            for &place in &dirty {
                let pi = place as usize;
                if self.pending[pi].is_empty() {
                    continue; // stale entry (e.g. the place was flushed)
                }
                let p = PlaceId::from_index(pi);
                for &id in &self.pending[pi] {
                    self.machine.regs.note_move(id, p);
                }
                let moved = self.pending[pi].len();
                self.stats.two_list_commits += moved as u64;
                self.n_instr[pi] += moved as u32;
                // Conservative wake: the committed tokens may be ready
                // this very cycle; processing recomputes the exact bound.
                self.wake[pi] = self.wake[pi].min(self.cycle);
                let (live, pending) = (&mut self.live, &mut self.pending);
                live[pi].append(&mut pending[pi]);
            }
            dirty.clear();
            self.pending_dirty = dirty;
        }

        // 2. Reservation expiry: reservation tokens whose residency elapsed
        //    release their stage capacity ("in the next cycle, this token
        //    is consumed"). The activity scheduler scans a place only when
        //    its earliest expiry has arrived; skipped scans could not have
        //    removed anything.
        for &p in &plan.res_places {
            let pi = p.index();
            if exhaustive {
                if self.live[pi].is_empty() {
                    continue;
                }
            } else {
                if self.n_res[pi] == 0 {
                    continue;
                }
                if self.res_wake[pi] > self.cycle {
                    self.sched.expiry_skips += 1;
                    continue;
                }
            }
            self.sched.expiry_scans += 1;
            let cycle = self.cycle;
            let mut expired = std::mem::take(&mut self.expired);
            expired.clear();
            let mut next_expiry = u64::MAX;
            self.live[pi].retain(|&id| {
                let t = self.pool.get(id).expect("reservation token must be live");
                if t.kind == TokenKind::Reservation {
                    if t.ready_at <= cycle {
                        expired.push(id);
                        return false;
                    }
                    next_expiry = next_expiry.min(t.ready_at);
                }
                true
            });
            self.n_res[pi] -= expired.len() as u32;
            self.res_wake[pi] = next_expiry;
            let stage = plan.hot_place[pi].stage as usize;
            for &id in &expired {
                self.pool.discard(id);
                self.stage_occ[stage] -= 1;
            }
            expired.clear();
            self.expired = expired;
        }

        // 3. Process places.
        if !self.halted {
            if plan.fixpoint {
                // Generic synchronous scheme: scan for enabled transitions
                // until a fixpoint — the expensive search RCPN avoids. The
                // activity gate widens by one cycle after the first pass:
                // a token that was ready but stalled re-arms its place to
                // `cycle + 1`, and such places must be rescanned on every
                // pass (the exhaustive fixpoint rescans them, counting
                // their stalls again), while places whose tokens are all
                // still delayed stay skippable — rescanning them is a
                // no-op either way.
                let max_passes = plan.order.len() + 1;
                for pass in 0..max_passes {
                    let bound = if pass == 0 { self.cycle } else { self.cycle + 1 };
                    let mut any = false;
                    for &p in &plan.order {
                        let pi = p.index();
                        if !exhaustive {
                            if self.n_instr[pi] == 0 {
                                continue;
                            }
                            if self.wake[pi] > bound {
                                self.note_place_skip(plan, pi);
                                continue;
                            }
                        }
                        if self.process_place(model, plan, p) {
                            any = true;
                        }
                        if self.halted {
                            break;
                        }
                    }
                    if !any || self.halted {
                        break;
                    }
                }
            } else {
                for &p in &plan.order {
                    let pi = p.index();
                    if !exhaustive {
                        if self.n_instr[pi] == 0 {
                            continue;
                        }
                        if self.wake[pi] > self.cycle {
                            self.note_place_skip(plan, pi);
                            continue;
                        }
                    }
                    self.process_place(model, plan, p);
                    if self.halted {
                        break;
                    }
                }
            }
        }

        // 4. Instruction-independent sub-net: generate new tokens.
        if !self.halted {
            self.run_sources(model, plan);
        }

        if self.cfg.collect_occupancy {
            for p in 0..self.live.len() {
                self.stats.occupancy[p] += (self.live[p].len() + self.pending[p].len()) as u64;
            }
        }

        self.cycle += 1;
        self.stats.cycles += 1;
    }

    /// Accounts one activity skip of a non-empty place: the tokens that
    /// were not rescanned, and (via the compiled reverse index) the
    /// dependent transitions that were not reconsidered.
    #[inline]
    fn note_place_skip(&mut self, plan: &ExecPlan, pi: usize) {
        self.sched.place_skips += 1;
        self.sched.token_visits_skipped += self.live[pi].len() as u64;
        self.sched.trans_visits_skipped += u64::from(plan.hot_place[pi].n_dependents);
    }

    /// Figure 7: processes the instruction tokens of one place. Returns
    /// whether any transition fired.
    ///
    /// Also recomputes the place's `wake` bound from what it saw: delayed
    /// tokens contribute their `ready_at`, a ready token that stalled
    /// contributes `cycle + 1` (its enabling conditions may change), and
    /// insertions that happen *during* the scan lower the bound through
    /// [`EngineState::insert_token`].
    fn process_place(&mut self, model: &Model<D, R>, plan: &ExecPlan, p: PlaceId) -> bool {
        let pi = p.index();
        if self.live[pi].is_empty() {
            return false;
        }
        self.sched.place_visits += 1;
        self.wake[pi] = u64::MAX;
        let mut next_wake = u64::MAX;
        let mut snapshot = std::mem::take(&mut self.scratch);
        snapshot.clear();
        snapshot.extend_from_slice(&self.live[pi]);
        self.sched.token_visits += snapshot.len() as u64;
        let mut fired_any = false;

        for &id in &snapshot {
            let Some(tok) = self.pool.get(id) else { continue };
            if tok.place != p || tok.kind != TokenKind::Instruction {
                continue;
            }
            if tok.ready_at > self.cycle {
                next_wake = next_wake.min(tok.ready_at);
                continue;
            }
            let class = tok.data.as_ref().expect("instruction token has data").op_class();
            if let Some(sb) = plan.sb_lookup(pi, class.index()) {
                // Direct-threaded fast path: the (place, class) pair was
                // pre-resolved to its single pure-data transition at
                // compile time; no candidate walk needed.
                if self.try_fire_superblock(plan, sb, id, p) {
                    fired_any = true;
                } else {
                    self.stats.stalls += 1;
                    self.stats.place_stalls[pi] += 1;
                    next_wake = next_wake.min(self.cycle + 1);
                }
                // Superblock ops cannot halt; no halted check needed.
                continue;
            }
            let fired = match &plan.lookup {
                Lookup::PerPlaceClass { flat, span, n_classes } => {
                    let (start, len) = span[pi * n_classes + class.index()];
                    let mut fired = false;
                    for k in start..start + u32::from(len) {
                        let tid = flat[k as usize] as usize;
                        if self.try_fire(model, plan, tid, id, p) {
                            fired = true;
                            break;
                        }
                    }
                    fired
                }
                Lookup::PerPlace { flat, span } => {
                    let subnet = plan.subnet_of_class[class.index()];
                    let (start, len) = span[pi];
                    let mut fired = false;
                    for k in start..start + u32::from(len) {
                        let tid = flat[k as usize] as usize;
                        if plan.subnet_of_trans[tid] != subnet {
                            continue;
                        }
                        if self.try_fire(model, plan, tid, id, p) {
                            fired = true;
                            break;
                        }
                    }
                    fired
                }
                Lookup::FullScan { order } => {
                    let subnet = plan.subnet_of_class[class.index()];
                    let mut fired = false;
                    for &t in order {
                        let tid = t as usize;
                        if plan.input_of_trans[tid] as usize != pi
                            || plan.subnet_of_trans[tid] != subnet
                        {
                            continue;
                        }
                        if self.try_fire(model, plan, tid, id, p) {
                            fired = true;
                            break;
                        }
                    }
                    fired
                }
            };
            if fired {
                fired_any = true;
            } else {
                self.stats.stalls += 1;
                self.stats.place_stalls[pi] += 1;
                next_wake = next_wake.min(self.cycle + 1);
            }
            if self.halted {
                break;
            }
        }

        self.scratch = snapshot;
        self.wake[pi] = self.wake[pi].min(next_wake);
        fired_any
    }

    /// Checks capacity / extra inputs / guard; fires if enabled.
    #[inline]
    fn try_fire(
        &mut self,
        model: &Model<D, R>,
        plan: &ExecPlan,
        tid: usize,
        token: TokenId,
        place: PlaceId,
    ) -> bool {
        self.sched.trans_visits += 1;
        let h = plan.hot[tid];
        if !h.cap_exempt && self.stage_occ[h.dest_stage as usize] >= h.cap {
            self.stats.capacity_blocks += 1;
            return false;
        }
        if h.has_extra {
            for k in 0..model.transitions[tid].extra_inputs.len() {
                let x = model.transitions[tid].extra_inputs[k];
                if self.oldest_ready(x).is_none() {
                    return false;
                }
            }
        }
        if h.has_guard {
            let passed = match plan.dispatch[tid].guard {
                GuardCode::None => unreachable!("has_guard implies a guard code"),
                GuardCode::Closure => {
                    self.sched.guard_hook_evals += 1;
                    let Some(GuardKind::Closure(guard)) = &model.transitions[tid].guard else {
                        unreachable!("GuardCode::Closure implies a closure guard")
                    };
                    let tok = self.pool.get(token).expect("token live during guard");
                    let data = tok.data.as_ref().expect("instruction token has data");
                    guard(&self.machine, data)
                }
                GuardCode::Prog(idx) => {
                    self.sched.guard_ir_evals += 1;
                    let tok = self.pool.get(token).expect("token live during guard");
                    let data = tok.data.as_ref().expect("instruction token has data");
                    ir::eval_guard(&plan.programs[idx as usize], &self.machine, data, &model.hooks)
                }
                GuardCode::Fused { fwd_mask } => {
                    self.sched.guard_ir_evals += 1;
                    let mut memo = std::mem::take(&mut self.fused_memo);
                    let tok = self.pool.get(token).expect("token live during guard");
                    let data = tok.data.as_ref().expect("instruction token has data");
                    let ok = ir::fused_check(&self.machine, data, fwd_mask, &mut memo);
                    self.fused_memo = memo;
                    ok
                }
            };
            if !passed {
                self.stats.guard_fails += 1;
                return false;
            }
        }
        self.fire(model, plan, tid, h, token, place);
        true
    }

    /// Superblock dispatch: the whole try-fire of a pre-resolved
    /// single-candidate transition — capacity, guard, action, token move
    /// — as one direct-threaded loop over the flattened op stream, with
    /// no candidate walk, no `HotTrans`/dispatch-table indirection, no
    /// hook table and no `Fx` collector (the admitted ops produce no
    /// deferred effects; see [`SbBlock`]). Observable simulation behavior
    /// — statistics, trace, token and machine state, wake bounds — is
    /// bit-identical to [`EngineState::try_fire`] on the same transition;
    /// only the two superblock [`SchedStats`] counters and host work
    /// differ.
    #[inline]
    fn try_fire_superblock(
        &mut self,
        plan: &ExecPlan,
        sb: &SbBlock,
        token: TokenId,
        place: PlaceId,
    ) -> bool {
        self.sched.trans_visits += 1;
        if !sb.cap_exempt && self.stage_occ[sb.dest_stage as usize] >= sb.cap {
            self.stats.capacity_blocks += 1;
            return false;
        }
        let (g0, g1) = sb.guard;
        let guard_ops = &plan.sb_ops[g0 as usize..g1 as usize];
        if let Some(fwd_mask) = sb.fused {
            self.sched.guard_ir_evals += 1;
            let mut memo = std::mem::take(&mut self.fused_memo);
            let tok = self.pool.get(token).expect("token live during guard");
            let data = tok.data.as_ref().expect("instruction token has data");
            let ok = ir::fused_check(&self.machine, data, fwd_mask, &mut memo);
            self.fused_memo = memo;
            if !ok {
                self.stats.guard_fails += 1;
                return false;
            }
        } else if !guard_ops.is_empty() {
            self.sched.guard_ir_evals += 1;
            let tok = self.pool.get(token).expect("token live during guard");
            let data = tok.data.as_ref().expect("instruction token has data");
            let passed = guard_ops.iter().all(|op| match op {
                MicroOp::CheckReady { fwd_mask } => ir::check_ready(&self.machine, data, *fwd_mask),
                MicroOp::CheckCond { expect } => data.cond_passes() == *expect,
                other => unreachable!("non-superblock op {other:?} in superblock guard"),
            });
            if !passed {
                self.stats.guard_fails += 1;
                return false;
            }
        }

        // Fire: same observable sequence as `EngineState::fire`, minus
        // the impossible parts (joins, reservations, side effects).
        let cycle = self.cycle;
        let tid = sb.tid as usize;
        self.remove_from_place(plan, place.index(), token, TokenKind::Instruction);
        let (a0, a1) = sb.action;
        let action_ops = &plan.sb_ops[a0 as usize..a1 as usize];
        self.sched.superblocks_entered += 1;
        self.sched.ops_inlined += u64::from(g1 - g0) + u64::from(a1 - a0);
        let mut delay: Option<u32> = None;
        if sb.fused.is_some() || !action_ops.is_empty() {
            let tok = self.pool.get_mut(token).expect("firing token is live");
            let data = tok.data.as_mut().expect("instruction token has data");
            if sb.fused.is_some() {
                self.sched.actions_fused += 1;
                self.sched.ops_inlined += 2; // the fused ready/acquire pair
                ir::fused_acquire_tok(&mut self.machine, data, token, &self.fused_memo);
            }
            for op in action_ops {
                match op {
                    MicroOp::AcquireOperands { fwd_mask } => {
                        ir::acquire_operands_tok(&mut self.machine, data, token, *fwd_mask);
                    }
                    MicroOp::WriteBack => ir::write_back_tok(&mut self.machine, data, token),
                    MicroOp::Publish => ir::publish_results(&mut self.machine, data, token),
                    MicroOp::Annul => ir::annul_token(&mut self.machine, data, token),
                    MicroOp::SetDelay(d) => delay = Some(*d),
                    other => unreachable!("non-superblock op {other:?} in superblock action"),
                }
            }
        }

        // Move the token.
        let mut seq = 0;
        if sb.dest_is_end {
            let leaked = self.machine.regs.release(token);
            seq = self.pool.discard(token);
            self.stats.leaked_reservations += leaked as u64;
            self.stats.retired += 1;
            if self.cfg.trace {
                self.trace.push(TraceEvent::Retired {
                    cycle,
                    place: PlaceId::from_index(sb.dest as usize),
                    seq,
                });
            }
        } else {
            let eff = match delay {
                None => sb.base_ready,
                Some(d) => sb.tdelay + u64::from(d),
            };
            let ready = cycle + eff;
            let tok = self.pool.get_mut(token).expect("firing token is live");
            tok.place = PlaceId::from_index(sb.dest as usize);
            tok.arrived_at = cycle;
            tok.ready_at = ready;
            if self.cfg.trace {
                seq = tok.seq;
            }
            self.insert_token(plan, token, sb.dest, ready);
        }

        self.stats.fires[tid] += 1;
        if self.cfg.trace {
            self.trace.push(TraceEvent::Fired {
                cycle,
                transition: TransitionId::from_index(tid),
                seq,
            });
        }
        true
    }

    /// The oldest ready token in `place` (any kind), if one exists.
    fn oldest_ready(&self, place: PlaceId) -> Option<TokenId> {
        self.live[place.index()]
            .iter()
            .copied()
            .filter(|&id| self.pool.get(id).is_some_and(|t| t.ready_at <= self.cycle))
            .min_by_key(|&id| self.pool.get(id).expect("live token").seq())
    }

    #[inline]
    fn remove_from_place(&mut self, plan: &ExecPlan, place: usize, id: TokenId, kind: TokenKind) {
        let list = &mut self.live[place];
        let pos = list.iter().position(|&x| x == id).expect("token listed in its place");
        list.remove(pos);
        match kind {
            TokenKind::Instruction => self.n_instr[place] -= 1,
            TokenKind::Reservation => self.n_res[place] -= 1,
        }
        self.stage_occ[plan.hot_place[place].stage as usize] -= 1;
    }

    /// Inserts `id` (an instruction token becoming ready at `ready`) into
    /// `place`, dirtying the place for the scheduler: a live insert lowers
    /// the place's wake bound, a pending insert enlists it for the next
    /// latch commit.
    #[inline]
    fn insert_token(&mut self, plan: &ExecPlan, id: TokenId, place: u32, ready: u64) {
        let pi = place as usize;
        let hp = plan.hot_place[pi];
        if hp.two_list {
            if self.pending[pi].is_empty() {
                self.pending_dirty.push(place);
            }
            self.pending[pi].push(id);
        } else {
            self.live[pi].push(id);
            self.n_instr[pi] += 1;
            self.wake[pi] = self.wake[pi].min(ready);
            self.machine.regs.note_move(id, PlaceId::from_index(pi));
        }
        self.stage_occ[hp.stage as usize] += 1;
    }

    /// Fires transition `tid`, moving `token` from `place` to the
    /// destination.
    fn fire(
        &mut self,
        model: &Model<D, R>,
        plan: &ExecPlan,
        tid: usize,
        h: HotTrans,
        token: TokenId,
        place: PlaceId,
    ) {
        let cycle = self.cycle;

        // Consume extra-input tokens (joins) first.
        if h.has_extra {
            for k in 0..model.transitions[tid].extra_inputs.len() {
                let x = model.transitions[tid].extra_inputs[k];
                let victim =
                    self.oldest_ready(x).expect("extra input availability was checked in try_fire");
                let vkind = self.pool.get(victim).expect("victim is live").kind;
                self.remove_from_place(plan, x.index(), victim, vkind);
                if vkind == TokenKind::Instruction {
                    self.machine.regs.release(victim);
                }
                self.pool.discard(victim);
            }
        }

        self.remove_from_place(plan, place.index(), token, TokenKind::Instruction);

        // Run the action against the engine-owned collector, borrowed in
        // place (its buffers persist across fires, so emitting actions
        // stop allocating per fire).
        debug_assert!(!self.fx.has_effects());
        self.fx.token = Some(token);
        self.fx.token_delay = None;
        if h.has_action {
            let disp = plan.dispatch[tid];
            if matches!(disp.guard, GuardCode::Fused { .. }) {
                self.sched.actions_fused += 1;
            }
            let tok = self.pool.get_mut(token).expect("firing token is live");
            let data = tok.data.as_mut().expect("instruction token has data");
            if matches!(disp.guard, GuardCode::Fused { .. }) {
                // The fused guard just passed for this very token; latch
                // each operand from the source it memoized.
                ir::fused_acquire(&mut self.machine, data, &mut self.fx, &self.fused_memo);
            }
            match disp.action {
                ActionCode::None => {}
                ActionCode::Closure => {
                    let Some(ActionKind::Closure(action)) = &model.transitions[tid].action else {
                        unreachable!("ActionCode::Closure implies a closure action")
                    };
                    action(&mut self.machine, data, &mut self.fx);
                }
                ActionCode::Prog(idx) => ir::run_action(
                    plan.programs[idx as usize].ops(),
                    &mut self.machine,
                    data,
                    &mut self.fx,
                    &model.hooks,
                ),
            }
        }

        // Move the token.
        let mut seq = 0;
        if h.dest_is_end {
            let leaked = self.machine.regs.release(token);
            seq = self.pool.discard(token);
            self.stats.leaked_reservations += leaked as u64;
            self.stats.retired += 1;
            if self.cfg.trace {
                self.trace.push(TraceEvent::Retired {
                    cycle,
                    place: PlaceId::from_index(h.dest as usize),
                    seq,
                });
            }
        } else {
            let eff = match self.fx.token_delay {
                None => h.base_ready,
                Some(d) => h.tdelay + u64::from(d),
            };
            let ready = cycle + eff;
            let tok = self.pool.get_mut(token).expect("firing token is live");
            tok.place = PlaceId::from_index(h.dest as usize);
            tok.arrived_at = cycle;
            tok.ready_at = ready;
            if self.cfg.trace {
                seq = tok.seq;
            }
            self.insert_token(plan, token, h.dest, ready);
        }

        // Reservation-token output arcs.
        if h.has_res {
            for k in 0..model.transitions[tid].reservations.len() {
                let r = model.transitions[tid].reservations[k];
                let expiry = cycle + u64::from(r.expire);
                let rid = self.pool.alloc(TokenKind::Reservation, None, r.place, cycle, expiry);
                // Reservations occupy immediately; they are not deferred
                // even on two-list places, since their only observable
                // effect is stage occupancy (which is always next-state).
                let rp = r.place.index();
                self.live[rp].push(rid);
                self.n_res[rp] += 1;
                self.res_wake[rp] = self.res_wake[rp].min(expiry);
                self.stage_occ[plan.hot_place[rp].stage as usize] += 1;
                self.stats.reservations += 1;
            }
        }

        self.fx.token = None;
        if self.fx.has_effects() {
            self.apply_fx(model, plan);
        }
        self.stats.fires[tid] += 1;
        if self.cfg.trace {
            self.trace.push(TraceEvent::Fired {
                cycle,
                transition: TransitionId::from_index(tid),
                seq,
            });
        }
    }

    /// Applies and drains the side effects the engine-owned collector
    /// gathered, leaving it empty (so its buffers are reused by the next
    /// firing). Callers check [`Fx::has_effects`] first: the collector
    /// moves out of `self` only when there is something to apply, because
    /// applying re-enters the engine (emits insert tokens, flushes run
    /// squash handlers).
    fn apply_fx(&mut self, model: &Model<D, R>, plan: &ExecPlan) {
        let mut fx = std::mem::replace(&mut self.fx, Fx::new(None));
        let cycle = self.cycle;
        for (place, expire) in fx.reserves.drain(..) {
            // Always-on (res_places is sorted; the search is cheap and
            // reserves are rare): a reservation in a place the expiry
            // scan never visits would occupy its stage forever, which in
            // release would read as a silent wedge, not a bug report.
            assert!(
                plan.res_places.binary_search(&place).is_ok(),
                "Fx::reserve into {place}, which is not a compiled reservation target (no ResArc \
                 or IR ReserveRes op names it) — the expiry scan would never release it"
            );
            let expiry = cycle + u64::from(expire);
            let rid = self.pool.alloc(TokenKind::Reservation, None, place, cycle, expiry);
            let rp = place.index();
            self.live[rp].push(rid);
            self.n_res[rp] += 1;
            self.res_wake[rp] = self.res_wake[rp].min(expiry);
            self.stage_occ[plan.hot_place[rp].stage as usize] += 1;
            self.stats.reservations += 1;
        }
        for (payload, place, delay) in fx.emits.drain(..) {
            let ready = cycle + u64::from(delay);
            let id = self.pool.alloc(TokenKind::Instruction, Some(payload), place, cycle, ready);
            self.insert_token(plan, id, place.index() as u32, ready);
            self.stats.emitted += 1;
        }
        for place in fx.flush_places.drain(..) {
            self.flush_place(model, plan, place);
        }
        if fx.halt {
            self.halted = true;
            fx.halt = false;
        }
        self.fx = fx;
    }

    /// Squashes every token in `place`, releasing register reservations.
    fn flush_place(&mut self, model: &Model<D, R>, plan: &ExecPlan, place: PlaceId) {
        let pi = place.index();
        let mut ids = std::mem::take(&mut self.flush_buf);
        ids.clear();
        ids.append(&mut self.live[pi]);
        ids.append(&mut self.pending[pi]);
        // The place is now empty; reset its activity metadata wholesale.
        self.n_instr[pi] = 0;
        self.n_res[pi] = 0;
        self.wake[pi] = u64::MAX;
        self.res_wake[pi] = u64::MAX;
        let stage = plan.hot_place[pi].stage as usize;
        for &id in &ids {
            let mut tok = self.pool.take(id);
            if tok.kind == TokenKind::Instruction {
                self.machine.regs.release(id);
                if let Some(handler) = &model.squash_handler {
                    let data = tok.data.as_mut().expect("instruction token has data");
                    handler(&mut self.machine, data);
                }
            }
            self.stage_occ[stage] -= 1;
            self.stats.flushed += 1;
            if self.cfg.trace {
                self.trace.push(TraceEvent::Flushed { cycle: self.cycle, place, seq: tok.seq });
            }
        }
        ids.clear();
        self.flush_buf = ids;
    }

    /// Executes the instruction-independent sub-net (all sources).
    fn run_sources(&mut self, model: &Model<D, R>, plan: &ExecPlan) {
        let cycle = self.cycle;
        for si in 0..plan.hot_source.len() {
            let hs = plan.hot_source[si];
            let hp = plan.hot_place[hs.dest as usize];
            for _ in 0..hs.width {
                if !hp.is_end && self.stage_occ[hp.stage as usize] >= hp.cap {
                    break;
                }
                if let Some(guard) = &model.sources[si].guard {
                    if !guard(&self.machine) {
                        break;
                    }
                }
                debug_assert!(!self.fx.has_effects());
                self.fx.token = None;
                self.fx.token_delay = None;
                let payload = (model.sources[si].produce)(&mut self.machine, &mut self.fx);
                let produced = payload.is_some();
                if let Some(data) = payload {
                    let eff = match self.fx.token_delay {
                        None => hp.delay,
                        Some(d) => u64::from(d),
                    };
                    let ready = cycle + eff;
                    let id = self.pool.alloc(
                        TokenKind::Instruction,
                        Some(data),
                        PlaceId::from_index(hs.dest as usize),
                        cycle,
                        ready,
                    );
                    self.insert_token(plan, id, hs.dest, ready);
                    self.stats.generated += 1;
                    self.stats.source_fires[si] += 1;
                    if self.cfg.trace {
                        let seq = self.pool.get(id).expect("just allocated").seq();
                        self.trace.push(TraceEvent::Generated {
                            cycle,
                            source: SourceId::from_index(si),
                            seq,
                        });
                    }
                }
                if self.fx.has_effects() {
                    self.apply_fx(model, plan);
                }
                if self.halted || !produced {
                    break;
                }
            }
            if self.halted {
                break;
            }
        }
    }
}

impl<D: InstrData, R> std::fmt::Debug for Engine<D, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cycle", &self.st.cycle)
            .field("halted", &self.st.halted)
            .field("live_tokens", &self.st.pool.live())
            .finish()
    }
}
