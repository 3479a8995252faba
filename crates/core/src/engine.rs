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
//! with a dirty-place worklist built on three per-place facts, kept in
//! each place's run-time header beside its resident lists and maintained
//! incrementally by every token movement:
//!
//! * `n_instr` — live instruction tokens resident in the place;
//! * `wake` — a lower bound on the earliest cycle at which any token in
//!   the place can enable a transition (min token `ready_at`; a token
//!   that was ready but found no enabled transition re-arms `wake` to the
//!   next cycle, because capacity, guards, or join inputs may change);
//! * `res_wake` — the earliest reservation expiry in the place.
//!
//! A place is processed in a cycle only when `n_instr > 0` and `wake`
//! has arrived; latch commits walk a dirty list of two-list
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
//! ## Quiescent cycles
//!
//! A cycle is *quiescent* when it fires no transition, consults no
//! source, and evaluates no closure guard and no IR guard program
//! containing a `CallHook`. Everything else such a cycle reads — stage
//! occupancy, token readiness, join availability, register-file checks —
//! only those events, latch commits and reservation expiries change. A
//! cycle's commit and expiry happen before its first visit, and a
//! quiescent cycle writes no latch, so after a quiescent cycle `c` every
//! cycle up to the next token maturity or reservation scan `T` repeats
//! cycle `c + 1` exactly. Under the activity scheduler, [`Engine::run`]
//! (through [`Engine::step_then_skip`]) simulates `c + 1` as the
//! template, jumps to `T` and adds the template's counter deltas once per
//! skipped cycle, so the trace, [`Stats`] and [`SchedStats`] equal a
//! cycle-by-cycle run's (`DESIGN.md` §2a). [`Engine::step`] always runs
//! exactly one cycle.
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
use crate::ids::{OpClassId, PlaceId, SourceId, TokenId, TransitionId};
use crate::ir::{self, MicroOp};
use crate::model::{ActionKind, Fx, GuardKind, Machine, Model};
use crate::stats::{SchedStats, Stats, TemplateMark};
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
    /// One run-time header per place, indexed by place.
    places: Vec<PlaceRt>,
    stage_occ: Vec<u32>,
    /// Two-list places with tokens written this cycle (the latch-commit
    /// worklist; may hold stale/duplicate entries, resolved at commit).
    pending_dirty: Vec<u32>,
    cfg: EngineConfig,
    stats: Stats,
    sched: SchedStats,
    halted: bool,
    cycle: u64,
    trace: Vec<TraceEvent>,
    scratch: Vec<Resident>,
    expired: Vec<TokenId>,
    flush_buf: Vec<TokenId>,
    /// Per-operand source decisions of the last passing fused guard
    /// (`false` = register file, `true` = forwarding scoreboard);
    /// consumed by the immediately following fused acquire.
    fused_memo: Vec<bool>,
    /// Set by every event that keeps the current cycle from being
    /// quiescent (see the module docs): a firing, a source consulted, a
    /// closure or hook-calling guard evaluated. A latch commit or a
    /// reservation expiry does not set it. Cleared at the start of a
    /// cycle.
    active: bool,
    /// Cycles skipped by [`EngineState::step_then_skip`].
    fast_forwarded: u64,
    /// The counters as the template cycle began.
    ff_mark: TemplateMark,
    /// The side-effect collector. Actions and sources borrow it in place
    /// (a disjoint field borrow beside `machine` and the token payload);
    /// it leaves the state only while [`EngineState::apply_fx`]
    /// applies an emit, flush, reservation or halt it gathered.
    fx: Fx<D>,
}

/// One token listed in a place: the facts a visit reads, mirrored from
/// the pooled token so that a visit touches the pool only to fire.
///
/// While the token is listed, `ready_at`, `kind` and `class` equal the
/// pooled token's (checked in debug builds by
/// [`EngineState::check_mirror`]). A reservation's `ready_at` is its
/// expiry cycle and its `class` is [`NO_CLASS`].
#[derive(Debug, Clone, Copy)]
struct Resident {
    id: TokenId,
    ready_at: u64,
    class: OpClassId,
    kind: TokenKind,
}

/// The `class` of a reservation record, which has no payload.
const NO_CLASS: OpClassId = OpClassId(u32::MAX);

/// The run-time header of one place: its resident lists and the activity
/// facts the scheduler reads.
///
/// The lists are not bounded by the stage capacity: reservation arcs,
/// `Fx::emit` and [`Engine::inject`] insert without a capacity check.
#[derive(Debug)]
struct PlaceRt {
    /// Readable residents, in insertion order (the visit order, so
    /// removal preserves it).
    live: Vec<Resident>,
    /// Two-list places: instruction tokens written this cycle, appended
    /// to `live` by the next cycle's latch commit.
    pending: Vec<Resident>,
    /// Live instruction tokens (activity criterion).
    n_instr: u32,
    /// Live reservation tokens (expiry-scan criterion).
    n_res: u32,
    /// Earliest cycle at which the place may need processing; `u64::MAX`
    /// when nothing resident can ever become ready without new arrivals.
    wake: u64,
    /// Earliest reservation expiry; `u64::MAX` when none.
    res_wake: u64,
}

impl PlaceRt {
    fn new() -> Self {
        PlaceRt {
            live: Vec::new(),
            pending: Vec::new(),
            n_instr: 0,
            n_res: 0,
            wake: u64::MAX,
            res_wake: u64::MAX,
        }
    }
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
                places: (0..n_places).map(|_| PlaceRt::new()).collect(),
                stage_occ: vec![0; plan.n_stages],
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
                active: false,
                fast_forwarded: 0,
                ff_mark: TemplateMark::default(),
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

    /// Cycles that [`Engine::run`] and [`Engine::step_then_skip`] skipped
    /// as exact repeats of a quiescent template cycle instead of
    /// simulating them. They are counted in [`Engine::cycle`], [`Stats`]
    /// and [`SchedStats`] like simulated cycles; this only says how many
    /// were fast-forwarded. Always 0 under [`SchedulerMode::Exhaustive`].
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.st.fast_forwarded
    }

    /// Whether a halt was requested.
    pub fn halted(&self) -> bool {
        self.st.halted
    }

    /// Number of tokens (live + pending) currently in `place`.
    pub fn tokens_in(&self, place: PlaceId) -> usize {
        let rt = &self.st.places[place.index()];
        rt.live.len() + rt.pending.len()
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

    /// Executes one clock cycle and, if it was quiescent (module docs),
    /// fast-forwards: under [`SchedulerMode::ActivityDriven`] it runs the
    /// next cycle as the template and skips the template's exact repeats,
    /// up to the next token maturity or reservation scan and never past
    /// cycle `limit`. Afterwards the engine is exactly where a loop of
    /// [`Engine::step`] calls would have left it.
    ///
    /// The run loops ([`Engine::run`] and the ARM `CaSim::run`) call this.
    /// A loop that stops on a condition of the machine or of its tokens
    /// can test it after each call: a quiescent cycle changes neither, so
    /// a condition that was false when the call began cannot turn true
    /// inside the skipped stretch.
    pub fn step_then_skip(&mut self, limit: u64) {
        self.st.step_then_skip(&self.model, &self.plan, limit);
    }

    /// Runs until the model halts or `max_cycles` have executed.
    ///
    /// Under [`SchedulerMode::ActivityDriven`] quiescent stretches are
    /// fast-forwarded ([`Engine::step_then_skip`]): the trace, [`Stats`],
    /// [`SchedStats`] and machine state equal those of `max_cycles`
    /// [`Engine::step`] calls that stop at the halt, and
    /// [`Engine::fast_forwarded_cycles`] reports how many cycles were
    /// skipped.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        let limit = self.st.cycle.saturating_add(max_cycles);
        while !self.st.halted && self.st.cycle < limit {
            self.st.step_then_skip(&self.model, &self.plan, limit);
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
        let class = payload.op_class();
        let id = self.pool.alloc(TokenKind::Instruction, Some(payload), place, self.cycle, ready);
        self.insert_token(plan, id, place.index() as u32, ready, class);
        self.stats.generated += 1;
        id
    }

    /// One cycle, then a fast-forward if it was quiescent (module docs).
    #[inline]
    fn step_then_skip(&mut self, model: &Model<D, R>, plan: &ExecPlan, limit: u64) {
        self.step(model, plan);
        if !self.active && self.cfg.scheduler == SchedulerMode::ActivityDriven {
            self.fast_forward(model, plan, limit);
        }
    }

    /// After a quiescent cycle `c` (`self.cycle == c + 1`): simulates the
    /// template `c + 1` and skips its repeats up to `min(T, limit)`, if
    /// there is at least one. Cold and out of line: most cycles are not
    /// quiescent, and the run loop then pays only for the flag check.
    #[cold]
    #[inline(never)]
    fn fast_forward(&mut self, model: &Model<D, R>, plan: &ExecPlan, limit: u64) {
        // Cycle `c` may have visited places on a stale wake bound, or
        // committed a latch or expired a reservation before its visits, so
        // its successor is the template.
        let stop = self.next_event(plan).min(limit);
        if stop <= self.cycle + 1 {
            return; // no repeat of the template to skip
        }
        self.ff_mark.record(&self.stats, &self.sched);
        self.step(model, plan);
        debug_assert!(!self.active, "the successor of a quiescent cycle is quiescent");
        if self.active {
            return;
        }
        let repeats = stop - self.cycle;
        if self.ff_mark.repeat(&mut self.stats, &mut self.sched, repeats) {
            self.cycle = stop;
            self.machine.cycle = stop - 1;
            self.fast_forwarded += repeats;
        }
    }

    /// After a quiescent cycle `c` (`self.cycle == c + 1`): `T`, the
    /// earliest cycle after the template `c + 1` that can differ from it.
    /// That is the earliest wake bound still ahead (a place re-armed for
    /// the template by a stalled token contributes its delayed residents'
    /// `ready_at` instead) or reservation scan. A wake bound is never
    /// later than its place's earliest `ready_at`, so a stale one stops
    /// the skip at the cycle whose visit it causes. Returns early once the
    /// bound reaches `c + 2`, which leaves nothing to skip.
    fn next_event(&self, plan: &ExecPlan) -> u64 {
        let now = self.cycle;
        let mut t = u64::MAX;
        for rt in &self.places {
            if rt.n_instr == 0 {
                continue;
            }
            if rt.wake > now {
                t = t.min(rt.wake);
            } else {
                for r in &rt.live {
                    if r.kind == TokenKind::Instruction && r.ready_at >= now {
                        t = t.min(r.ready_at);
                    }
                }
            }
            if t <= now + 1 {
                return t;
            }
        }
        for &p in &plan.res_places {
            let rt = &self.places[p.index()];
            if rt.n_res > 0 {
                t = t.min(rt.res_wake);
            }
        }
        t
    }

    /// One clock cycle (Figure 8 main loop body).
    ///
    /// This is the whole busy-cycle kernel: the place visit, both dispatch
    /// paths and the token move (`process_place`, `visit`,
    /// `try_fire_superblock`, `try_fire`, `fire`, `remove_from_place`,
    /// `insert_token`) are `#[inline(always)]` and compile into it, the
    /// way the paper's generated loop is straight-line code per place.
    /// (The generic path's candidate walk, an `Iterator::any`, still
    /// compiles to an out-of-line `try_fold` holding `try_fire` and
    /// `fire`.) Inlining the whole chain measured 1.05–1.09× on paper-kernels'
    /// speedups; inlining only part of it measured nothing, and also
    /// inlining the IR, pool and register-file helpers measured worse
    /// (`DESIGN.md` §2h).
    fn step(&mut self, model: &Model<D, R>, plan: &ExecPlan) {
        self.machine.cycle = self.cycle;
        self.active = false;
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
                let p = PlaceId::from_index(pi);
                if cfg!(debug_assertions) {
                    self.check_mirror(p, &self.places[pi].pending);
                }
                let rt = &mut self.places[pi];
                if rt.pending.is_empty() {
                    continue; // stale entry (e.g. the place was flushed)
                }
                for r in &rt.pending {
                    self.machine.regs.note_move(r.id, p);
                }
                let moved = rt.pending.len();
                self.stats.two_list_commits += moved as u64;
                rt.n_instr += moved as u32;
                // Conservative wake: the committed tokens may be ready
                // this very cycle; processing recomputes the exact bound.
                rt.wake = rt.wake.min(self.cycle);
                rt.live.append(&mut rt.pending);
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
            let rt = &self.places[pi];
            if exhaustive {
                if rt.live.is_empty() {
                    continue;
                }
            } else {
                if rt.n_res == 0 {
                    continue;
                }
                if rt.res_wake > self.cycle {
                    self.sched.expiry_skips += 1;
                    continue;
                }
            }
            self.sched.expiry_scans += 1;
            if cfg!(debug_assertions) {
                self.check_mirror(p, &rt.live);
            }
            let cycle = self.cycle;
            let mut expired = std::mem::take(&mut self.expired);
            expired.clear();
            let mut next_expiry = u64::MAX;
            let rt = &mut self.places[pi];
            rt.live.retain(|r| {
                if r.kind == TokenKind::Reservation {
                    if r.ready_at <= cycle {
                        expired.push(r.id);
                        return false;
                    }
                    next_expiry = next_expiry.min(r.ready_at);
                }
                true
            });
            rt.n_res -= expired.len() as u32;
            rt.res_wake = next_expiry;
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
                            if self.places[pi].n_instr == 0 {
                                continue;
                            }
                            if self.places[pi].wake > bound {
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
                        if self.places[pi].n_instr == 0 {
                            continue;
                        }
                        if self.places[pi].wake > self.cycle {
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
            for (p, rt) in self.places.iter().enumerate() {
                self.stats.occupancy[p] += (rt.live.len() + rt.pending.len()) as u64;
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
        self.sched.token_visits_skipped += self.places[pi].live.len() as u64;
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
    #[inline(always)]
    fn process_place(&mut self, model: &Model<D, R>, plan: &ExecPlan, p: PlaceId) -> bool {
        let pi = p.index();
        let n = self.places[pi].live.len();
        if n == 0 {
            return false;
        }
        if cfg!(debug_assertions) {
            self.check_mirror(p, &self.places[pi].live);
        }
        self.sched.place_visits += 1;
        self.sched.token_visits += n as u64;
        self.places[pi].wake = u64::MAX;
        let mut next_wake = u64::MAX;
        let mut fired_any = false;

        if n == 1 {
            // A lone resident: nothing can squash or move it before its
            // own visit, so its record is read directly.
            let r = self.places[pi].live[0];
            if r.kind == TokenKind::Instruction {
                fired_any = self.visit(model, plan, p, r, &mut next_wake);
            }
        } else {
            // An earlier firing in this scan can squash a later resident
            // (a flush, a join consuming from `p`), so each snapshotted
            // record is re-checked against the pool before its visit.
            let mut snapshot = std::mem::take(&mut self.scratch);
            snapshot.clear();
            snapshot.extend_from_slice(&self.places[pi].live);
            for &r in &snapshot {
                if r.kind != TokenKind::Instruction
                    || self.pool.get(r.id).is_none_or(|t| t.place != p)
                {
                    continue;
                }
                if self.visit(model, plan, p, r, &mut next_wake) {
                    fired_any = true;
                }
                if self.halted {
                    break;
                }
            }
            self.scratch = snapshot;
        }

        let rt = &mut self.places[pi];
        rt.wake = rt.wake.min(next_wake);
        fired_any
    }

    /// Visits one instruction token resident in `p`: a delayed token only
    /// lowers `next_wake`; a ready one tries the candidate transitions of
    /// its class, and if none fires it stalls and re-arms the place for
    /// the next cycle. Returns whether a transition fired.
    #[inline(always)]
    fn visit(
        &mut self,
        model: &Model<D, R>,
        plan: &ExecPlan,
        p: PlaceId,
        r: Resident,
        next_wake: &mut u64,
    ) -> bool {
        if r.ready_at > self.cycle {
            *next_wake = (*next_wake).min(r.ready_at);
            return false;
        }
        let pi = p.index();
        let (id, class) = (r.id, r.class.index());
        let fired = if let Some(sb) = plan.sb_lookup(pi, class) {
            // Direct-threaded fast path: the (place, class) pair was
            // pre-resolved to its single pure-data transition at compile
            // time; no candidate walk needed.
            self.try_fire_superblock(plan, sb, id, p)
        } else {
            match &plan.lookup {
                Lookup::PerPlaceClass { flat, span, n_classes } => {
                    let (start, len) = span[pi * n_classes + class];
                    (start..start + u32::from(len))
                        .any(|k| self.try_fire(model, plan, flat[k as usize] as usize, id, p))
                }
                Lookup::PerPlace { flat, span } => {
                    let subnet = plan.subnet_of_class[class];
                    let (start, len) = span[pi];
                    (start..start + u32::from(len)).any(|k| {
                        let tid = flat[k as usize] as usize;
                        plan.subnet_of_trans[tid] == subnet
                            && self.try_fire(model, plan, tid, id, p)
                    })
                }
                Lookup::FullScan { order } => {
                    let subnet = plan.subnet_of_class[class];
                    order.iter().any(|&t| {
                        let tid = t as usize;
                        plan.input_of_trans[tid] as usize == pi
                            && plan.subnet_of_trans[tid] == subnet
                            && self.try_fire(model, plan, tid, id, p)
                    })
                }
            }
        };
        if !fired {
            self.stats.stalls += 1;
            self.stats.place_stalls[pi] += 1;
            *next_wake = (*next_wake).min(self.cycle + 1);
        }
        fired
    }

    /// Checks capacity / extra inputs / guard; fires if enabled.
    #[inline(always)]
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
                    self.active = true;
                    self.sched.guard_hook_evals += 1;
                    let Some(GuardKind::Closure(guard)) = &model.transitions[tid].guard else {
                        unreachable!("GuardCode::Closure implies a closure guard")
                    };
                    let tok = self.pool.get(token).expect("token live during guard");
                    let data = tok.data.as_ref().expect("instruction token has data");
                    guard(&self.machine, data)
                }
                GuardCode::Prog(idx) => {
                    self.active |= plan.calls_hook[idx as usize];
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
    #[inline(always)]
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
        self.active = true;
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
            let class = tok.data.as_ref().expect("instruction token has data").op_class();
            self.insert_token(plan, token, sb.dest, ready, class);
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

    /// The oldest ready resident of `place` (any kind), if one exists.
    fn oldest_ready(&self, place: PlaceId) -> Option<Resident> {
        self.places[place.index()]
            .live
            .iter()
            .filter(|r| r.ready_at <= self.cycle)
            .min_by_key(|r| self.pool.get(r.id).expect("listed token is live").seq())
            .copied()
    }

    #[inline(always)]
    fn remove_from_place(&mut self, plan: &ExecPlan, place: usize, id: TokenId, kind: TokenKind) {
        let rt = &mut self.places[place];
        let pos = rt.live.iter().position(|r| r.id == id).expect("token listed in its place");
        if rt.live.len() == 1 {
            // A lone resident: `clear` skips `Vec::remove`'s shift, which
            // measured slower end to end.
            rt.live.clear();
        } else {
            // Order-preserving: the list order is the next scan's visit
            // order, which is observable.
            rt.live.remove(pos);
        }
        match kind {
            TokenKind::Instruction => rt.n_instr -= 1,
            TokenKind::Reservation => rt.n_res -= 1,
        }
        self.stage_occ[plan.hot_place[place].stage as usize] -= 1;
    }

    /// Inserts `id` (an instruction token of `class` becoming ready at
    /// `ready`) into `place`, dirtying the place for the scheduler: a live
    /// insert lowers the place's wake bound, a pending insert enlists it
    /// for the next latch commit.
    #[inline(always)]
    fn insert_token(
        &mut self,
        plan: &ExecPlan,
        id: TokenId,
        place: u32,
        ready: u64,
        class: OpClassId,
    ) {
        let pi = place as usize;
        let hp = plan.hot_place[pi];
        let r = Resident { id, ready_at: ready, class, kind: TokenKind::Instruction };
        let rt = &mut self.places[pi];
        if hp.two_list {
            if rt.pending.is_empty() {
                self.pending_dirty.push(place);
            }
            rt.pending.push(r);
        } else {
            rt.live.push(r);
            rt.n_instr += 1;
            rt.wake = rt.wake.min(ready);
            self.machine.regs.note_move(id, PlaceId::from_index(pi));
        }
        self.stage_occ[hp.stage as usize] += 1;
    }

    /// Deposits a reservation token in `place`, occupying its stage until
    /// `expiry`. Reservations occupy immediately; they are not deferred
    /// even on two-list places, since their only observable effect is
    /// stage occupancy (which is always next-state).
    fn insert_reservation(&mut self, plan: &ExecPlan, place: PlaceId, expiry: u64) {
        let id = self.pool.alloc(TokenKind::Reservation, None, place, self.cycle, expiry);
        let rt = &mut self.places[place.index()];
        rt.live.push(Resident {
            id,
            ready_at: expiry,
            class: NO_CLASS,
            kind: TokenKind::Reservation,
        });
        rt.n_res += 1;
        rt.res_wake = rt.res_wake.min(expiry);
        self.stage_occ[plan.hot_place[place.index()].stage as usize] += 1;
        self.stats.reservations += 1;
    }

    /// Debug builds check the mirror invariant wherever records are read:
    /// each record in `list` names a live token in `p` and agrees with the
    /// pooled token on `ready_at`, `kind` and, for an instruction token,
    /// the payload's class.
    fn check_mirror(&self, p: PlaceId, list: &[Resident]) {
        for r in list {
            let t = self.pool.get(r.id).unwrap_or_else(|| panic!("{p} lists dead {r:?}"));
            assert!(
                t.place == p && t.ready_at == r.ready_at && t.kind == r.kind,
                "{p} lists {r:?}, but the pool holds place {}, ready_at {}, kind {:?}",
                t.place,
                t.ready_at,
                t.kind
            );
            if let Some(data) = &t.data {
                assert_eq!(data.op_class(), r.class, "{p} lists {r:?} under a stale class");
            }
        }
    }

    /// Fires transition `tid`, moving `token` from `place` to the
    /// destination.
    #[inline(always)]
    fn fire(
        &mut self,
        model: &Model<D, R>,
        plan: &ExecPlan,
        tid: usize,
        h: HotTrans,
        token: TokenId,
        place: PlaceId,
    ) {
        self.active = true;
        let cycle = self.cycle;

        // Consume extra-input tokens (joins) first.
        if h.has_extra {
            for k in 0..model.transitions[tid].extra_inputs.len() {
                let x = model.transitions[tid].extra_inputs[k];
                let victim =
                    self.oldest_ready(x).expect("extra input availability was checked in try_fire");
                self.remove_from_place(plan, x.index(), victim.id, victim.kind);
                if victim.kind == TokenKind::Instruction {
                    self.machine.regs.release(victim.id);
                }
                self.pool.discard(victim.id);
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
            // The action may have re-classed the token (a decode step).
            let class = tok.data.as_ref().expect("instruction token has data").op_class();
            self.insert_token(plan, token, h.dest, ready, class);
        }

        // Reservation-token output arcs.
        if h.has_res {
            for k in 0..model.transitions[tid].reservations.len() {
                let r = model.transitions[tid].reservations[k];
                self.insert_reservation(plan, r.place, cycle + u64::from(r.expire));
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
            self.insert_reservation(plan, place, cycle + u64::from(expire));
        }
        for (payload, place, delay) in fx.emits.drain(..) {
            let ready = cycle + u64::from(delay);
            let class = payload.op_class();
            let id = self.pool.alloc(TokenKind::Instruction, Some(payload), place, cycle, ready);
            self.insert_token(plan, id, place.index() as u32, ready, class);
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
        let rt = &mut self.places[pi];
        ids.extend(rt.live.drain(..).chain(rt.pending.drain(..)).map(|r| r.id));
        // The place is now empty; reset its activity metadata wholesale.
        rt.n_instr = 0;
        rt.n_res = 0;
        rt.wake = u64::MAX;
        rt.res_wake = u64::MAX;
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
                self.active = true;
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
                    let class = data.op_class();
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
                    self.insert_token(plan, id, hs.dest, ready, class);
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
