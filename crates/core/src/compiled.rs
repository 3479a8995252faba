//! The compile step of the paper's flow: `Model --analysis--> CompiledModel
//! --instantiate--> Engine`.
//!
//! The paper's central claim (Section 4) is that an RCPN model can be
//! *statically analyzed and compiled into* a high-performance cycle-accurate
//! simulator. [`CompiledModel`] is that generated-simulator artifact made
//! explicit: it partially evaluates the model's static structure into flat
//! hot tables (an `ExecPlan`) exactly once, and can then instantiate any
//! number of independent [`Engine`]s that share the tables and the model's
//! guard/action closures by reference. Instantiation allocates only mutable
//! per-run state (token pool, place lists, statistics), which is the
//! prerequisite for batched and sharded simulation.
//!
//! The [`EngineConfig`] passed at compile time selects between compiled
//! variants: the candidate-transition [`TableMode`] decides *which* lookup
//! table is materialized in the plan (per-place-class spans, per-place
//! spans, or a global priority-sorted scan list), and
//! `two_list_everywhere` decides the evaluation order and commit
//! discipline. The engine's per-cycle loop consumes only the variant that
//! was compiled; no other table is built or consulted.

use std::sync::Arc;

use crate::engine::{Engine, EngineConfig, TableMode};
use crate::ids::{PlaceId, TransitionId};
use crate::ir::{MicroOp, Program};
use crate::model::{ActionKind, GuardKind, Machine, Model};
use crate::token::InstrData;

/// Partially evaluated per-transition facts (one cache line of PODs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotTrans {
    pub(crate) dest: u32,
    pub(crate) dest_stage: u32,
    /// Capacity check can be skipped: destination is `end` or shares the
    /// input's stage.
    pub(crate) cap_exempt: bool,
    pub(crate) dest_is_end: bool,
    /// `transition.delay + dest place delay` (the no-override ready delta).
    pub(crate) base_ready: u64,
    /// `transition.delay` alone (token-delay override case).
    pub(crate) tdelay: u64,
    pub(crate) cap: u32,
    /// The transition gates on something ([`GuardCode`] is not `None`).
    /// Honest by construction: empty IR guard programs compile to `None`.
    pub(crate) has_guard: bool,
    /// Firing performs action work ([`ActionCode`] is not `None`, or the
    /// guard is fused and acquires at fire time). Honest by construction.
    pub(crate) has_action: bool,
    pub(crate) has_extra: bool,
    pub(crate) has_res: bool,
}

/// Compiled guard representation of one transition: how `try_fire`
/// evaluates its enabling condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GuardCode {
    /// No guard: always enabled (capacity/joins permitting).
    None,
    /// Call the closure stored on the model's transition.
    Closure,
    /// Interpret `programs[idx]` (all ops pure).
    Prog(u32),
    /// The fusion product: the guard was exactly `[CheckReady {
    /// fwd_mask }]` and the action began with a matching
    /// `AcquireOperands`. `try_fire` runs the fused check (memoizing each
    /// operand's source), and `fire` acquires from the memo before
    /// running the remaining [`ActionCode`] — the acquire never re-probes
    /// what the guard just established.
    Fused {
        /// Place-index bitmask of the resolved forwarding set.
        fwd_mask: u64,
    },
}

/// Compiled action representation of one transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ActionCode {
    /// No action work at fire time.
    None,
    /// Call the closure stored on the model's transition.
    Closure,
    /// Interpret `programs[idx]` in order.
    Prog(u32),
}

/// Per-transition dispatch pair, indexed like `hot`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotDispatch {
    pub(crate) guard: GuardCode,
    pub(crate) action: ActionCode,
}

/// Partially evaluated per-place facts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotPlace {
    pub(crate) stage: u32,
    pub(crate) two_list: bool,
    pub(crate) delay: u64,
    pub(crate) cap: u32,
    pub(crate) is_end: bool,
    /// Number of transitions that consume tokens from this place (input or
    /// extra-input arcs) — `dependents[p].len()`, denormalized so the
    /// activity scheduler's skip accounting never touches the index lists.
    pub(crate) n_dependents: u32,
}

/// Partially evaluated per-source facts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotSource {
    pub(crate) dest: u32,
    pub(crate) width: u32,
}

/// One compiled superblock: the fully pre-resolved fast-path form of the
/// *single* candidate transition of one (place, class) pair.
///
/// Formation rules (the compile pass admits a transition only when every
/// one of these holds — see `DESIGN.md` §2d):
///
/// * it is the only transition its (place, class) pair can try, so the
///   priority walk degenerates to one candidate;
/// * it has no extra (join) inputs and no static reservation arcs;
/// * its guard and action are data — `None`, a folded IR program, or the
///   fused check+acquire pair; a closure anywhere bails;
/// * every program op is [`MicroOp::is_superblock_op`]: no `CallHook`
///   (the hook boundary), and no `ReserveRes`/`EmitRedirect`/
///   `ReleaseRes` (their effects go through the engine's deferred-`Fx`
///   machinery, which the fast path deliberately never materializes).
///
/// The op ranges point into the plan's flattened `sb_ops` stream, laid
/// out contiguously per class, so a token walking its path streams
/// through memory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SbBlock {
    pub(crate) tid: u32,
    /// Guard op range in `sb_ops` (empty for fused or guard-less blocks).
    pub(crate) guard: (u32, u32),
    /// Action op range in `sb_ops`.
    pub(crate) action: (u32, u32),
    /// `Some(fwd_mask)` when the guard is the fused check+acquire pair.
    pub(crate) fused: Option<u64>,
    pub(crate) dest: u32,
    pub(crate) dest_stage: u32,
    pub(crate) dest_is_end: bool,
    pub(crate) cap_exempt: bool,
    pub(crate) cap: u32,
    pub(crate) base_ready: u64,
    pub(crate) tdelay: u64,
}

/// The candidate-transition lookup structure; exactly one variant is
/// materialized per compiled model, selected by [`TableMode`].
#[derive(Debug, Clone)]
pub(crate) enum Lookup {
    /// The paper's `sorted_transitions[p, IType]` table, flattened:
    /// `span[p * n_classes + class]` indexes into `flat`.
    PerPlaceClass { flat: Vec<u32>, span: Vec<(u32, u16)>, n_classes: usize },
    /// One priority-sorted list per place (`span[p]` into `flat`); class
    /// membership is re-checked dynamically against `subnet_of_trans`.
    PerPlace { flat: Vec<u32>, span: Vec<(u32, u16)> },
    /// No tables: every transition of the net, globally priority-sorted,
    /// is scanned for each token — the generic Petri-net search.
    FullScan { order: Vec<u32> },
}

/// The non-generic compiled execution plan: every statically derivable
/// fact the per-cycle loop needs, as dense arrays. Shared (via `Arc`)
/// between a [`CompiledModel`] and all engines instantiated from it.
#[derive(Debug)]
pub(crate) struct ExecPlan {
    /// Effective evaluation order (reverse topological, or declaration
    /// order when compiled with `two_list_everywhere`).
    pub(crate) order: Vec<PlaceId>,
    /// Run the generic two-storage fixpoint scheme instead of the single
    /// reverse-topological pass.
    pub(crate) fixpoint: bool,
    pub(crate) res_places: Vec<PlaceId>,
    pub(crate) lookup: Lookup,
    /// Sub-net of each operation class (dynamic class checks).
    pub(crate) subnet_of_class: Vec<u32>,
    /// Sub-net of each transition (dynamic class checks).
    pub(crate) subnet_of_trans: Vec<u32>,
    /// Input place of each transition (full-scan filtering).
    pub(crate) input_of_trans: Vec<u32>,
    /// Reverse index: for each place, the transitions whose enabling
    /// depends on that place's token population (input or extra-input
    /// arcs, sorted, deduplicated). This is the dependency structure the
    /// activity-driven scheduler's dirty-place worklist is justified by —
    /// a transition can only become newly enabled through one of its input
    /// places changing, a delayed token maturing, capacity freeing, or a
    /// guard flipping, and the scheduler re-evaluates on every one of
    /// those events (see `engine.rs`).
    pub(crate) dependents: Vec<Box<[TransitionId]>>,
    pub(crate) hot: Vec<HotTrans>,
    pub(crate) hot_place: Vec<HotPlace>,
    pub(crate) hot_source: Vec<HotSource>,
    /// Per-transition guard/action dispatch (parallel to `hot`), produced
    /// by the fold + fusion pass over the model's IR programs.
    pub(crate) dispatch: Vec<HotDispatch>,
    /// The folded program pool `GuardCode::Prog`/`ActionCode::Prog` index
    /// into.
    pub(crate) programs: Vec<Program>,
    /// Whether each program in `programs` contains a `CallHook`: a guard
    /// that can read machine state outside the register file, so a cycle
    /// that evaluates it is never fast-forwarded (`engine.rs`).
    pub(crate) calls_hook: Vec<bool>,
    pub(crate) n_stages: usize,
    /// (place, class) → index into `sb_blocks` (`u32::MAX` = no
    /// superblock: fall back to the generic candidate walk). Empty when
    /// superblock dispatch is disabled ([`EngineConfig::superblocks`]).
    pub(crate) sb_index: Vec<u32>,
    pub(crate) sb_blocks: Vec<SbBlock>,
    /// The flattened op stream `SbBlock` guard/action ranges point into.
    pub(crate) sb_ops: Vec<MicroOp>,
    /// Class count the `sb_index` rows are strided by.
    pub(crate) sb_classes: usize,
}

impl ExecPlan {
    /// The superblock of a (place, class) pair, if one was compiled.
    #[inline]
    pub(crate) fn sb_lookup(&self, place: usize, class: usize) -> Option<&SbBlock> {
        let idx = *self.sb_index.get(place * self.sb_classes + class)?;
        self.sb_blocks.get(idx as usize)
    }
}

impl ExecPlan {
    fn build<D, R>(model: &Model<D, R>, cfg: &EngineConfig) -> Self {
        let n_places = model.place_count();
        let (order, two_list): (Vec<PlaceId>, Vec<bool>) = if cfg.two_list_everywhere {
            ((0..n_places).map(PlaceId::from_index).collect(), vec![true; n_places])
        } else {
            (
                model.analysis.order.clone(),
                (0..n_places).map(|i| model.analysis.two_list[i]).collect(),
            )
        };
        // Every place the expiry scan must visit: static ResArc targets
        // plus the targets of IR `ReserveRes` ops.
        let mut res_places: Vec<PlaceId> =
            model.transitions.iter().flat_map(|t| t.reservations.iter().map(|r| r.place)).collect();
        for t in &model.transitions {
            if let Some(ActionKind::Ir(prog)) = &t.action {
                for op in prog.ops() {
                    if let MicroOp::ReserveRes { place, .. } = op {
                        res_places.push(*place);
                    }
                }
            }
        }
        res_places.sort();
        res_places.dedup();

        // Fold + fuse the guard/action representations into dispatch
        // codes. Folding drops empty programs (`has_guard`/`has_action`
        // stay honest); fusion collapses a `[CheckReady]` guard with the
        // `AcquireOperands` head of its action (same mask, no join
        // inputs — joins release victim reservations between the guard
        // and the action, which would invalidate the fused memo).
        let mut programs: Vec<Program> = Vec::new();
        let mut intern = |p: Program| -> u32 {
            programs.push(p);
            (programs.len() - 1) as u32
        };
        let dispatch: Vec<HotDispatch> = model
            .transitions
            .iter()
            .map(|t| {
                let guard_prog = match &t.guard {
                    Some(GuardKind::Ir(p)) => Some(p.clone().fold()),
                    _ => None,
                };
                let action_prog = match &t.action {
                    Some(ActionKind::Ir(p)) => Some(p.clone().fold()),
                    _ => None,
                };
                let fusable = match (&guard_prog, &action_prog) {
                    (Some(g), Some(a)) if t.extra_inputs.is_empty() => match (g.ops(), a.ops()) {
                        (
                            [MicroOp::CheckReady { fwd_mask: gm }],
                            [MicroOp::AcquireOperands { fwd_mask: am }, ..],
                        ) => (gm == am).then_some(*gm),
                        _ => None,
                    },
                    _ => None,
                };
                if let Some(fwd_mask) = fusable {
                    let rest = Program::new(
                        action_prog.expect("fusable implies action").ops()[1..].to_vec(),
                    );
                    let action = if rest.is_empty() {
                        ActionCode::None
                    } else {
                        ActionCode::Prog(intern(rest))
                    };
                    return HotDispatch { guard: GuardCode::Fused { fwd_mask }, action };
                }
                let guard = match (&t.guard, guard_prog) {
                    (None, _) => GuardCode::None,
                    (Some(GuardKind::Closure(_)), _) => GuardCode::Closure,
                    (Some(GuardKind::Ir(_)), Some(p)) if p.is_empty() => GuardCode::None,
                    (Some(GuardKind::Ir(_)), Some(p)) => GuardCode::Prog(intern(p)),
                    (Some(GuardKind::Ir(_)), None) => unreachable!("Ir guard folds to Some"),
                };
                let action = match (&t.action, action_prog) {
                    (None, _) => ActionCode::None,
                    (Some(ActionKind::Closure(_)), _) => ActionCode::Closure,
                    (Some(ActionKind::Ir(_)), Some(p)) if p.is_empty() => ActionCode::None,
                    (Some(ActionKind::Ir(_)), Some(p)) => ActionCode::Prog(intern(p)),
                    (Some(ActionKind::Ir(_)), None) => unreachable!("Ir action folds to Some"),
                };
                HotDispatch { guard, action }
            })
            .collect();

        // Reverse index: which transitions consume from each place.
        let mut dep_lists: Vec<Vec<TransitionId>> = vec![Vec::new(); n_places];
        for (ti, t) in model.transitions.iter().enumerate() {
            let tid = TransitionId::from_index(ti);
            dep_lists[t.input.index()].push(tid);
            for x in &t.extra_inputs {
                dep_lists[x.index()].push(tid);
            }
        }
        let dependents: Vec<Box<[TransitionId]>> = dep_lists
            .into_iter()
            .map(|mut l| {
                l.sort_unstable();
                l.dedup();
                l.into_boxed_slice()
            })
            .collect();

        // Partial evaluation of the static structure into flat tables.
        let hot_place: Vec<HotPlace> = model
            .places
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let st = &model.stages[p.stage.index()];
                HotPlace {
                    stage: p.stage.index() as u32,
                    two_list: two_list[i],
                    delay: u64::from(p.delay),
                    cap: st.capacity,
                    is_end: st.is_end,
                    n_dependents: dependents[i].len() as u32,
                }
            })
            .collect();
        let hot: Vec<HotTrans> = model
            .transitions
            .iter()
            .zip(&dispatch)
            .map(|(t, d)| {
                let dp = &hot_place[t.dest.index()];
                let sp = &hot_place[t.input.index()];
                let fused = matches!(d.guard, GuardCode::Fused { .. });
                HotTrans {
                    dest: t.dest.index() as u32,
                    dest_stage: dp.stage,
                    cap_exempt: dp.is_end || dp.stage == sp.stage,
                    dest_is_end: dp.is_end,
                    base_ready: u64::from(t.delay) + dp.delay,
                    tdelay: u64::from(t.delay),
                    cap: dp.cap,
                    has_guard: d.guard != GuardCode::None,
                    has_action: d.action != ActionCode::None || fused,
                    has_extra: !t.extra_inputs.is_empty(),
                    has_res: !t.reservations.is_empty(),
                }
            })
            .collect();
        let hot_source: Vec<HotSource> = model
            .sources
            .iter()
            .map(|s| HotSource { dest: s.dest.index() as u32, width: s.max_per_cycle })
            .collect();

        // Superblock formation: for every (place, class) pair whose
        // candidate list holds exactly one transition that is pure data
        // (see [`SbBlock`] for the admission rules), pre-resolve the
        // whole try-fire into a block over a flattened op stream. The
        // class-outer iteration lays each class's path out contiguously.
        let n_classes = model.analysis.n_classes;
        let mut sb_index = Vec::new();
        let mut sb_blocks: Vec<SbBlock> = Vec::new();
        let mut sb_ops: Vec<MicroOp> = Vec::new();
        if cfg.superblocks {
            sb_index = vec![u32::MAX; n_places * n_classes];
            for ci in 0..n_classes {
                for pi in 0..n_places {
                    let cands = &model.analysis.sorted[pi * n_classes + ci];
                    if cands.len() != 1 {
                        continue;
                    }
                    let ti = cands[0].index();
                    let t = &model.transitions[ti];
                    if !t.extra_inputs.is_empty() || !t.reservations.is_empty() {
                        continue;
                    }
                    let d = &dispatch[ti];
                    let guard_ops: &[MicroOp] = match d.guard {
                        GuardCode::None | GuardCode::Fused { .. } => &[],
                        GuardCode::Prog(i) => programs[i as usize].ops(),
                        GuardCode::Closure => continue,
                    };
                    let action_ops: &[MicroOp] = match d.action {
                        ActionCode::None => &[],
                        ActionCode::Prog(i) => programs[i as usize].ops(),
                        ActionCode::Closure => continue,
                    };
                    if !guard_ops.iter().chain(action_ops).all(MicroOp::is_superblock_op) {
                        continue;
                    }
                    let fused = match d.guard {
                        GuardCode::Fused { fwd_mask } => Some(fwd_mask),
                        _ => None,
                    };
                    let g0 = sb_ops.len() as u32;
                    sb_ops.extend_from_slice(guard_ops);
                    let g1 = sb_ops.len() as u32;
                    sb_ops.extend_from_slice(action_ops);
                    let a1 = sb_ops.len() as u32;
                    let h = &hot[ti];
                    sb_index[pi * n_classes + ci] = sb_blocks.len() as u32;
                    sb_blocks.push(SbBlock {
                        tid: ti as u32,
                        guard: (g0, g1),
                        action: (g1, a1),
                        fused,
                        dest: h.dest,
                        dest_stage: h.dest_stage,
                        dest_is_end: h.dest_is_end,
                        cap_exempt: h.cap_exempt,
                        cap: h.cap,
                        base_ready: h.base_ready,
                        tdelay: h.tdelay,
                    });
                }
            }
        }

        let subnet_of_class: Vec<u32> =
            model.classes.iter().map(|c| c.subnet.index() as u32).collect();
        let subnet_of_trans: Vec<u32> =
            model.transitions.iter().map(|t| t.subnet.index() as u32).collect();
        let input_of_trans: Vec<u32> =
            model.transitions.iter().map(|t| t.input.index() as u32).collect();

        // Materialize only the lookup variant this plan was compiled for.
        let flatten = |lists: &[Box<[TransitionId]>]| {
            let mut flat: Vec<u32> = Vec::new();
            let mut span: Vec<(u32, u16)> = Vec::with_capacity(lists.len());
            for list in lists {
                let start = flat.len() as u32;
                flat.extend(list.iter().map(|t| t.index() as u32));
                assert!(
                    list.len() <= usize::from(u16::MAX),
                    "candidate-transition list exceeds the u16 span limit"
                );
                span.push((start, list.len() as u16));
            }
            (flat, span)
        };
        let lookup = match cfg.table_mode {
            TableMode::PerPlaceClass => {
                let (flat, span) = flatten(&model.analysis.sorted);
                Lookup::PerPlaceClass { flat, span, n_classes: model.analysis.n_classes }
            }
            TableMode::PerPlace => {
                let (flat, span) = flatten(&model.analysis.by_place);
                Lookup::PerPlace { flat, span }
            }
            TableMode::FullScan => {
                let mut scan: Vec<u32> = (0..model.transition_count() as u32).collect();
                scan.sort_by_key(|&t| (model.transitions[t as usize].priority, t));
                Lookup::FullScan { order: scan }
            }
        };

        let calls_hook = programs
            .iter()
            .map(|p| p.ops().iter().any(|op| matches!(op, MicroOp::CallHook(_))))
            .collect();

        ExecPlan {
            order,
            fixpoint: cfg.two_list_everywhere,
            res_places,
            lookup,
            subnet_of_class,
            subnet_of_trans,
            input_of_trans,
            dependents,
            hot,
            hot_place,
            hot_source,
            dispatch,
            programs,
            calls_hook,
            n_stages: model.stage_count(),
            sb_index,
            sb_blocks,
            sb_ops,
            sb_classes: n_classes,
        }
    }
}

/// A compiled RCPN model: the generated-simulator artifact.
///
/// Produced by [`CompiledModel::compile`] (or `compile_with` for explicit
/// [`EngineConfig`] variants); consumed by [`CompiledModel::instantiate`],
/// which creates an independent [`Engine`] sharing the compiled tables.
///
/// Cloning a `CompiledModel` is cheap (two `Arc` clones) and instantiated
/// engines keep the artifact alive, so the typical pattern is:
///
/// ```
/// use rcpn::prelude::*;
/// use rcpn::compiled::CompiledModel;
///
/// #[derive(Debug)]
/// struct Tok(OpClassId);
/// impl InstrData for Tok {
///     fn op_class(&self) -> OpClassId { self.0 }
/// }
///
/// # fn main() -> Result<(), rcpn::error::BuildError> {
/// let mut b = ModelBuilder::<Tok, u32>::new();
/// let s = b.stage("S", 1);
/// let p = b.place("P", s);
/// let end = b.end_place();
/// let (alu, _) = b.class_net("Alu");
/// b.transition(alu, "retire").from(p).to(end).done();
/// b.source("feed").to(p).produce(move |_m, _fx| Some(Tok(alu))).done();
///
/// // Compile once...
/// let compiled = CompiledModel::compile(b.build()?);
/// // ...instantiate many times.
/// let mut a = compiled.instantiate(Machine::new(RegisterFile::new(), 0u32));
/// let mut b = compiled.instantiate(Machine::new(RegisterFile::new(), 0u32));
/// a.run(10);
/// b.run(10);
/// assert_eq!(a.stats().retired, b.stats().retired);
/// # Ok(())
/// # }
/// ```
pub struct CompiledModel<D: InstrData, R> {
    pub(crate) model: Arc<Model<D, R>>,
    pub(crate) plan: Arc<ExecPlan>,
    pub(crate) cfg: EngineConfig,
}

impl<D: InstrData, R> Clone for CompiledModel<D, R> {
    fn clone(&self) -> Self {
        CompiledModel {
            model: Arc::clone(&self.model),
            plan: Arc::clone(&self.plan),
            cfg: self.cfg.clone(),
        }
    }
}

impl<D: InstrData, R> CompiledModel<D, R> {
    /// Compiles `model` with the default (fully optimized) configuration.
    pub fn compile(model: Model<D, R>) -> Self {
        Self::compile_with(model, EngineConfig::default())
    }

    /// Compiles `model` into the variant selected by `cfg`.
    pub fn compile_with(model: Model<D, R>, cfg: EngineConfig) -> Self {
        let plan = ExecPlan::build(&model, &cfg);
        CompiledModel { model: Arc::new(model), plan: Arc::new(plan), cfg }
    }

    /// The source model.
    pub fn model(&self) -> &Model<D, R> {
        &self.model
    }

    /// The configuration this model was compiled with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The candidate-lookup variant this model was compiled for.
    pub fn table_mode(&self) -> TableMode {
        self.cfg.table_mode
    }

    /// The transitions whose enabling depends on `place`'s token
    /// population (input or extra-input arcs; sorted, deduplicated).
    ///
    /// This is the compiled place→transitions reverse index the
    /// activity-driven scheduler accounts skipped work against; it is
    /// exposed so tests can validate the dependency structure.
    pub fn dependents_of(&self, place: PlaceId) -> &[TransitionId] {
        &self.plan.dependents[place.index()]
    }

    /// Number of transitions whose guard or action is dispatched through
    /// the micro-op IR (including fused ones) — zero for a purely
    /// closure-wired model. Exposed so tests can assert the IR path is
    /// actually reachable, not just compiled.
    pub fn ir_transitions(&self) -> usize {
        self.plan
            .dispatch
            .iter()
            .filter(|d| {
                !matches!(
                    (d.guard, d.action),
                    (GuardCode::None | GuardCode::Closure, ActionCode::None | ActionCode::Closure)
                )
            })
            .count()
    }

    /// Number of transitions whose `CheckReady` guard was fused with the
    /// `AcquireOperands` head of their action by the compile pass.
    pub fn fused_transitions(&self) -> usize {
        self.plan.dispatch.iter().filter(|d| matches!(d.guard, GuardCode::Fused { .. })).count()
    }

    /// Number of superblocks formed: (place, class) pairs that dispatch
    /// through a pre-resolved block instead of the candidate walk. Zero
    /// when compiled with [`EngineConfig::superblocks`] off.
    pub fn superblocks(&self) -> usize {
        self.plan.sb_blocks.len()
    }

    /// Creates an independent engine over fresh mutable state (token pool,
    /// place lists, statistics) sharing this compiled artifact.
    pub fn instantiate(&self, machine: Machine<R>) -> Engine<D, R> {
        Engine::from_compiled(self.clone(), machine)
    }
}

impl<D: InstrData, R> std::fmt::Debug for CompiledModel<D, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledModel")
            .field("places", &self.model.place_count())
            .field("transitions", &self.model.transition_count())
            .field("table_mode", &self.cfg.table_mode)
            .field("fixpoint", &self.plan.fixpoint)
            .finish()
    }
}
