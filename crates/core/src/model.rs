//! The static structure of an RCPN model.
//!
//! An RCPN model (paper, Section 3) consists of:
//!
//! * **Stages** — pipeline storage elements (latches, reservation stations)
//!   with a capacity; the virtual `end` stage has unlimited capacity.
//! * **Places** — instruction states; every place is assigned to a stage,
//!   and places assigned to the same stage share its capacity.
//! * **Transitions** — the functionality executed when an instruction moves
//!   between states, guarded by an enabling condition, with a priority on
//!   the (place → transition) arc for deterministic alternative selection.
//! * **Sources** — transitions with no input place (the model "starts with a
//!   transition"); they form the instruction-independent sub-net that
//!   generates instruction tokens, executed at the end of every cycle.
//! * **Sub-nets** — one per operation class, plus the independent sub-net.
//! * **Operation classes** — groups of instructions that share a pipeline
//!   path; each class designates the sub-net its tokens flow through.
//!
//! Models are constructed with [`crate::builder::ModelBuilder`] and executed
//! by [`crate::engine::Engine`].

use crate::analysis::Analysis;
use crate::ids::{OpClassId, PlaceId, SourceId, StageId, SubnetId, TransitionId};
use crate::ir::Program;
use crate::reg::RegisterFile;

/// Unlimited stage capacity (used by the virtual `end` stage).
pub const UNLIMITED: u32 = u32::MAX;

/// Arguments a named-hook factory receives when a closure is reconstructed
/// from a serialized artifact (see [`crate::artifact`]).
///
/// Spec-lowered closures capture per-step context — the forwarding window,
/// the flush set, the step's input/destination places. When such a closure
/// is registered under a stable name, that captured context is recorded
/// here so the registry factory can rebuild an equivalent closure when
/// the model is loaded back from an artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HookArgs {
    /// Places the closure reads forwarded results from (the step's
    /// forwarding window, in model order).
    pub fwd: Vec<PlaceId>,
    /// Places the closure flushes on a redirect (the step's squash set).
    pub flush: Vec<PlaceId>,
    /// The step's input place, when the closure depends on it.
    pub from: Option<PlaceId>,
    /// The step's destination place, when the closure depends on it.
    pub to: Option<PlaceId>,
}

/// A stable reference to an escape-hatch closure: a registry key plus the
/// captured [`HookArgs`] needed to reconstruct it.
///
/// Closures themselves cannot be serialized; a model whose every closure
/// carries a `NamedHook` can. The artifact encoder stores `(key, args)` and
/// the decoder asks a [`crate::artifact::HookRegistry`] to rebuild the
/// closure. Models register names through the `*_named` builder and spec
/// methods; unnamed closures keep working but make the model unserializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedHook {
    /// The registry key (e.g. `"arm.fetch_produce"`). Keys are a stable
    /// public contract: renaming one invalidates every artifact that
    /// references it.
    pub key: String,
    /// Captured per-step context the factory rebuilds the closure from.
    pub args: HookArgs,
}

impl NamedHook {
    /// A named hook with no captured context.
    pub fn new(key: impl Into<String>) -> Self {
        NamedHook { key: key.into(), args: HookArgs::default() }
    }

    /// A named hook with captured per-step context.
    pub fn with_args(key: impl Into<String>, args: HookArgs) -> Self {
        NamedHook { key: key.into(), args }
    }
}

/// The machine state visible to guards and actions: the register file plus
/// model-specific resources `R` (memory, caches, branch predictor, PC, ...).
///
/// The paper allows transitions to "directly reference non-pipeline units
/// such as branch predictor, memory, cache etc."; those units live in `R`.
#[derive(Debug)]
pub struct Machine<R> {
    /// The register file and hazard scoreboard.
    pub regs: RegisterFile,
    /// Model-specific resources.
    pub res: R,
    /// Current simulation cycle (mirrors the engine's cycle counter).
    pub cycle: u64,
}

impl<R> Machine<R> {
    /// Creates a machine from a register file and resources.
    pub fn new(regs: RegisterFile, res: R) -> Self {
        Machine { regs, res, cycle: 0 }
    }
}

/// Guard condition of a transition: may inspect the machine and the token
/// payload, must not mutate anything.
///
/// Guards (like every model closure) must be `Send + Sync`: a compiled
/// model is shared by reference between every engine instantiated from it,
/// including engines running concurrently on [`crate::batch`] workers.
/// Closures therefore may capture only immutable shared data; all mutable
/// state belongs in the per-engine [`Machine`] they receive as an argument.
pub type Guard<D, R> = Box<dyn Fn(&Machine<R>, &D) -> bool + Send + Sync>;

/// Action of a transition: executed when the transition fires. Receives the
/// machine, the moving token's payload, and a [`Fx`] handle for side effects
/// on the net itself (emitting tokens, flushing places, delays, halting).
///
/// `Send + Sync` for the same reason as [`Guard`]: the closure is shared
/// across concurrently running engines; per-run mutable state lives in the
/// `Machine` argument, never in captures.
pub type Action<D, R> = Box<dyn Fn(&mut Machine<R>, &mut D, &mut Fx<D>) + Send + Sync>;

/// Guard of a source transition (no token payload exists yet).
/// `Send + Sync` for the same reason as [`Guard`].
pub type SourceGuard<R> = Box<dyn Fn(&Machine<R>) -> bool + Send + Sync>;

/// Action of a source transition: produces the payload of a new instruction
/// token, or `None` to stall this cycle.
/// `Send + Sync` for the same reason as [`Guard`].
pub type SourceAction<D, R> = Box<dyn Fn(&mut Machine<R>, &mut Fx<D>) -> Option<D> + Send + Sync>;

/// How a transition's guard is represented: an opaque closure, or a typed
/// micro-op [`Program`] the engine interprets inline (see [`crate::ir`]).
///
/// Synthesized behavior (spec-layer read steps) lowers to `Ir`; closures
/// remain for user-supplied custom semantics. The compile step
/// ([`crate::compiled`]) folds and fuses IR programs; the engine counts
/// each representation separately in
/// [`crate::stats::SchedStats::guard_ir_evals`] /
/// [`crate::stats::SchedStats::guard_hook_evals`].
pub enum GuardKind<D, R> {
    /// An opaque user-supplied guard closure.
    Closure(Guard<D, R>),
    /// A typed micro-op program (pure guard ops only; validated at build).
    Ir(Program),
}

/// How a transition's action is represented; see [`GuardKind`].
pub enum ActionKind<D, R> {
    /// An opaque user-supplied action closure.
    Closure(Action<D, R>),
    /// A typed micro-op program.
    Ir(Program),
}

impl<D, R> GuardKind<D, R> {
    /// The IR program, when this guard is IR-represented.
    pub fn ir(&self) -> Option<&Program> {
        match self {
            GuardKind::Ir(p) => Some(p),
            GuardKind::Closure(_) => None,
        }
    }
}

impl<D, R> ActionKind<D, R> {
    /// The IR program, when this action is IR-represented.
    pub fn ir(&self) -> Option<&Program> {
        match self {
            ActionKind::Ir(p) => Some(p),
            ActionKind::Closure(_) => None,
        }
    }
}

impl<D, R> std::fmt::Debug for GuardKind<D, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardKind::Closure(_) => f.write_str("Closure(..)"),
            GuardKind::Ir(p) => f.debug_tuple("Ir").field(p).finish(),
        }
    }
}

impl<D, R> std::fmt::Debug for ActionKind<D, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ActionKind::Closure(_) => f.write_str("Closure(..)"),
            ActionKind::Ir(p) => f.debug_tuple("Ir").field(p).finish(),
        }
    }
}

/// The model's hook table: the closures [`crate::ir::MicroOp::CallHook`]
/// escapes into. A `CallHook(n)` in a guard program calls `guards[n]`; in
/// an action program, `actions[n]`. Hook indices are handed out by
/// [`crate::builder::ModelBuilder::hook_guard`] /
/// [`crate::builder::ModelBuilder::hook_action`] and validated against
/// this table at build time.
pub struct Hooks<D, R> {
    pub(crate) guards: Vec<Guard<D, R>>,
    pub(crate) actions: Vec<Action<D, R>>,
    pub(crate) guard_names: Vec<Option<NamedHook>>,
    pub(crate) action_names: Vec<Option<NamedHook>>,
}

impl<D, R> Hooks<D, R> {
    pub(crate) fn new() -> Self {
        Hooks {
            guards: Vec::new(),
            actions: Vec::new(),
            guard_names: Vec::new(),
            action_names: Vec::new(),
        }
    }

    /// Number of registered guard hooks.
    pub fn guard_count(&self) -> usize {
        self.guards.len()
    }

    /// Number of registered action hooks.
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }
}

impl<D, R> std::fmt::Debug for Hooks<D, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hooks")
            .field("guards", &self.guards.len())
            .field("actions", &self.actions.len())
            .finish()
    }
}

/// Side-effect collector passed to actions while a transition fires.
///
/// Mutations requested through `Fx` are applied by the engine after the
/// action returns, keeping firing atomic.
#[derive(Debug)]
pub struct Fx<D> {
    pub(crate) token: Option<crate::ids::TokenId>,
    pub(crate) token_delay: Option<u32>,
    pub(crate) emits: Vec<(D, PlaceId, u32)>,
    pub(crate) flush_places: Vec<PlaceId>,
    pub(crate) reserves: Vec<(PlaceId, u32)>,
    pub(crate) halt: bool,
}

impl<D> Fx<D> {
    pub(crate) fn new(token: Option<crate::ids::TokenId>) -> Self {
        Fx {
            token,
            token_delay: None,
            emits: Vec::new(),
            flush_places: Vec::new(),
            reserves: Vec::new(),
            halt: false,
        }
    }

    /// Whether an emit, flush, reservation or halt is waiting to be
    /// applied.
    #[inline]
    pub(crate) fn has_effects(&self) -> bool {
        !self.emits.is_empty()
            || !self.flush_places.is_empty()
            || !self.reserves.is_empty()
            || self.halt
    }

    /// The id of the firing token. Needed for `reserveWrite`/`writeback`.
    ///
    /// # Panics
    ///
    /// Panics when called from a source action: the token does not exist
    /// until the source returns its payload.
    #[inline]
    pub fn token(&self) -> crate::ids::TokenId {
        self.token.expect("Fx::token is not available inside a source action")
    }

    /// Overrides the delay the token will experience in its destination
    /// place — the paper's *token delay* ("the delay of a token overwrites
    /// the delay of its containing place"). Used for data-dependent delays,
    /// e.g. `t.delay = mem.delay(addr)` in the LoadStore sub-net.
    #[inline]
    pub fn set_token_delay(&mut self, cycles: u32) {
        self.token_delay = Some(cycles);
    }

    /// Emits a new instruction token into `place`, ready after `delay`
    /// cycles. This is how one instruction generates multiple micro
    /// operations (e.g. ARM load/store-multiple).
    #[inline]
    pub fn emit(&mut self, payload: D, place: PlaceId, delay: u32) {
        self.emits.push((payload, place, delay));
    }

    /// Removes every token from `place` (control-hazard squash). Register
    /// reservations held by squashed tokens are released.
    #[inline]
    pub fn flush(&mut self, place: PlaceId) {
        self.flush_places.push(place);
    }

    /// Deposits a dataless reservation token into `place`, occupying its
    /// stage for `expire` cycles — the dynamic twin of a [`ResArc`]
    /// output arc (used by the IR `ReserveRes` micro-op).
    ///
    /// `place` must be a reservation target the compile step knows about
    /// (it appears in some transition's `ResArc` or IR `ReserveRes` op):
    /// reservations in places the expiry scan never visits would occupy
    /// their stage forever, so the engine rejects the request with a
    /// panic when the effects are applied.
    #[inline]
    pub fn reserve(&mut self, place: PlaceId, expire: u32) {
        self.reserves.push((place, expire));
    }

    /// Stops the simulation at the end of this cycle (e.g. an exit system
    /// call).
    #[inline]
    pub fn halt(&mut self) {
        self.halt = true;
    }
}

/// A pipeline stage definition.
#[derive(Debug, Clone)]
pub struct StageDef {
    pub(crate) name: String,
    pub(crate) capacity: u32,
    pub(crate) is_end: bool,
}

impl StageDef {
    /// The stage's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How many tokens (instructions) can reside in the stage at any time.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Whether this is the virtual final stage.
    pub fn is_end(&self) -> bool {
        self.is_end
    }
}

/// A place definition: an instruction state bound to a stage.
#[derive(Debug, Clone)]
pub struct PlaceDef {
    pub(crate) name: String,
    pub(crate) stage: StageId,
    pub(crate) delay: u32,
}

impl PlaceDef {
    /// The place's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stage this place is assigned to.
    pub fn stage(&self) -> StageId {
        self.stage
    }

    /// Default residency (in cycles) before a token may leave this place.
    pub fn delay(&self) -> u32 {
        self.delay
    }
}

/// A reservation-token output arc: firing deposits a dataless token that
/// occupies `place`'s stage for `expire` cycles.
#[derive(Debug, Clone, Copy)]
pub struct ResArc {
    pub(crate) place: PlaceId,
    pub(crate) expire: u32,
}

/// A transition definition.
pub struct TransitionDef<D, R> {
    pub(crate) name: String,
    pub(crate) subnet: SubnetId,
    pub(crate) input: PlaceId,
    pub(crate) priority: u32,
    pub(crate) extra_inputs: Vec<PlaceId>,
    pub(crate) guard: Option<GuardKind<D, R>>,
    pub(crate) action: Option<ActionKind<D, R>>,
    pub(crate) dest: PlaceId,
    pub(crate) reservations: Vec<ResArc>,
    pub(crate) delay: u32,
    pub(crate) reads_states: Vec<PlaceId>,
    pub(crate) guard_name: Option<NamedHook>,
    pub(crate) action_name: Option<NamedHook>,
}

impl<D, R> TransitionDef<D, R> {
    /// The transition's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sub-net the transition belongs to.
    pub fn subnet(&self) -> SubnetId {
        self.subnet
    }

    /// The input place the transition consumes its instruction token from.
    pub fn input(&self) -> PlaceId {
        self.input
    }

    /// Additional input places consumed when the transition fires (joins).
    pub fn extra_inputs(&self) -> &[PlaceId] {
        &self.extra_inputs
    }

    /// The destination place of the instruction token.
    pub fn dest(&self) -> PlaceId {
        self.dest
    }

    /// Priority of the (input place → transition) arc; lower fires first.
    pub fn priority(&self) -> u32 {
        self.priority
    }

    /// Execution delay of the transition's functionality.
    pub fn delay(&self) -> u32 {
        self.delay
    }

    /// The guard's representation, if the transition has one.
    pub fn guard_kind(&self) -> Option<&GuardKind<D, R>> {
        self.guard.as_ref()
    }

    /// The action's representation, if the transition has one.
    pub fn action_kind(&self) -> Option<&ActionKind<D, R>> {
        self.action.as_ref()
    }
}

impl<D, R> std::fmt::Debug for TransitionDef<D, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransitionDef")
            .field("name", &self.name)
            .field("subnet", &self.subnet)
            .field("input", &self.input)
            .field("dest", &self.dest)
            .field("priority", &self.priority)
            .finish()
    }
}

/// A source-transition definition (instruction-independent sub-net).
pub struct SourceDef<D, R> {
    pub(crate) name: String,
    pub(crate) dest: PlaceId,
    pub(crate) guard: Option<SourceGuard<R>>,
    pub(crate) produce: SourceAction<D, R>,
    pub(crate) max_per_cycle: u32,
    pub(crate) guard_name: Option<NamedHook>,
    pub(crate) produce_name: Option<NamedHook>,
}

impl<D, R> SourceDef<D, R> {
    /// The source's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The place newly generated tokens are deposited into.
    pub fn dest(&self) -> PlaceId {
        self.dest
    }

    /// Maximum number of tokens generated per cycle (fetch width).
    pub fn max_per_cycle(&self) -> u32 {
        self.max_per_cycle
    }
}

impl<D, R> std::fmt::Debug for SourceDef<D, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceDef")
            .field("name", &self.name)
            .field("dest", &self.dest)
            .field("max_per_cycle", &self.max_per_cycle)
            .finish()
    }
}

/// A sub-net definition (a name; membership is recorded on transitions).
#[derive(Debug, Clone)]
pub struct SubnetDef {
    pub(crate) name: String,
}

impl SubnetDef {
    /// The sub-net's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// An operation-class definition.
#[derive(Debug, Clone)]
pub struct OpClassDef {
    pub(crate) name: String,
    pub(crate) subnet: SubnetId,
}

impl OpClassDef {
    /// The class's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sub-net instructions of this class flow through.
    pub fn subnet(&self) -> SubnetId {
        self.subnet
    }
}

/// A complete, validated RCPN model.
///
/// `D` is the instruction-token payload type; `R` the machine resources.
/// Produced by [`crate::builder::ModelBuilder::build`], which also runs the
/// static analysis of Section 4 (sorted transition tables, reverse
/// topological place order, two-list detection).
pub struct Model<D, R> {
    pub(crate) stages: Vec<StageDef>,
    pub(crate) places: Vec<PlaceDef>,
    pub(crate) transitions: Vec<TransitionDef<D, R>>,
    pub(crate) sources: Vec<SourceDef<D, R>>,
    pub(crate) subnets: Vec<SubnetDef>,
    pub(crate) classes: Vec<OpClassDef>,
    pub(crate) hooks: Hooks<D, R>,
    pub(crate) analysis: Analysis,
    pub(crate) squash_handler: Option<SquashHandler<D, R>>,
    pub(crate) squash_name: Option<NamedHook>,
}

/// Cleanup hook invoked for every instruction token removed by a flush,
/// before the token is destroyed. Lets models undo machine-level
/// bookkeeping (beyond register reservations, which the engine releases
/// itself) for squashed instructions.
/// `Send + Sync` for the same reason as [`Guard`].
pub type SquashHandler<D, R> = Box<dyn Fn(&mut Machine<R>, &mut D) + Send + Sync>;

impl<D, R> Model<D, R> {
    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions (excluding sources).
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Number of source transitions.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Number of sub-nets.
    pub fn subnet_count(&self) -> usize {
        self.subnets.len()
    }

    /// Number of operation classes.
    pub fn op_class_count(&self) -> usize {
        self.classes.len()
    }

    /// A stage definition.
    pub fn stage(&self, id: StageId) -> &StageDef {
        &self.stages[id.index()]
    }

    /// A place definition.
    pub fn place(&self, id: PlaceId) -> &PlaceDef {
        &self.places[id.index()]
    }

    /// A transition definition.
    pub fn transition(&self, id: TransitionId) -> &TransitionDef<D, R> {
        &self.transitions[id.index()]
    }

    /// A source definition.
    pub fn source(&self, id: SourceId) -> &SourceDef<D, R> {
        &self.sources[id.index()]
    }

    /// A sub-net definition.
    pub fn subnet(&self, id: SubnetId) -> &SubnetDef {
        &self.subnets[id.index()]
    }

    /// An operation-class definition.
    pub fn op_class(&self, id: OpClassId) -> &OpClassDef {
        &self.classes[id.index()]
    }

    /// The static analysis results (Section 4).
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The hook table IR `CallHook` micro-ops escape into.
    pub fn hooks(&self) -> &Hooks<D, R> {
        &self.hooks
    }

    /// Iterates over place ids.
    pub fn place_ids(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.places.len()).map(PlaceId::from_index)
    }

    /// Iterates over transition ids.
    pub fn transition_ids(&self) -> impl Iterator<Item = TransitionId> {
        (0..self.transitions.len()).map(TransitionId::from_index)
    }

    /// Looks up a place by name.
    pub fn find_place(&self, name: &str) -> Option<PlaceId> {
        self.places.iter().position(|p| p.name == name).map(PlaceId::from_index)
    }

    /// Looks up a transition by name.
    pub fn find_transition(&self, name: &str) -> Option<TransitionId> {
        self.transitions.iter().position(|t| t.name == name).map(TransitionId::from_index)
    }

    /// Looks up a stage by name.
    pub fn find_stage(&self, name: &str) -> Option<StageId> {
        self.stages.iter().position(|s| s.name == name).map(StageId::from_index)
    }

    /// True if `place` belongs to the virtual `end` stage.
    pub fn is_end_place(&self, place: PlaceId) -> bool {
        self.stages[self.places[place.index()].stage.index()].is_end
    }
}

impl<D, R> std::fmt::Debug for Model<D, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("stages", &self.stages.len())
            .field("places", &self.places.len())
            .field("transitions", &self.transitions.len())
            .field("sources", &self.sources.len())
            .field("subnets", &self.subnets.len())
            .field("classes", &self.classes.len())
            .finish()
    }
}
