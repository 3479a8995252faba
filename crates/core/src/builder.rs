//! Fluent construction of RCPN models.
//!
//! A model is declared in the same shape as the processor's pipeline block
//! diagram: declare stages, bind places to them, then describe each
//! operation class's sub-net as transitions between places. Finally,
//! [`ModelBuilder::build`] validates the net and runs the static analysis of
//! Section 4.
//!
//! # Examples
//!
//! The paper's Figure 2 pipeline (two latches, four units):
//!
//! ```
//! use rcpn::builder::ModelBuilder;
//! use rcpn::ids::OpClassId;
//! use rcpn::token::InstrData;
//!
//! #[derive(Debug)]
//! struct Tok(OpClassId);
//! impl InstrData for Tok {
//!     fn op_class(&self) -> OpClassId { self.0 }
//! }
//!
//! # fn main() -> Result<(), rcpn::error::BuildError> {
//! let mut b = ModelBuilder::<Tok, ()>::new();
//! let l1 = b.stage("L1", 1);
//! let l2 = b.stage("L2", 1);
//! let p1 = b.place("P1", l1);
//! let p2 = b.place("P2", l2);
//! let (short, _) = b.class_net("Short");
//! let (long, _) = b.class_net("Long");
//! let end = b.end_place();
//!
//! b.transition(short, "U4").from(p1).to(end).done();
//! b.transition(long, "U2").from(p1).to(p2).done();
//! b.transition(long, "U3").from(p2).to(end).done();
//! let l1_for_fetch = p1;
//! b.source("U1")
//!     .to(l1_for_fetch)
//!     .produce(move |_m, _fx| Some(Tok(long)))
//!     .done();
//! let model = b.build()?;
//! assert_eq!(model.place_count(), 3);
//! # Ok(())
//! # }
//! ```

use crate::analysis::{analyze, AnalysisInput, TransView};
use crate::error::BuildError;
use crate::ids::{OpClassId, PlaceId, SourceId, StageId, SubnetId, TransitionId};
use crate::ir::{MicroOp, Program};
use crate::model::{
    Action, ActionKind, Fx, Guard, GuardKind, Hooks, Machine, Model, NamedHook, OpClassDef,
    PlaceDef, ResArc, SourceAction, SourceDef, SourceGuard, StageDef, SubnetDef, TransitionDef,
    UNLIMITED,
};

/// Builder for [`Model`]. See the [module documentation](self) for an
/// example.
pub struct ModelBuilder<D, R> {
    pub(crate) stages: Vec<StageDef>,
    pub(crate) places: Vec<PlaceDef>,
    pub(crate) transitions: Vec<TransitionDef<D, R>>,
    pub(crate) sources: Vec<SourceDef<D, R>>,
    pub(crate) subnets: Vec<SubnetDef>,
    pub(crate) classes: Vec<OpClassDef>,
    pub(crate) hooks: Hooks<D, R>,
    pub(crate) end_stage: StageId,
    pub(crate) end_place: PlaceId,
    pub(crate) squash_handler: Option<crate::model::SquashHandler<D, R>>,
    pub(crate) squash_name: Option<NamedHook>,
}

impl<D, R> ModelBuilder<D, R> {
    /// Creates a builder. The virtual `end` stage and a default `end` place
    /// are pre-declared, per the paper: "we assume when instructions finish
    /// they go to a final virtual pipeline stage, called end, with unlimited
    /// capacity".
    pub fn new() -> Self {
        let mut b = ModelBuilder {
            stages: Vec::new(),
            places: Vec::new(),
            transitions: Vec::new(),
            sources: Vec::new(),
            subnets: Vec::new(),
            classes: Vec::new(),
            hooks: Hooks::new(),
            end_stage: StageId::from_index(0),
            end_place: PlaceId::from_index(0),
            squash_handler: None,
            squash_name: None,
        };
        b.stages.push(StageDef { name: "end".to_string(), capacity: UNLIMITED, is_end: true });
        b.places.push(PlaceDef { name: "end".to_string(), stage: b.end_stage, delay: 0 });
        b
    }

    /// Declares a pipeline stage with the given token capacity.
    pub fn stage(&mut self, name: &str, capacity: u32) -> StageId {
        self.stages.push(StageDef { name: name.to_string(), capacity, is_end: false });
        StageId::from_index(self.stages.len() - 1)
    }

    /// The pre-declared virtual final stage.
    pub fn end_stage(&self) -> StageId {
        self.end_stage
    }

    /// The pre-declared default place on the `end` stage.
    pub fn end_place(&self) -> PlaceId {
        self.end_place
    }

    /// Declares a place on `stage` with the default delay of one cycle
    /// (a token must reside one cycle in a stage before moving on).
    pub fn place(&mut self, name: &str, stage: StageId) -> PlaceId {
        self.place_with_delay(name, stage, 1)
    }

    /// Declares a place with an explicit delay — "the delay of a place
    /// determines how long a token should reside in that place before it
    /// can be considered for enabling an output transition".
    pub fn place_with_delay(&mut self, name: &str, stage: StageId, delay: u32) -> PlaceId {
        self.places.push(PlaceDef { name: name.to_string(), stage, delay });
        PlaceId::from_index(self.places.len() - 1)
    }

    /// Declares an additional final place (an `end`-stage state for a
    /// specific class of instructions).
    pub fn final_place(&mut self, name: &str) -> PlaceId {
        self.places.push(PlaceDef { name: name.to_string(), stage: self.end_stage, delay: 0 });
        PlaceId::from_index(self.places.len() - 1)
    }

    /// Declares a sub-net.
    pub fn subnet(&mut self, name: &str) -> SubnetId {
        self.subnets.push(SubnetDef { name: name.to_string() });
        SubnetId::from_index(self.subnets.len() - 1)
    }

    /// Declares an operation class whose instructions flow through `subnet`.
    pub fn op_class(&mut self, name: &str, subnet: SubnetId) -> OpClassId {
        self.classes.push(OpClassDef { name: name.to_string(), subnet });
        OpClassId::from_index(self.classes.len() - 1)
    }

    /// Declares an operation class together with its own sub-net — the
    /// common 1:1 case ("for each instruction type, there is a
    /// corresponding sub-net").
    pub fn class_net(&mut self, name: &str) -> (OpClassId, SubnetId) {
        let net = self.subnet(name);
        (self.op_class(name, net), net)
    }

    /// Starts declaring a transition in the sub-net of `class`.
    pub fn transition(&mut self, class: OpClassId, name: &str) -> TransitionBuilder<'_, D, R> {
        let subnet = self.classes[class.index()].subnet;
        self.transition_in(subnet, name)
    }

    /// Starts declaring a transition in an explicit sub-net (used when a
    /// sub-net is shared between several operation classes).
    pub fn transition_in(&mut self, subnet: SubnetId, name: &str) -> TransitionBuilder<'_, D, R> {
        TransitionBuilder {
            parent: self,
            def: TransitionDef {
                name: name.to_string(),
                subnet,
                input: PlaceId::from_index(usize::from(u16::MAX)), // sentinel; validated in done()
                priority: 0,
                extra_inputs: Vec::new(),
                guard: None,
                action: None,
                dest: PlaceId::from_index(usize::from(u16::MAX)),
                reservations: Vec::new(),
                delay: 0,
                reads_states: Vec::new(),
                guard_name: None,
                action_name: None,
            },
            has_input: false,
            has_dest: false,
        }
    }

    /// Starts declaring a source transition (instruction-independent
    /// sub-net; e.g. fetch).
    pub fn source(&mut self, name: &str) -> SourceBuilder<'_, D, R> {
        SourceBuilder {
            parent: self,
            name: name.to_string(),
            dest: None,
            guard: None,
            produce: None,
            max_per_cycle: 1,
            guard_name: None,
            produce_name: None,
        }
    }

    /// Installs a cleanup hook called for every instruction token removed
    /// by a flush (squash); see [`crate::model::SquashHandler`].
    pub fn on_squash(&mut self, handler: impl Fn(&mut Machine<R>, &mut D) + Send + Sync + 'static) {
        self.squash_handler = Some(Box::new(handler));
        self.squash_name = None;
    }

    /// [`ModelBuilder::on_squash`] plus a stable registry name, keeping the
    /// model serializable (see [`crate::artifact`]).
    pub fn on_squash_named(
        &mut self,
        name: NamedHook,
        handler: impl Fn(&mut Machine<R>, &mut D) + Send + Sync + 'static,
    ) {
        self.squash_handler = Some(Box::new(handler));
        self.squash_name = Some(name);
    }

    /// Registers a guard hook in the model's [`Hooks`] table and returns
    /// its index, for use in an IR guard program via
    /// [`crate::ir::MicroOp::CallHook`].
    pub fn hook_guard(
        &mut self,
        guard: impl Fn(&Machine<R>, &D) -> bool + Send + Sync + 'static,
    ) -> u32 {
        self.hooks.guards.push(Box::new(guard));
        self.hooks.guard_names.push(None);
        (self.hooks.guards.len() - 1) as u32
    }

    /// [`ModelBuilder::hook_guard`] plus a stable registry name, keeping the
    /// model serializable (see [`crate::artifact`]).
    pub fn hook_guard_named(
        &mut self,
        name: NamedHook,
        guard: impl Fn(&Machine<R>, &D) -> bool + Send + Sync + 'static,
    ) -> u32 {
        let idx = self.hook_guard(guard);
        self.hooks.guard_names[idx as usize] = Some(name);
        idx
    }

    /// Registers an action hook in the model's [`Hooks`] table and returns
    /// its index, for use in an IR action program via
    /// [`crate::ir::MicroOp::CallHook`].
    pub fn hook_action(
        &mut self,
        action: impl Fn(&mut Machine<R>, &mut D, &mut Fx<D>) + Send + Sync + 'static,
    ) -> u32 {
        self.hooks.actions.push(Box::new(action));
        self.hooks.action_names.push(None);
        (self.hooks.actions.len() - 1) as u32
    }

    /// [`ModelBuilder::hook_action`] plus a stable registry name, keeping
    /// the model serializable (see [`crate::artifact`]).
    pub fn hook_action_named(
        &mut self,
        name: NamedHook,
        action: impl Fn(&mut Machine<R>, &mut D, &mut Fx<D>) + Send + Sync + 'static,
    ) -> u32 {
        let idx = self.hook_action(action);
        self.hooks.action_names[idx as usize] = Some(name);
        idx
    }

    /// Validates the net and computes the static analysis, producing an
    /// executable [`Model`].
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the net is structurally invalid: dangling
    /// ids, zero-capacity stages, missing inputs/destinations, duplicate
    /// priorities on the same (place, sub-net), duplicate names, or no
    /// operation classes.
    pub fn build(self) -> Result<Model<D, R>, BuildError> {
        // Unique names per entity kind.
        fn check_names<'a>(
            kind: &'static str,
            names: impl Iterator<Item = &'a str>,
        ) -> Result<(), BuildError> {
            let mut seen = std::collections::HashSet::new();
            for n in names {
                if !seen.insert(n) {
                    return Err(BuildError::DuplicateName { kind, name: n.to_string() });
                }
            }
            Ok(())
        }
        check_names("stage", self.stages.iter().map(|s| s.name.as_str()))?;
        check_names("place", self.places.iter().map(|p| p.name.as_str()))?;
        check_names("transition", self.transitions.iter().map(|t| t.name.as_str()))?;

        for (i, s) in self.stages.iter().enumerate() {
            if s.capacity == 0 {
                return Err(BuildError::ZeroCapacity {
                    stage: StageId::from_index(i),
                    stage_name: s.name.clone(),
                });
            }
        }
        for (i, p) in self.places.iter().enumerate() {
            if p.stage.index() >= self.stages.len() {
                return Err(BuildError::UnknownStage {
                    place: PlaceId::from_index(i),
                    place_name: p.name.clone(),
                    stage: p.stage,
                });
            }
        }
        if self.classes.is_empty() {
            return Err(BuildError::NoOpClasses);
        }
        for (i, c) in self.classes.iter().enumerate() {
            if c.subnet.index() >= self.subnets.len() {
                return Err(BuildError::UnknownSubnet {
                    class: OpClassId::from_index(i),
                    class_name: c.name.clone(),
                    subnet: c.subnet,
                });
            }
        }
        let n_places = self.places.len();
        let check_place = |tid: usize, tname: &str, p: PlaceId| -> Result<(), BuildError> {
            if p.index() >= n_places {
                Err(BuildError::UnknownPlace {
                    transition: TransitionId::from_index(tid),
                    transition_name: tname.to_string(),
                    place: p,
                })
            } else {
                Ok(())
            }
        };
        for (i, t) in self.transitions.iter().enumerate() {
            check_place(i, &t.name, t.input)?;
            check_place(i, &t.name, t.dest)?;
            for &p in t.extra_inputs.iter().chain(t.reads_states.iter()) {
                check_place(i, &t.name, p)?;
            }
            for r in &t.reservations {
                check_place(i, &t.name, r.place)?;
            }
        }
        for (i, s) in self.sources.iter().enumerate() {
            if s.dest.index() >= n_places {
                return Err(BuildError::UnknownSourcePlace {
                    source: SourceId::from_index(i),
                    source_name: s.name.clone(),
                    place: s.dest,
                });
            }
        }

        // IR program validation: guard programs are pure, hook indices
        // resolve, referenced places exist.
        let program_err = |tid: usize, tname: &str, detail: String| BuildError::InvalidProgram {
            transition: TransitionId::from_index(tid),
            transition_name: tname.to_string(),
            detail,
        };
        for (i, t) in self.transitions.iter().enumerate() {
            if let Some(GuardKind::Ir(prog)) = &t.guard {
                for op in prog.ops() {
                    if !op.is_guard_op() {
                        return Err(program_err(
                            i,
                            &t.name,
                            format!("guard program contains non-guard op {op:?}"),
                        ));
                    }
                    if let MicroOp::CallHook(h) = op {
                        if *h as usize >= self.hooks.guards.len() {
                            return Err(program_err(
                                i,
                                &t.name,
                                format!(
                                    "guard program calls hook {h} but only {} guard hooks exist",
                                    self.hooks.guards.len()
                                ),
                            ));
                        }
                    }
                }
            }
            if let Some(ActionKind::Ir(prog)) = &t.action {
                for op in prog.ops() {
                    if !op.is_action_op() {
                        return Err(program_err(
                            i,
                            &t.name,
                            format!("action program contains non-action op {op:?}"),
                        ));
                    }
                    match op {
                        MicroOp::CallHook(h) if *h as usize >= self.hooks.actions.len() => {
                            return Err(program_err(
                                i,
                                &t.name,
                                format!(
                                    "action program calls hook {h} but only {} action hooks exist",
                                    self.hooks.actions.len()
                                ),
                            ));
                        }
                        MicroOp::ReserveRes { place, .. } => check_place(i, &t.name, *place)?,
                        MicroOp::EmitRedirect { flush } => {
                            for &p in flush.iter() {
                                check_place(i, &t.name, p)?;
                            }
                        }
                        MicroOp::AcquireOperands { fwd_mask } => {
                            // Acquire's contract is "only after a passing
                            // CheckReady with the same mask": an unguarded
                            // or mask-mismatched acquire would latch stale
                            // operand values silently in release builds,
                            // so reject it here instead.
                            let guarded = matches!(
                                &t.guard,
                                Some(GuardKind::Ir(g))
                                    if g.ops().contains(&MicroOp::CheckReady { fwd_mask: *fwd_mask })
                            );
                            if !guarded {
                                return Err(program_err(
                                    i,
                                    &t.name,
                                    format!(
                                        "AcquireOperands {{ fwd_mask: {fwd_mask:#x} }} requires \
                                         a CheckReady with the same mask in the transition's \
                                         guard program"
                                    ),
                                ));
                            }
                        }
                        _ => {}
                    }
                }
            }
        }

        // Duplicate (input, subnet, priority) detection.
        let mut keyed: Vec<(PlaceId, SubnetId, u32, TransitionId)> = self
            .transitions
            .iter()
            .enumerate()
            .map(|(i, t)| (t.input, t.subnet, t.priority, TransitionId::from_index(i)))
            .collect();
        keyed.sort_by_key(|&(p, s, pr, t)| (p, s, pr, t));
        for w in keyed.windows(2) {
            let (p1, s1, pr1, t1) = w[0];
            let (p2, s2, pr2, t2) = w[1];
            if p1 == p2 && s1 == s2 && pr1 == pr2 {
                return Err(BuildError::DuplicatePriority {
                    place: p1,
                    place_name: self.places[p1.index()].name.clone(),
                    subnet: s1,
                    subnet_name: self.subnets[s1.index()].name.clone(),
                    priority: pr1,
                    first: t1,
                    first_name: self.transitions[t1.index()].name.clone(),
                    second: t2,
                    second_name: self.transitions[t2.index()].name.clone(),
                });
            }
        }

        let views: Vec<TransView> = self
            .transitions
            .iter()
            .map(|t| TransView {
                input: t.input,
                dest: t.dest,
                subnet: t.subnet,
                priority: t.priority,
                reads_states: t.reads_states.clone(),
            })
            .collect();
        let class_subnets: Vec<SubnetId> = self.classes.iter().map(|c| c.subnet).collect();
        let analysis = analyze(&AnalysisInput {
            n_places,
            transitions: &views,
            class_subnets: &class_subnets,
        });

        Ok(Model {
            stages: self.stages,
            places: self.places,
            transitions: self.transitions,
            sources: self.sources,
            subnets: self.subnets,
            classes: self.classes,
            hooks: self.hooks,
            analysis,
            squash_handler: self.squash_handler,
            squash_name: self.squash_name,
        })
    }
}

impl<D, R> Default for ModelBuilder<D, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D, R> std::fmt::Debug for ModelBuilder<D, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelBuilder")
            .field("stages", &self.stages.len())
            .field("places", &self.places.len())
            .field("transitions", &self.transitions.len())
            .finish()
    }
}

/// Declares one transition; created by [`ModelBuilder::transition`].
///
/// Call [`TransitionBuilder::done`] to register the transition — a builder
/// that is dropped without `done()` adds nothing to the model.
pub struct TransitionBuilder<'b, D, R> {
    parent: &'b mut ModelBuilder<D, R>,
    def: TransitionDef<D, R>,
    has_input: bool,
    has_dest: bool,
}

impl<'b, D, R> TransitionBuilder<'b, D, R> {
    /// Sets the input place the transition consumes its token from.
    pub fn from(mut self, place: PlaceId) -> Self {
        self.def.input = place;
        self.has_input = true;
        self
    }

    /// Sets the destination place of the token.
    pub fn to(mut self, place: PlaceId) -> Self {
        self.def.dest = place;
        self.has_dest = true;
        self
    }

    /// Sets the priority of the (input place → transition) arc. Lower
    /// priorities are tried first; defaults to 0.
    pub fn priority(mut self, priority: u32) -> Self {
        self.def.priority = priority;
        self
    }

    /// Sets the guard condition (closure representation).
    pub fn guard(
        mut self,
        guard: impl Fn(&Machine<R>, &D) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.def.guard = Some(GuardKind::Closure(Box::new(guard) as Guard<D, R>));
        self.def.guard_name = None;
        self
    }

    /// [`TransitionBuilder::guard`] plus a stable registry name, keeping
    /// the model serializable (see [`crate::artifact`]).
    pub fn guard_named(
        mut self,
        name: NamedHook,
        guard: impl Fn(&Machine<R>, &D) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.def.guard = Some(GuardKind::Closure(Box::new(guard) as Guard<D, R>));
        self.def.guard_name = Some(name);
        self
    }

    /// Sets the guard as a typed micro-op [`Program`] interpreted inline
    /// by the engine. Only pure guard ops are legal
    /// ([`MicroOp::is_guard_op`]); validated in [`ModelBuilder::build`].
    pub fn guard_ir(mut self, program: Program) -> Self {
        self.def.guard = Some(GuardKind::Ir(program));
        self
    }

    /// Sets the action executed when the transition fires (closure
    /// representation).
    pub fn action(
        mut self,
        action: impl Fn(&mut Machine<R>, &mut D, &mut Fx<D>) + Send + Sync + 'static,
    ) -> Self {
        self.def.action = Some(ActionKind::Closure(Box::new(action) as Action<D, R>));
        self.def.action_name = None;
        self
    }

    /// [`TransitionBuilder::action`] plus a stable registry name, keeping
    /// the model serializable (see [`crate::artifact`]).
    pub fn action_named(
        mut self,
        name: NamedHook,
        action: impl Fn(&mut Machine<R>, &mut D, &mut Fx<D>) + Send + Sync + 'static,
    ) -> Self {
        self.def.action = Some(ActionKind::Closure(Box::new(action) as Action<D, R>));
        self.def.action_name = Some(name);
        self
    }

    /// Sets the action as a typed micro-op [`Program`]; validated in
    /// [`ModelBuilder::build`].
    pub fn action_ir(mut self, program: Program) -> Self {
        self.def.action = Some(ActionKind::Ir(program));
        self
    }

    /// Declares that the guard/action reference the state `place` through
    /// `canRead(s)`/`read(s)` — required for correct two-list analysis.
    pub fn reads_state(mut self, place: PlaceId) -> Self {
        self.def.reads_states.push(place);
        self
    }

    /// Adds a reservation-token output arc: firing deposits a dataless
    /// token occupying `place`'s stage for `expire` cycles.
    pub fn reserve(mut self, place: PlaceId, expire: u32) -> Self {
        self.def.reservations.push(ResArc { place, expire });
        self
    }

    /// Adds an extra input place; the transition additionally consumes the
    /// oldest ready token from it when firing (join semantics).
    pub fn extra_input(mut self, place: PlaceId) -> Self {
        self.def.extra_inputs.push(place);
        self
    }

    /// Sets the execution delay of the transition's functionality.
    pub fn delay(mut self, cycles: u32) -> Self {
        self.def.delay = cycles;
        self
    }

    /// Registers the transition and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` was not called; a transition must have
    /// exactly one input and one destination place.
    pub fn done(self) -> TransitionId {
        assert!(self.has_input, "transition {:?} needs .from(place)", self.def.name);
        assert!(self.has_dest, "transition {:?} needs .to(place)", self.def.name);
        self.parent.transitions.push(self.def);
        TransitionId::from_index(self.parent.transitions.len() - 1)
    }
}

/// Declares one source transition; created by [`ModelBuilder::source`].
pub struct SourceBuilder<'b, D, R> {
    parent: &'b mut ModelBuilder<D, R>,
    name: String,
    dest: Option<PlaceId>,
    guard: Option<SourceGuard<R>>,
    produce: Option<SourceAction<D, R>>,
    max_per_cycle: u32,
    guard_name: Option<NamedHook>,
    produce_name: Option<NamedHook>,
}

impl<'b, D, R> SourceBuilder<'b, D, R> {
    /// Sets the place generated tokens are deposited into.
    pub fn to(mut self, place: PlaceId) -> Self {
        self.dest = Some(place);
        self
    }

    /// Sets the guard; the source fires only while the guard holds (and the
    /// destination stage has capacity).
    pub fn guard(mut self, guard: impl Fn(&Machine<R>) -> bool + Send + Sync + 'static) -> Self {
        self.guard = Some(Box::new(guard) as SourceGuard<R>);
        self.guard_name = None;
        self
    }

    /// [`SourceBuilder::guard`] plus a stable registry name, keeping the
    /// model serializable (see [`crate::artifact`]).
    pub fn guard_named(
        mut self,
        name: NamedHook,
        guard: impl Fn(&Machine<R>) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.guard = Some(Box::new(guard) as SourceGuard<R>);
        self.guard_name = Some(name);
        self
    }

    /// Sets the producer: returns the payload of a new instruction token,
    /// or `None` to stall.
    pub fn produce(
        mut self,
        produce: impl Fn(&mut Machine<R>, &mut Fx<D>) -> Option<D> + Send + Sync + 'static,
    ) -> Self {
        self.produce = Some(Box::new(produce) as SourceAction<D, R>);
        self.produce_name = None;
        self
    }

    /// [`SourceBuilder::produce`] plus a stable registry name, keeping the
    /// model serializable (see [`crate::artifact`]).
    pub fn produce_named(
        mut self,
        name: NamedHook,
        produce: impl Fn(&mut Machine<R>, &mut Fx<D>) -> Option<D> + Send + Sync + 'static,
    ) -> Self {
        self.produce = Some(Box::new(produce) as SourceAction<D, R>);
        self.produce_name = Some(name);
        self
    }

    /// Sets the fetch width (tokens per cycle); defaults to 1.
    pub fn width(mut self, max_per_cycle: u32) -> Self {
        self.max_per_cycle = max_per_cycle.max(1);
        self
    }

    /// Registers the source and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `to` or `produce` was not called.
    pub fn done(self) -> SourceId {
        let dest = self.dest.unwrap_or_else(|| panic!("source {:?} needs .to(place)", self.name));
        let produce =
            self.produce.unwrap_or_else(|| panic!("source {:?} needs .produce(..)", self.name));
        self.parent.sources.push(SourceDef {
            name: self.name,
            dest,
            guard: self.guard,
            produce,
            max_per_cycle: self.max_per_cycle,
            guard_name: self.guard_name,
            produce_name: self.produce_name,
        });
        SourceId::from_index(self.parent.sources.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::InstrData;

    #[derive(Debug)]
    struct Tok(OpClassId);
    impl InstrData for Tok {
        fn op_class(&self) -> OpClassId {
            self.0
        }
    }

    fn two_place_builder() -> (ModelBuilder<Tok, ()>, PlaceId, PlaceId, OpClassId) {
        let mut b = ModelBuilder::<Tok, ()>::new();
        let s1 = b.stage("L1", 1);
        let s2 = b.stage("L2", 1);
        let p1 = b.place("P1", s1);
        let p2 = b.place("P2", s2);
        let (c, _) = b.class_net("Only");
        (b, p1, p2, c)
    }

    #[test]
    fn minimal_model_builds() {
        let (mut b, p1, p2, c) = two_place_builder();
        let end = b.end_place();
        b.transition(c, "u2").from(p1).to(p2).done();
        b.transition(c, "u3").from(p2).to(end).done();
        b.source("fetch").to(p1).produce(move |_m, _fx| Some(Tok(c))).done();
        let m = b.build().expect("valid model");
        assert_eq!(m.transition_count(), 2);
        assert_eq!(m.source_count(), 1);
        assert_eq!(m.find_transition("u2").unwrap().index(), 0);
        assert_eq!(m.find_place("P2"), Some(p2));
        assert!(m.is_end_place(end));
        assert!(!m.is_end_place(p1));
    }

    #[test]
    fn no_classes_is_an_error() {
        let b = ModelBuilder::<Tok, ()>::new();
        assert_eq!(b.build().unwrap_err(), BuildError::NoOpClasses);
    }

    #[test]
    fn zero_capacity_is_an_error() {
        let mut b = ModelBuilder::<Tok, ()>::new();
        let s = b.stage("bad", 0);
        let _ = b.place("p", s);
        b.class_net("c");
        assert!(matches!(b.build().unwrap_err(), BuildError::ZeroCapacity { .. }));
    }

    #[test]
    fn duplicate_priority_is_an_error() {
        let (mut b, p1, p2, c) = two_place_builder();
        b.transition(c, "a").from(p1).to(p2).priority(3).done();
        b.transition(c, "b").from(p1).to(p2).priority(3).done();
        assert!(matches!(b.build().unwrap_err(), BuildError::DuplicatePriority { .. }));
    }

    #[test]
    fn distinct_priorities_are_fine_across_subnets() {
        let mut b = ModelBuilder::<Tok, ()>::new();
        let s1 = b.stage("L1", 1);
        let p1 = b.place("P1", s1);
        let end = b.end_place();
        let (c1, _) = b.class_net("A");
        let (c2, _) = b.class_net("B");
        b.transition(c1, "ta").from(p1).to(end).priority(0).done();
        b.transition(c2, "tb").from(p1).to(end).priority(0).done();
        assert!(b.build().is_ok(), "same priority in different sub-nets is unambiguous");
    }

    #[test]
    fn duplicate_stage_name_is_an_error() {
        let mut b = ModelBuilder::<Tok, ()>::new();
        b.stage("X", 1);
        b.stage("X", 2);
        b.class_net("c");
        assert!(matches!(b.build().unwrap_err(), BuildError::DuplicateName { kind: "stage", .. }));
    }

    #[test]
    fn source_into_an_undeclared_place_is_an_error() {
        let mut b = ModelBuilder::<Tok, ()>::new();
        let s1 = b.stage("L1", 1);
        let p1 = b.place("P1", s1);
        let end = b.end_place();
        let (c, _) = b.class_net("Only");
        b.transition(c, "retire").from(p1).to(end).done();
        let bogus = PlaceId::from_index(99);
        b.source("s").to(bogus).produce(move |_m, _fx| Some(Tok(c))).done();
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            BuildError::UnknownSourcePlace {
                source: SourceId::from_index(0),
                source_name: "s".to_string(),
                place: bogus,
            }
        );
        assert_eq!(err.to_string(), "source F0 (\"s\") deposits into undeclared place P99");
    }

    #[test]
    #[should_panic(expected = "needs .from(place)")]
    fn transition_without_input_panics() {
        let (mut b, _p1, p2, c) = two_place_builder();
        b.transition(c, "t").to(p2).done();
    }

    #[test]
    fn analysis_is_attached() {
        let (mut b, p1, p2, c) = two_place_builder();
        let end = b.end_place();
        b.transition(c, "a").from(p1).to(p2).done();
        b.transition(c, "b").from(p2).to(end).done();
        let m = b.build().unwrap();
        // end place evaluated first, then P2, then P1.
        let order: Vec<usize> = m.analysis().order().iter().map(|p| p.index()).collect();
        let pos_p1 = order.iter().position(|&i| i == p1.index()).unwrap();
        let pos_p2 = order.iter().position(|&i| i == p2.index()).unwrap();
        assert!(pos_p2 < pos_p1);
        assert_eq!(m.analysis().two_list_count(), 0);
    }
}
