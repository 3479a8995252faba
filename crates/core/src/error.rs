//! Error types reported while constructing an RCPN model.

use std::error::Error;
use std::fmt;

use crate::ids::{OpClassId, PlaceId, SourceId, StageId, SubnetId, TransitionId};

/// An error produced while building or validating an RCPN model.
///
/// Returned by [`crate::builder::ModelBuilder::build`] and
/// [`crate::spec::PipelineSpec::lower`]. Each variant carries both the id
/// *and the declared name* of the offending entity, so a failure deep in a
/// generated model renders as "stage `\"X1\"`", not "stage 7" — spec
/// lowering failures must be debuggable from the message alone.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// A place refers to a stage id that was never declared.
    UnknownStage {
        /// The place with the dangling reference.
        place: PlaceId,
        /// The offending place's name.
        place_name: String,
        /// The undeclared stage id.
        stage: StageId,
    },
    /// A transition refers to a place id that was never declared.
    UnknownPlace {
        /// The transition with the dangling reference.
        transition: TransitionId,
        /// The offending transition's name.
        transition_name: String,
        /// The undeclared place id.
        place: PlaceId,
    },
    /// A source transition deposits into a place id that was never
    /// declared.
    UnknownSourcePlace {
        /// The source with the dangling destination.
        source: SourceId,
        /// The offending source's name.
        source_name: String,
        /// The undeclared place id.
        place: PlaceId,
    },
    /// A transition was declared without a destination place.
    MissingDestination {
        /// The incomplete transition.
        transition: TransitionId,
    },
    /// A transition was declared without an input place. Token-consuming
    /// transitions must have exactly one instruction-token input; use a
    /// source transition for token generation instead.
    MissingInput {
        /// The incomplete transition.
        transition: TransitionId,
    },
    /// An operation class refers to a sub-net that was never declared.
    UnknownSubnet {
        /// The class with the dangling reference.
        class: OpClassId,
        /// The offending class's name.
        class_name: String,
        /// The undeclared sub-net id.
        subnet: SubnetId,
    },
    /// A stage was declared with a capacity of zero.
    ZeroCapacity {
        /// The zero-capacity stage.
        stage: StageId,
        /// The offending stage's name.
        stage_name: String,
    },
    /// Two transitions on the same input place and sub-net share a priority,
    /// which would make the firing order ambiguous.
    DuplicatePriority {
        /// The shared input place.
        place: PlaceId,
        /// The shared input place's name.
        place_name: String,
        /// The sub-net both transitions belong to.
        subnet: SubnetId,
        /// The sub-net's name.
        subnet_name: String,
        /// The colliding priority value.
        priority: u32,
        /// The first transition declared with this priority.
        first: TransitionId,
        /// The first transition's name.
        first_name: String,
        /// The second transition declared with this priority.
        second: TransitionId,
        /// The second transition's name.
        second_name: String,
    },
    /// The model contains no operation classes, so no instruction token can
    /// ever be dispatched.
    NoOpClasses,
    /// A name was reused for two different entities of the same kind.
    DuplicateName {
        /// The entity kind ("stage", "place", "transition", ...).
        kind: &'static str,
        /// The reused name.
        name: String,
    },
    /// A transition carries an invalid micro-op [`crate::ir::Program`]: a
    /// mutating op in a guard program, a `CallHook` index outside the
    /// model's hook table, or a reference to an undeclared place.
    InvalidProgram {
        /// The transition carrying the bad program.
        transition: TransitionId,
        /// The offending transition's name.
        transition_name: String,
        /// What was wrong with the program.
        detail: String,
    },
    /// A [`crate::spec::PipelineSpec`] could not be lowered: a dangling
    /// latch/stage/rule name, a read step without an operand policy, or an
    /// incomplete source declaration.
    Spec {
        /// The spec's name.
        spec: String,
        /// What was wrong, in terms of the spec's declared names.
        detail: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownStage { place, place_name, stage } => {
                write!(f, "place {place} ({place_name:?}) refers to undeclared stage {stage}")
            }
            BuildError::UnknownPlace { transition, transition_name, place } => {
                write!(
                    f,
                    "transition {transition} ({transition_name:?}) refers to undeclared place \
                     {place}"
                )
            }
            BuildError::UnknownSourcePlace { source, source_name, place } => {
                write!(
                    f,
                    "source {source} ({source_name:?}) deposits into undeclared place {place}"
                )
            }
            BuildError::MissingDestination { transition } => {
                write!(f, "transition {transition} has no destination place")
            }
            BuildError::MissingInput { transition } => {
                write!(f, "transition {transition} has no input place")
            }
            BuildError::UnknownSubnet { class, class_name, subnet } => {
                write!(
                    f,
                    "operation class {class} ({class_name:?}) refers to undeclared sub-net \
                     {subnet}"
                )
            }
            BuildError::ZeroCapacity { stage, stage_name } => {
                write!(f, "stage {stage} ({stage_name:?}) was declared with capacity zero")
            }
            BuildError::DuplicatePriority {
                place,
                place_name,
                subnet,
                subnet_name,
                priority,
                first,
                first_name,
                second,
                second_name,
            } => {
                write!(
                    f,
                    "transitions {first} ({first_name:?}) and {second} ({second_name:?}) on \
                     place {place} ({place_name:?}) in sub-net {subnet} ({subnet_name:?}) share \
                     priority {priority}"
                )
            }
            BuildError::NoOpClasses => {
                write!(f, "model declares no operation classes")
            }
            BuildError::DuplicateName { kind, name } => {
                write!(f, "duplicate {kind} name {name:?}")
            }
            BuildError::InvalidProgram { transition, transition_name, detail } => {
                write!(f, "transition {transition} ({transition_name:?}): {detail}")
            }
            BuildError::Spec { spec, detail } => {
                write!(f, "pipeline spec {spec:?}: {detail}")
            }
        }
    }
}

impl Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let e = BuildError::NoOpClasses;
        let s = e.to_string();
        assert!(!s.is_empty());
        assert!(s.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error>(_: E) {}
        takes_error(BuildError::NoOpClasses);
    }

    #[test]
    fn messages_carry_entity_names() {
        let e = BuildError::ZeroCapacity {
            stage: StageId::from_index(3),
            stage_name: "X1".to_string(),
        };
        assert_eq!(e.to_string(), "stage S3 (\"X1\") was declared with capacity zero");

        let e = BuildError::DuplicatePriority {
            place: PlaceId::from_index(1),
            place_name: "RF".to_string(),
            subnet: SubnetId::from_index(0),
            subnet_name: "LoadStoreMultiple".to_string(),
            priority: 1,
            first: TransitionId::from_index(4),
            first_name: "ldm_skip".to_string(),
            second: TransitionId::from_index(5),
            second_name: "ldm_uop".to_string(),
        };
        let s = e.to_string();
        for needle in ["\"ldm_skip\"", "\"ldm_uop\"", "\"RF\"", "\"LoadStoreMultiple\""] {
            assert!(s.contains(needle), "{s:?} must name the entity {needle}");
        }
    }
}
