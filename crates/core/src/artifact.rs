//! Serialized models: the pipeline description as a build product.
//!
//! The paper's flow — pipeline description → analysis → generated
//! cycle-accurate simulator — ends, in this crate, at a
//! [`CompiledModel`]: flat hot tables plus the source model. Since the
//! spec layer synthesizes guards and actions as micro-op IR
//! ([`crate::ir`]), the model definition is plain data; this module makes
//! it *persistent*. An artifact stores the engine config and the model
//! definition, nothing derived: loading one rebuilds the model through
//! [`ModelBuilder::build`] and regenerates the tables with
//! [`CompiledModel::compile_with`], so a loaded model passes the same
//! validation and the same generator as one built in code, and its tables
//! cannot disagree with its model. That is what lets a service accept
//! pipeline descriptions as data.
//!
//! Three pieces:
//!
//! * **Encoding** — a hand-rolled, deterministic, little-endian binary
//!   format (magic, format version, spec hash, payload checksum, then
//!   tagged length-prefixed sections). Hand-rolled on purpose: no serde
//!   (vendor policy), no schema drift hidden behind derives — the format
//!   is the code in this file, versioned by [`FORMAT_VERSION`], and the
//!   golden-fixture test fails loudly when the bytes change without a
//!   version bump. The decoder is fully bounds-checked and returns typed
//!   [`ArtifactError`]s; it never panics on hostile bytes. A checksummed
//!   but forged model is refused by `build()`, the trust boundary, as
//!   `Corrupt { section: "model" }`.
//! * **Named hooks** — closures cannot be serialized, so every
//!   escape-hatch closure of a serializable model carries a
//!   [`NamedHook`]: a stable string key plus the captured [`HookArgs`]
//!   (forwarding window, flush set, own places). On reload a
//!   [`HookRegistry`] rebuilds each closure from its key; processors
//!   register their semantic functions once under stable `"arm.*"`-style
//!   keys. Models with unnamed closures still work in memory — they are
//!   just refused by the encoder ([`ArtifactError::UnnamedClosure`]).
//! * **Cache** — [`ArtifactCache`], a content-addressed directory keyed
//!   by `(spec hash, engine config, format version)`, with hit/miss/
//!   bypass counters. The spec hash is [`crate::spec::PipelineSpec::content_hash`];
//!   the engine config is hashed from its encoded bytes, so every
//!   compiled variant (table mode, scheduler, superblocks, …) gets its
//!   own entry.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::builder::ModelBuilder;
use crate::compiled::CompiledModel;
use crate::engine::{EngineConfig, SchedulerMode, TableMode};
use crate::ids::{PlaceId, StageId, SubnetId};
use crate::ir::{MicroOp, Program};
use crate::model::{
    Action, ActionKind, Guard, GuardKind, HookArgs, Hooks, Model, NamedHook, OpClassDef, PlaceDef,
    ResArc, SourceAction, SourceDef, SourceGuard, SquashHandler, StageDef, SubnetDef,
    TransitionDef,
};
use crate::token::InstrData;

/// Version of the on-disk encoding. Bump on **any** change to the byte
/// layout — the golden-fixture test pins the current bytes and fails when
/// they drift under an unchanged version.
pub const FORMAT_VERSION: u32 = 4;

/// The four magic bytes every artifact starts with.
pub const MAGIC: [u8; 4] = *b"RCPN";

/// Errors of the artifact layer: encoding, decoding, and the cache.
///
/// Every decoder failure mode is a typed variant with a rendered message
/// carrying the offending entity — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArtifactError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The rendered I/O error.
        detail: String,
    },
    /// The file does not start with the [`MAGIC`] bytes.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The artifact was written under a different [`FORMAT_VERSION`].
    Version {
        /// Version in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The artifact was built from a different pipeline spec.
    SpecHash {
        /// Spec hash in the file.
        found: u64,
        /// Spec hash the caller expected.
        expected: u64,
    },
    /// The payload checksum does not match: the file is corrupt.
    Checksum {
        /// Checksum computed over the payload.
        computed: u64,
        /// Checksum stored in the header.
        stored: u64,
    },
    /// The file ends in the middle of a section.
    Truncated {
        /// The section being read when the bytes ran out.
        section: &'static str,
    },
    /// A section holds structurally invalid data (bad tag, out-of-range
    /// index, …).
    Corrupt {
        /// The section being read.
        section: &'static str,
        /// What was wrong.
        detail: String,
    },
    /// The artifact references a hook key the [`HookRegistry`] does not
    /// provide.
    UnknownHook {
        /// The registry table missing the key (guard, action, …).
        kind: &'static str,
        /// The missing key.
        key: String,
    },
    /// The model holds a closure without a [`NamedHook`], so it cannot be
    /// serialized. Use the `*_named` spec/builder methods.
    UnnamedClosure {
        /// The entity holding the anonymous closure.
        entity: String,
    },
    /// Well-formed sections followed by garbage bytes.
    TrailingBytes {
        /// Number of unconsumed bytes.
        len: usize,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io { path, detail } => {
                write!(f, "artifact i/o on {} failed: {detail}", path.display())
            }
            ArtifactError::BadMagic { found } => {
                write!(f, "not an rcpn artifact: magic bytes are {found:?}")
            }
            ArtifactError::Version { found, expected } => write!(
                f,
                "artifact format version {found} does not match this build's {expected}; \
                 recompile the model (or garbage-collect the cache)"
            ),
            ArtifactError::SpecHash { found, expected } => write!(
                f,
                "artifact was built from spec {found:#018x} but spec {expected:#018x} was \
                 expected"
            ),
            ArtifactError::Checksum { computed, stored } => write!(
                f,
                "artifact payload checksum mismatch: computed {computed:#018x}, header says \
                 {stored:#018x}"
            ),
            ArtifactError::Truncated { section } => {
                write!(f, "artifact truncated inside the {section} section")
            }
            ArtifactError::Corrupt { section, detail } => {
                write!(f, "artifact {section} section is corrupt: {detail}")
            }
            ArtifactError::UnknownHook { kind, key } => {
                write!(f, "artifact references unregistered {kind} hook {key:?}")
            }
            ArtifactError::UnnamedClosure { entity } => write!(
                f,
                "{entity} holds a closure without a registry name; use the *_named \
                 spec/builder methods to keep the model serializable"
            ),
            ArtifactError::TrailingBytes { len } => {
                write!(f, "artifact has {len} trailing bytes after the last section")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

// ---------------------------------------------------------------------------
// FNV-1a hashing (deterministic, dependency-free).

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a-64 hasher used for the payload checksum, the spec
/// hash, and the cache key. Deterministic across platforms by
/// construction (byte-oriented, little-endian integer encoding).
#[derive(Debug, Clone)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.write(s.as_bytes());
    }

    pub(crate) fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
            None => self.u8(0),
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// Section table.

const SEC_CONFIG: u8 = 1;
const SEC_STAGES: u8 = 2;
const SEC_PLACES: u8 = 3;
const SEC_SUBNETS: u8 = 4;
const SEC_CLASSES: u8 = 5;
const SEC_HOOKS: u8 = 6;
const SEC_TRANSITIONS: u8 = 7;
const SEC_SOURCES: u8 = 8;
const SEC_SQUASH: u8 = 9;

/// Tag → name, in the exact order sections appear in the payload.
const SECTIONS: [(u8, &str); 9] = [
    (SEC_CONFIG, "config"),
    (SEC_STAGES, "stages"),
    (SEC_PLACES, "places"),
    (SEC_SUBNETS, "subnets"),
    (SEC_CLASSES, "classes"),
    (SEC_HOOKS, "hooks"),
    (SEC_TRANSITIONS, "transitions"),
    (SEC_SOURCES, "sources"),
    (SEC_SQUASH, "squash"),
];

fn section_name(tag: u8) -> &'static str {
    SECTIONS.iter().find(|(t, _)| *t == tag).map_or("unknown", |(_, n)| n)
}

/// Byte length of the fixed header (magic, version, spec hash, checksum).
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8;

// ---------------------------------------------------------------------------
// Writer.

#[derive(Debug, Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn len32(&mut self, v: usize) {
        assert!(v <= u32::MAX as usize, "artifact section element count exceeds u32");
        self.u32(v as u32);
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.len32(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn place(&mut self, p: PlaceId) {
        self.u32(p.index() as u32);
    }

    fn opt_place(&mut self, p: Option<PlaceId>) {
        self.u32(p.map_or(u32::MAX, |p| p.index() as u32));
    }

    fn places(&mut self, ps: &[PlaceId]) {
        self.len32(ps.len());
        for &p in ps {
            self.place(p);
        }
    }

    fn named_hook(&mut self, h: &NamedHook) {
        self.str(&h.key);
        self.places(&h.args.fwd);
        self.places(&h.args.flush);
        self.opt_place(h.args.from);
        self.opt_place(h.args.to);
    }

    fn micro_op(&mut self, op: &MicroOp) {
        match op {
            MicroOp::CheckReady { fwd_mask } => {
                self.u8(0);
                self.u64(*fwd_mask);
            }
            MicroOp::AcquireOperands { fwd_mask } => {
                self.u8(1);
                self.u64(*fwd_mask);
            }
            MicroOp::WriteBack => self.u8(2),
            MicroOp::ReserveRes { place, expire } => {
                self.u8(3);
                self.place(*place);
                self.u32(*expire);
            }
            MicroOp::ReleaseRes => self.u8(4),
            MicroOp::EmitRedirect { flush } => {
                self.u8(5);
                self.places(flush);
            }
            MicroOp::Publish => self.u8(6),
            MicroOp::CheckCond { expect } => {
                self.u8(7);
                self.bool(*expect);
            }
            MicroOp::Annul => self.u8(8),
            MicroOp::SetDelay(d) => {
                self.u8(9);
                self.u32(*d);
            }
            MicroOp::CallHook(h) => {
                self.u8(10);
                self.u32(*h);
            }
        }
    }

    fn program(&mut self, p: &Program) {
        self.len32(p.ops().len());
        for op in p.ops() {
            self.micro_op(op);
        }
    }

    /// Writes a tagged section: `tag, byte-length, body`.
    fn section(
        &mut self,
        tag: u8,
        body: impl FnOnce(&mut Writer) -> Result<(), ArtifactError>,
    ) -> Result<(), ArtifactError> {
        self.u8(tag);
        let len_at = self.buf.len();
        self.u32(0); // length placeholder
        body(self)?;
        let len = self.buf.len() - len_at - 4;
        assert!(len <= u32::MAX as usize, "artifact section exceeds u32 bytes");
        self.buf[len_at..len_at + 4].copy_from_slice(&(len as u32).to_le_bytes());
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reader.

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Reader { buf, pos: 0, section }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Truncated { section: self.section });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn corrupt(&self, detail: impl Into<String>) -> ArtifactError {
        ArtifactError::Corrupt { section: self.section, detail: detail.into() }
    }

    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Element count: bounded by the remaining bytes so corrupt lengths
    /// cannot trigger huge allocations.
    fn count(&mut self) -> Result<usize, ArtifactError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(self.corrupt(format!("element count {n} exceeds remaining bytes")));
        }
        Ok(n)
    }

    fn bool(&mut self) -> Result<bool, ArtifactError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format!("bool byte {b:#04x}"))),
        }
    }

    fn str(&mut self) -> Result<String, ArtifactError> {
        let n = self.count()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("non-utf8 string"))
    }

    fn place(&mut self, n_places: usize) -> Result<PlaceId, ArtifactError> {
        let i = self.u32()? as usize;
        if i >= n_places {
            return Err(self.corrupt(format!("place index {i} out of range (< {n_places})")));
        }
        Ok(PlaceId::from_index(i))
    }

    fn opt_place(&mut self, n_places: usize) -> Result<Option<PlaceId>, ArtifactError> {
        let i = self.u32()?;
        if i == u32::MAX {
            return Ok(None);
        }
        let i = i as usize;
        if i >= n_places {
            return Err(self.corrupt(format!("place index {i} out of range (< {n_places})")));
        }
        Ok(Some(PlaceId::from_index(i)))
    }

    fn places(&mut self, n_places: usize) -> Result<Vec<PlaceId>, ArtifactError> {
        let n = self.count()?;
        (0..n).map(|_| self.place(n_places)).collect()
    }

    fn named_hook(&mut self, n_places: usize) -> Result<NamedHook, ArtifactError> {
        let key = self.str()?;
        let fwd = self.places(n_places)?;
        let flush = self.places(n_places)?;
        let from = self.opt_place(n_places)?;
        let to = self.opt_place(n_places)?;
        Ok(NamedHook { key, args: HookArgs { fwd, flush, from, to } })
    }

    fn micro_op(&mut self, n_places: usize) -> Result<MicroOp, ArtifactError> {
        Ok(match self.u8()? {
            0 => MicroOp::CheckReady { fwd_mask: self.u64()? },
            1 => MicroOp::AcquireOperands { fwd_mask: self.u64()? },
            2 => MicroOp::WriteBack,
            3 => MicroOp::ReserveRes { place: self.place(n_places)?, expire: self.u32()? },
            4 => MicroOp::ReleaseRes,
            5 => MicroOp::EmitRedirect { flush: self.places(n_places)?.into_boxed_slice() },
            6 => MicroOp::Publish,
            7 => MicroOp::CheckCond { expect: self.bool()? },
            8 => MicroOp::Annul,
            9 => MicroOp::SetDelay(self.u32()?),
            10 => MicroOp::CallHook(self.u32()?),
            t => return Err(self.corrupt(format!("micro-op tag {t}"))),
        })
    }

    fn program(&mut self, n_places: usize) -> Result<Program, ArtifactError> {
        let n = self.count()?;
        let ops = (0..n).map(|_| self.micro_op(n_places)).collect::<Result<Vec<_>, _>>()?;
        Ok(Program::new(ops))
    }
}

// ---------------------------------------------------------------------------
// Hook registry.

type GuardFactory<D, R> = Box<dyn Fn(&HookArgs) -> Guard<D, R> + Send + Sync>;
type ActionFactory<D, R> = Box<dyn Fn(&HookArgs) -> Action<D, R> + Send + Sync>;
type SourceGuardFactory<R> = Box<dyn Fn(&HookArgs) -> SourceGuard<R> + Send + Sync>;
type SourceActionFactory<D, R> = Box<dyn Fn(&HookArgs) -> SourceAction<D, R> + Send + Sync>;
type SquashFactory<D, R> = Box<dyn Fn(&HookArgs) -> SquashHandler<D, R> + Send + Sync>;

/// The decoder's closure factory: rebuilds every [`NamedHook`] an artifact
/// references.
///
/// Each key maps to a factory receiving the hook's captured [`HookArgs`]
/// and returning a fresh closure. Keys are a stable public contract of the
/// model crate that registers them: the same key must always rebuild
/// behaviorally identical semantics, or reloaded artifacts silently
/// diverge from freshly compiled models (the round-trip tests pin this).
pub struct HookRegistry<D, R> {
    guards: HashMap<String, GuardFactory<D, R>>,
    actions: HashMap<String, ActionFactory<D, R>>,
    source_guards: HashMap<String, SourceGuardFactory<R>>,
    source_actions: HashMap<String, SourceActionFactory<D, R>>,
    squash: HashMap<String, SquashFactory<D, R>>,
}

impl<D, R> Default for HookRegistry<D, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D, R> HookRegistry<D, R> {
    /// An empty registry.
    pub fn new() -> Self {
        HookRegistry {
            guards: HashMap::new(),
            actions: HashMap::new(),
            source_guards: HashMap::new(),
            source_actions: HashMap::new(),
            squash: HashMap::new(),
        }
    }

    /// Registers a transition-guard factory under `key`.
    pub fn guard(
        &mut self,
        key: &str,
        f: impl Fn(&HookArgs) -> Guard<D, R> + Send + Sync + 'static,
    ) -> &mut Self {
        self.guards.insert(key.to_string(), Box::new(f));
        self
    }

    /// Registers a transition-action (and action-hook) factory under `key`.
    pub fn action(
        &mut self,
        key: &str,
        f: impl Fn(&HookArgs) -> Action<D, R> + Send + Sync + 'static,
    ) -> &mut Self {
        self.actions.insert(key.to_string(), Box::new(f));
        self
    }

    /// Registers a source-guard factory under `key`.
    pub fn source_guard(
        &mut self,
        key: &str,
        f: impl Fn(&HookArgs) -> SourceGuard<R> + Send + Sync + 'static,
    ) -> &mut Self {
        self.source_guards.insert(key.to_string(), Box::new(f));
        self
    }

    /// Registers a source-producer factory under `key`.
    pub fn source_action(
        &mut self,
        key: &str,
        f: impl Fn(&HookArgs) -> SourceAction<D, R> + Send + Sync + 'static,
    ) -> &mut Self {
        self.source_actions.insert(key.to_string(), Box::new(f));
        self
    }

    /// Registers a squash-handler factory under `key`.
    pub fn squash(
        &mut self,
        key: &str,
        f: impl Fn(&HookArgs) -> SquashHandler<D, R> + Send + Sync + 'static,
    ) -> &mut Self {
        self.squash.insert(key.to_string(), Box::new(f));
        self
    }

    fn make_guard(&self, h: &NamedHook) -> Result<Guard<D, R>, ArtifactError> {
        self.guards
            .get(&h.key)
            .map(|f| f(&h.args))
            .ok_or_else(|| ArtifactError::UnknownHook { kind: "guard", key: h.key.clone() })
    }

    fn make_action(&self, h: &NamedHook) -> Result<Action<D, R>, ArtifactError> {
        self.actions
            .get(&h.key)
            .map(|f| f(&h.args))
            .ok_or_else(|| ArtifactError::UnknownHook { kind: "action", key: h.key.clone() })
    }

    fn make_source_guard(&self, h: &NamedHook) -> Result<SourceGuard<R>, ArtifactError> {
        self.source_guards
            .get(&h.key)
            .map(|f| f(&h.args))
            .ok_or_else(|| ArtifactError::UnknownHook { kind: "source guard", key: h.key.clone() })
    }

    fn make_source_action(&self, h: &NamedHook) -> Result<SourceAction<D, R>, ArtifactError> {
        self.source_actions.get(&h.key).map(|f| f(&h.args)).ok_or_else(|| {
            ArtifactError::UnknownHook { kind: "source producer", key: h.key.clone() }
        })
    }

    fn make_squash(&self, h: &NamedHook) -> Result<SquashHandler<D, R>, ArtifactError> {
        self.squash
            .get(&h.key)
            .map(|f| f(&h.args))
            .ok_or_else(|| ArtifactError::UnknownHook { kind: "squash", key: h.key.clone() })
    }
}

impl<D, R> std::fmt::Debug for HookRegistry<D, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookRegistry")
            .field("guards", &self.guards.len())
            .field("actions", &self.actions.len())
            .field("source_guards", &self.source_guards.len())
            .field("source_actions", &self.source_actions.len())
            .field("squash", &self.squash.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Encoding.

fn encode_config(w: &mut Writer, cfg: &EngineConfig) {
    w.u8(match cfg.table_mode {
        TableMode::PerPlaceClass => 0,
        TableMode::PerPlace => 1,
        TableMode::FullScan => 2,
    });
    w.bool(cfg.two_list_everywhere);
    w.u8(match cfg.scheduler {
        SchedulerMode::ActivityDriven => 0,
        SchedulerMode::Exhaustive => 1,
    });
    w.bool(cfg.collect_occupancy);
    w.bool(cfg.trace);
    w.bool(cfg.superblocks);
}

fn config_bytes(cfg: &EngineConfig) -> Vec<u8> {
    let mut w = Writer::default();
    encode_config(&mut w, cfg);
    w.buf
}

fn unnamed(entity: String) -> ArtifactError {
    ArtifactError::UnnamedClosure { entity }
}

fn encode_model<D, R>(w: &mut Writer, model: &Model<D, R>) -> Result<(), ArtifactError> {
    w.section(SEC_STAGES, |w| {
        w.len32(model.stages.len());
        for s in &model.stages {
            w.str(&s.name);
            w.u32(s.capacity);
            w.bool(s.is_end);
        }
        Ok(())
    })?;
    w.section(SEC_PLACES, |w| {
        w.len32(model.places.len());
        for p in &model.places {
            w.str(&p.name);
            w.u32(p.stage.index() as u32);
            w.u32(p.delay);
        }
        Ok(())
    })?;
    w.section(SEC_SUBNETS, |w| {
        w.len32(model.subnets.len());
        for s in &model.subnets {
            w.str(&s.name);
        }
        Ok(())
    })?;
    w.section(SEC_CLASSES, |w| {
        w.len32(model.classes.len());
        for c in &model.classes {
            w.str(&c.name);
            w.u32(c.subnet.index() as u32);
        }
        Ok(())
    })?;
    w.section(SEC_HOOKS, |w| {
        w.len32(model.hooks.guards.len());
        for (i, name) in model.hooks.guard_names.iter().enumerate() {
            let name = name.as_ref().ok_or_else(|| unnamed(format!("guard hook #{i}")))?;
            w.named_hook(name);
        }
        w.len32(model.hooks.actions.len());
        for (i, name) in model.hooks.action_names.iter().enumerate() {
            let name = name.as_ref().ok_or_else(|| unnamed(format!("action hook #{i}")))?;
            w.named_hook(name);
        }
        Ok(())
    })?;
    w.section(SEC_TRANSITIONS, |w| {
        w.len32(model.transitions.len());
        for t in &model.transitions {
            w.str(&t.name);
            w.u32(t.subnet.index() as u32);
            w.place(t.input);
            w.u32(t.priority);
            w.places(&t.extra_inputs);
            w.place(t.dest);
            w.len32(t.reservations.len());
            for r in &t.reservations {
                w.place(r.place);
                w.u32(r.expire);
            }
            w.u32(t.delay);
            w.places(&t.reads_states);
            match &t.guard {
                None => w.u8(0),
                Some(GuardKind::Ir(p)) => {
                    w.u8(1);
                    w.program(p);
                }
                Some(GuardKind::Closure(_)) => {
                    let name = t
                        .guard_name
                        .as_ref()
                        .ok_or_else(|| unnamed(format!("transition {:?} guard", t.name)))?;
                    w.u8(2);
                    w.named_hook(name);
                }
            }
            match &t.action {
                None => w.u8(0),
                Some(ActionKind::Ir(p)) => {
                    w.u8(1);
                    w.program(p);
                }
                Some(ActionKind::Closure(_)) => {
                    let name = t
                        .action_name
                        .as_ref()
                        .ok_or_else(|| unnamed(format!("transition {:?} action", t.name)))?;
                    w.u8(2);
                    w.named_hook(name);
                }
            }
        }
        Ok(())
    })?;
    w.section(SEC_SOURCES, |w| {
        w.len32(model.sources.len());
        for s in &model.sources {
            w.str(&s.name);
            w.place(s.dest);
            w.u32(s.max_per_cycle);
            match (&s.guard, &s.guard_name) {
                (None, _) => w.u8(0),
                (Some(_), Some(name)) => {
                    w.u8(1);
                    w.named_hook(name);
                }
                (Some(_), None) => {
                    return Err(unnamed(format!("source {:?} guard", s.name)));
                }
            }
            let name = s
                .produce_name
                .as_ref()
                .ok_or_else(|| unnamed(format!("source {:?} producer", s.name)))?;
            w.named_hook(name);
        }
        Ok(())
    })?;
    w.section(SEC_SQUASH, |w| {
        match (&model.squash_handler, &model.squash_name) {
            (None, _) => w.u8(0),
            (Some(_), Some(name)) => {
                w.u8(1);
                w.named_hook(name);
            }
            (Some(_), None) => return Err(unnamed("squash handler".to_string())),
        }
        Ok(())
    })?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding.

/// A section slice, with its absolute payload offset (for inspection
/// tooling and corruption tests that need to target specific regions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name (`"config"`, `"stages"`, …).
    pub name: &'static str,
    /// Absolute byte offset of the section *body* within the file.
    pub offset: usize,
    /// Body length in bytes.
    pub len: usize,
}

/// Header and layout facts of an artifact, obtainable without knowing the
/// model's payload/resource types — what `rcpn-cache` prints and
/// validates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactInfo {
    /// Format version stored in the header.
    pub format_version: u32,
    /// Spec hash stored in the header.
    pub spec_hash: u64,
    /// Payload checksum stored in the header.
    pub stored_checksum: u64,
    /// Whether the stored checksum matches the payload bytes.
    pub checksum_ok: bool,
    /// The engine configuration the model was compiled with.
    pub config: EngineConfig,
    /// Every section, in file order.
    pub sections: Vec<SectionInfo>,
    /// Total file length in bytes.
    pub total_len: usize,
}

fn split_header(bytes: &[u8]) -> Result<(u32, u64, u64, &[u8]), ArtifactError> {
    if bytes.len() < HEADER_LEN {
        return Err(ArtifactError::Truncated { section: "header" });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(ArtifactError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let spec_hash = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    Ok((version, spec_hash, checksum, &bytes[HEADER_LEN..]))
}

fn decode_config(r: &mut Reader<'_>) -> Result<EngineConfig, ArtifactError> {
    let table_mode = match r.u8()? {
        0 => TableMode::PerPlaceClass,
        1 => TableMode::PerPlace,
        2 => TableMode::FullScan,
        t => return Err(r.corrupt(format!("table-mode tag {t}"))),
    };
    let two_list_everywhere = r.bool()?;
    let scheduler = match r.u8()? {
        0 => SchedulerMode::ActivityDriven,
        1 => SchedulerMode::Exhaustive,
        t => return Err(r.corrupt(format!("scheduler tag {t}"))),
    };
    Ok(EngineConfig {
        table_mode,
        two_list_everywhere,
        scheduler,
        collect_occupancy: r.bool()?,
        trace: r.bool()?,
        superblocks: r.bool()?,
    })
}

/// One decoded section: `(tag, absolute body offset within the payload,
/// body bytes)`.
type RawSection<'a> = (u8, usize, &'a [u8]);

/// Splits the payload into its expected sections, in order.
fn split_sections(payload: &[u8]) -> Result<Vec<RawSection<'_>>, ArtifactError> {
    let mut out = Vec::with_capacity(SECTIONS.len());
    let mut pos = 0usize;
    for (expect_tag, name) in SECTIONS {
        if payload.len() - pos < 5 {
            return Err(ArtifactError::Truncated { section: name });
        }
        let tag = payload[pos];
        if tag != expect_tag {
            return Err(ArtifactError::Corrupt {
                section: name,
                detail: format!("expected section tag {expect_tag}, found {tag}"),
            });
        }
        let len =
            u32::from_le_bytes(payload[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
        pos += 5;
        if payload.len() - pos < len {
            return Err(ArtifactError::Truncated { section: section_name(tag) });
        }
        out.push((tag, pos, &payload[pos..pos + len]));
        pos += len;
    }
    if pos != payload.len() {
        return Err(ArtifactError::TrailingBytes { len: payload.len() - pos });
    }
    Ok(out)
}

/// Parses an artifact's header and section layout without reconstructing
/// the model — the generic-free view used by the `rcpn-cache` tool and the
/// robustness tests.
///
/// # Errors
///
/// Returns the same header/layout [`ArtifactError`]s as a full decode
/// (bad magic, version mismatch, truncation, tag corruption); checksum
/// state is *reported* (in [`ArtifactInfo::checksum_ok`]) rather than
/// enforced, so corrupt files can still be listed and garbage-collected.
pub fn inspect(bytes: &[u8]) -> Result<ArtifactInfo, ArtifactError> {
    let (version, spec_hash, stored, payload) = split_header(bytes)?;
    if version != FORMAT_VERSION {
        return Err(ArtifactError::Version { found: version, expected: FORMAT_VERSION });
    }
    let sections_raw = split_sections(payload)?;
    let mut config = None;
    let mut sections = Vec::with_capacity(sections_raw.len());
    for (tag, off, body) in &sections_raw {
        if *tag == SEC_CONFIG {
            config = Some(decode_config(&mut Reader::new(body, "config"))?);
        }
        sections.push(SectionInfo {
            name: section_name(*tag),
            offset: HEADER_LEN + off,
            len: body.len(),
        });
    }
    Ok(ArtifactInfo {
        format_version: version,
        spec_hash,
        stored_checksum: stored,
        checksum_ok: fnv1a(payload) == stored,
        config: config.expect("config section is mandatory"),
        sections,
        total_len: bytes.len(),
    })
}

impl<D: InstrData, R> CompiledModel<D, R> {
    /// Serializes this compiled model into the versioned artifact
    /// encoding, stamped with `spec_hash` (see
    /// [`crate::spec::PipelineSpec::content_hash`]).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::UnnamedClosure`] when any guard, action, hook,
    /// source or squash closure lacks a [`NamedHook`] — such a model
    /// cannot be reconstructed from bytes.
    pub fn to_artifact_bytes(&self, spec_hash: u64) -> Result<Vec<u8>, ArtifactError> {
        let mut w = Writer::default();
        w.section(SEC_CONFIG, |w| {
            encode_config(w, &self.cfg);
            Ok(())
        })?;
        encode_model(&mut w, &self.model)?;
        let payload = w.buf;
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&spec_hash.to_le_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// [`CompiledModel::to_artifact_bytes`] written to `path` (via a
    /// temporary file + rename, so concurrent readers never observe a
    /// half-written artifact).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::UnnamedClosure`] as for `to_artifact_bytes`, and
    /// [`ArtifactError::Io`] on filesystem failures.
    pub fn save_artifact(&self, path: &Path, spec_hash: u64) -> Result<(), ArtifactError> {
        let bytes = self.to_artifact_bytes(spec_hash)?;
        let io_err = |e: std::io::Error| ArtifactError::Io {
            path: path.to_path_buf(),
            detail: e.to_string(),
        };
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, &bytes).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)
    }

    /// Reconstructs a compiled model from artifact bytes: decodes the
    /// stored model definition, rebuilds every named closure through
    /// `registry`, validates the result with [`ModelBuilder::build`] and
    /// regenerates the tables with [`CompiledModel::compile_with`] under
    /// the stored engine config.
    ///
    /// `expected_spec_hash`, when given, must match the hash stamped into
    /// the header — the caller's proof the artifact belongs to the spec it
    /// is about to simulate.
    ///
    /// # Errors
    ///
    /// Every [`ArtifactError`] variant except `UnnamedClosure`: bad magic,
    /// version or spec-hash mismatch, checksum failure, truncation,
    /// structural corruption (a model `build()` rejects is
    /// `Corrupt { section: "model" }` with the build error's message),
    /// unknown hook keys, trailing bytes.
    pub fn from_artifact_bytes(
        bytes: &[u8],
        expected_spec_hash: Option<u64>,
        registry: &HookRegistry<D, R>,
    ) -> Result<Self, ArtifactError> {
        let (version, spec_hash, stored, payload) = split_header(bytes)?;
        if version != FORMAT_VERSION {
            return Err(ArtifactError::Version { found: version, expected: FORMAT_VERSION });
        }
        if let Some(expected) = expected_spec_hash {
            if spec_hash != expected {
                return Err(ArtifactError::SpecHash { found: spec_hash, expected });
            }
        }
        let computed = fnv1a(payload);
        if computed != stored {
            return Err(ArtifactError::Checksum { computed, stored });
        }
        let sections = split_sections(payload)?;
        let body = |tag: u8| -> &[u8] {
            sections.iter().find(|(t, _, _)| *t == tag).map(|(_, _, b)| *b).expect("all present")
        };

        let cfg = decode_config(&mut Reader::new(body(SEC_CONFIG), "config"))?;

        let r = &mut Reader::new(body(SEC_STAGES), "stages");
        let n = r.count()?;
        let mut stages = Vec::with_capacity(n);
        for _ in 0..n {
            stages.push(StageDef { name: r.str()?, capacity: r.u32()?, is_end: r.bool()? });
        }
        let n_stages = stages.len();

        let r = &mut Reader::new(body(SEC_PLACES), "places");
        let n = r.count()?;
        let mut places = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let stage = r.u32()? as usize;
            if stage >= n_stages {
                return Err(r.corrupt(format!("place {name:?} references stage {stage}")));
            }
            places.push(PlaceDef { name, stage: StageId::from_index(stage), delay: r.u32()? });
        }
        let n_places = places.len();

        let r = &mut Reader::new(body(SEC_SUBNETS), "subnets");
        let n = r.count()?;
        let mut subnets = Vec::with_capacity(n);
        for _ in 0..n {
            subnets.push(SubnetDef { name: r.str()? });
        }
        let n_subnets = subnets.len();

        let r = &mut Reader::new(body(SEC_CLASSES), "classes");
        let n = r.count()?;
        let mut classes = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let subnet = r.u32()? as usize;
            if subnet >= n_subnets {
                return Err(r.corrupt(format!("class {name:?} references subnet {subnet}")));
            }
            classes.push(OpClassDef { name, subnet: SubnetId::from_index(subnet) });
        }

        let r = &mut Reader::new(body(SEC_HOOKS), "hooks");
        let mut hooks = Hooks::new();
        let n = r.count()?;
        for _ in 0..n {
            let name = r.named_hook(n_places)?;
            hooks.guards.push(registry.make_guard(&name)?);
            hooks.guard_names.push(Some(name));
        }
        let n = r.count()?;
        for _ in 0..n {
            let name = r.named_hook(n_places)?;
            hooks.actions.push(registry.make_action(&name)?);
            hooks.action_names.push(Some(name));
        }

        let r = &mut Reader::new(body(SEC_TRANSITIONS), "transitions");
        let n = r.count()?;
        let mut transitions: Vec<TransitionDef<D, R>> = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let subnet = r.u32()? as usize;
            if subnet >= n_subnets {
                return Err(r.corrupt(format!("transition {name:?} references subnet {subnet}")));
            }
            let input = r.place(n_places)?;
            let priority = r.u32()?;
            let extra_inputs = r.places(n_places)?;
            let dest = r.place(n_places)?;
            let nres = r.count()?;
            let reservations = (0..nres)
                .map(|_| Ok(ResArc { place: r.place(n_places)?, expire: r.u32()? }))
                .collect::<Result<Vec<_>, ArtifactError>>()?;
            let delay = r.u32()?;
            let reads_states = r.places(n_places)?;
            let (guard, guard_name) = match r.u8()? {
                0 => (None, None),
                1 => (Some(GuardKind::Ir(r.program(n_places)?)), None),
                2 => {
                    let h = r.named_hook(n_places)?;
                    (Some(GuardKind::Closure(registry.make_guard(&h)?)), Some(h))
                }
                t => return Err(r.corrupt(format!("guard tag {t}"))),
            };
            let (action, action_name) = match r.u8()? {
                0 => (None, None),
                1 => (Some(ActionKind::Ir(r.program(n_places)?)), None),
                2 => {
                    let h = r.named_hook(n_places)?;
                    (Some(ActionKind::Closure(registry.make_action(&h)?)), Some(h))
                }
                t => return Err(r.corrupt(format!("action tag {t}"))),
            };
            transitions.push(TransitionDef {
                name,
                subnet: SubnetId::from_index(subnet),
                input,
                priority,
                extra_inputs,
                guard,
                action,
                dest,
                reservations,
                delay,
                reads_states,
                guard_name,
                action_name,
            });
        }

        let r = &mut Reader::new(body(SEC_SOURCES), "sources");
        let n = r.count()?;
        let mut sources: Vec<SourceDef<D, R>> = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let dest = r.place(n_places)?;
            let max_per_cycle = r.u32()?;
            let (guard, guard_name) = match r.u8()? {
                0 => (None, None),
                1 => {
                    let h = r.named_hook(n_places)?;
                    (Some(registry.make_source_guard(&h)?), Some(h))
                }
                t => return Err(r.corrupt(format!("source guard tag {t}"))),
            };
            let produce_name = r.named_hook(n_places)?;
            let produce = registry.make_source_action(&produce_name)?;
            sources.push(SourceDef {
                name,
                dest,
                guard,
                produce,
                max_per_cycle,
                guard_name,
                produce_name: Some(produce_name),
            });
        }

        let r = &mut Reader::new(body(SEC_SQUASH), "squash");
        let (squash_handler, squash_name) = match r.u8()? {
            0 => (None, None),
            1 => {
                let h = r.named_hook(n_places)?;
                (Some(registry.make_squash(&h)?), Some(h))
            }
            t => return Err(r.corrupt(format!("squash tag {t}"))),
        };

        // The stored definition passes the same validation and the same
        // generator as a model built in code: nothing derived is trusted.
        let builder = ModelBuilder {
            stages,
            places,
            transitions,
            sources,
            subnets,
            classes,
            hooks,
            end_stage: StageId::from_index(0),
            end_place: PlaceId::from_index(0),
            squash_handler,
            squash_name,
        };
        let model = builder
            .build()
            .map_err(|e| ArtifactError::Corrupt { section: "model", detail: e.to_string() })?;
        Ok(CompiledModel::compile_with(model, cfg))
    }

    /// Reads and decodes an artifact file; see
    /// [`CompiledModel::from_artifact_bytes`].
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on read failure, plus every decode error of
    /// `from_artifact_bytes`.
    pub fn load_artifact(
        path: &Path,
        expected_spec_hash: Option<u64>,
        registry: &HookRegistry<D, R>,
    ) -> Result<Self, ArtifactError> {
        let bytes = std::fs::read(path)
            .map_err(|e| ArtifactError::Io { path: path.to_path_buf(), detail: e.to_string() })?;
        Self::from_artifact_bytes(&bytes, expected_spec_hash, registry)
    }
}

// ---------------------------------------------------------------------------
// Cache.

/// A content-addressed artifact cache over a directory.
///
/// Entries are keyed by `(spec hash, engine-config hash, format
/// version)`; the file name embeds the first two, the header carries the
/// third. [`ArtifactCache::load_or_compile`] is the primary entry point:
/// it reloads on a valid cache entry (**hit**), compiles-and-stores on a
/// missing or invalid one (**miss**), and compiles without storing when
/// the model turns out to be unserializable — unnamed closures —
/// (**bypass**). Counters for all three are kept with relaxed atomics, so
/// a shared `&ArtifactCache` works from batch workers.
#[derive(Debug)]
pub struct ArtifactCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
}

impl ArtifactCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ArtifactError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ArtifactError::Io { path: dir.clone(), detail: e.to_string() })?;
        Ok(ArtifactCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Successful reloads so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Compile-and-store events so far (entry missing or invalid).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Unserializable-model compilations so far (nothing stored).
    pub fn bypasses(&self) -> u64 {
        self.bypasses.load(Ordering::Relaxed)
    }

    /// The file name stem for `(spec_hash, cfg)` under the current
    /// [`FORMAT_VERSION`]: `"{spec_hash:016x}-{cfg_hash:016x}"`.
    pub fn entry_stem(spec_hash: u64, cfg: &EngineConfig) -> String {
        let mut h = Fnv::new();
        h.u32(FORMAT_VERSION);
        h.write(&config_bytes(cfg));
        format!("{spec_hash:016x}-{:016x}", h.finish())
    }

    /// The on-disk path an artifact for `(spec_hash, cfg)` lives at.
    pub fn entry_path(&self, spec_hash: u64, cfg: &EngineConfig) -> PathBuf {
        self.dir.join(format!("{}.rcpn", Self::entry_stem(spec_hash, cfg)))
    }

    /// Reloads the artifact for `(spec_hash, cfg)` if a valid entry
    /// exists (hit); otherwise runs `compile` and stores its result
    /// (miss). A model `compile` produces that cannot be serialized —
    /// unnamed closures — is returned as-is and counted as a bypass;
    /// nothing is stored.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when storing a freshly compiled artifact
    /// fails. Invalid cache entries are not errors: they are recompiled
    /// over (and the decode failure is discarded).
    pub fn load_or_compile<D: InstrData, R>(
        &self,
        spec_hash: u64,
        cfg: &EngineConfig,
        registry: &HookRegistry<D, R>,
        compile: impl FnOnce() -> CompiledModel<D, R>,
    ) -> Result<CompiledModel<D, R>, ArtifactError> {
        let path = self.entry_path(spec_hash, cfg);
        if let Ok(bytes) = std::fs::read(&path) {
            if let Ok(m) = CompiledModel::from_artifact_bytes(&bytes, Some(spec_hash), registry) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(m);
            }
        }
        let compiled = compile();
        match compiled.to_artifact_bytes(spec_hash) {
            Ok(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                compiled.save_artifact(&path, spec_hash)?;
                Ok(compiled)
            }
            Err(ArtifactError::UnnamedClosure { .. }) => {
                self.bypasses.fetch_add(1, Ordering::Relaxed);
                Ok(compiled)
            }
            Err(e) => Err(e),
        }
    }

    /// Paths of every `.rcpn` entry currently in the cache directory, in
    /// name order.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the directory cannot be read.
    pub fn entries(&self) -> Result<Vec<PathBuf>, ArtifactError> {
        let rd = std::fs::read_dir(&self.dir)
            .map_err(|e| ArtifactError::Io { path: self.dir.clone(), detail: e.to_string() })?;
        let mut out: Vec<PathBuf> = rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "rcpn"))
            .collect();
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn error_messages_carry_entity_names() {
        let cases: Vec<(ArtifactError, &str)> = vec![
            (ArtifactError::BadMagic { found: *b"JUNK" }, "not an rcpn artifact"),
            (
                ArtifactError::Version { found: 9, expected: FORMAT_VERSION },
                "format version 9 does not match",
            ),
            (
                ArtifactError::SpecHash { found: 0xabc, expected: 0xdef },
                "built from spec 0x0000000000000abc",
            ),
            (ArtifactError::Checksum { computed: 1, stored: 2 }, "checksum mismatch"),
            (
                ArtifactError::Truncated { section: "sources" },
                "truncated inside the sources section",
            ),
            (
                ArtifactError::Corrupt { section: "hooks", detail: "bool byte 0x07".into() },
                "hooks section is corrupt: bool byte 0x07",
            ),
            (
                ArtifactError::UnknownHook { kind: "guard", key: "arm.nope".into() },
                "unregistered guard hook \"arm.nope\"",
            ),
            (
                ArtifactError::UnnamedClosure { entity: "transition \"t\" guard".into() },
                "transition \"t\" guard holds a closure without a registry name",
            ),
            (ArtifactError::TrailingBytes { len: 3 }, "3 trailing bytes"),
        ];
        for (e, needle) in cases {
            let msg = e.to_string();
            assert!(msg.contains(needle), "{msg:?} must contain {needle:?}");
        }
    }

    #[derive(Debug)]
    struct Tok(crate::ids::OpClassId);

    impl InstrData for Tok {
        fn op_class(&self) -> crate::ids::OpClassId {
            self.0
        }
    }

    fn feed() -> Option<Tok> {
        Some(Tok(crate::ids::OpClassId::from_index(0)))
    }

    /// A two-latch spec pipeline, compiled with the default config.
    fn two_latch() -> CompiledModel<Tok, ()> {
        let mut s: crate::spec::PipelineSpec<Tok, ()> = crate::spec::PipelineSpec::new("forged");
        s.stage("F", 1).latch("pf", "F").stage("X", 1).latch("px", "X");
        s.class("A").step("px").step("end");
        s.source("fetch").to("pf").produce_named("t.feed", |_m, _fx| feed());
        CompiledModel::compile(s.lower().expect("spec lowers"))
    }

    fn registry() -> HookRegistry<Tok, ()> {
        let mut r = HookRegistry::new();
        r.source_action("t.feed", |_args| Box::new(|_m, _fx| feed()));
        r
    }

    /// Edits the model, encodes it through the ordinary encoder (so the
    /// checksum is valid) and decodes it again.
    fn forge(
        edit: impl FnOnce(&mut Model<Tok, ()>),
    ) -> Result<CompiledModel<Tok, ()>, ArtifactError> {
        let CompiledModel { model, plan, cfg } = two_latch();
        let mut model = Arc::try_unwrap(model).expect("freshly compiled model has one owner");
        edit(&mut model);
        let forged = CompiledModel { model: Arc::new(model), plan, cfg };
        let bytes = forged.to_artifact_bytes(7).expect("forged model encodes");
        CompiledModel::from_artifact_bytes(&bytes, Some(7), &registry())
    }

    /// A resealed artifact whose model breaks a rule of
    /// [`ModelBuilder::build`] must be refused with that rule's message,
    /// not compiled and simulated.
    #[test]
    fn forged_models_are_corrupt_not_simulated() {
        let clean = forge(|_| {}).expect("unedited model decodes");
        let mut e =
            clean.instantiate(crate::model::Machine::new(crate::reg::RegisterFile::new(), ()));
        e.run(20);
        assert!(e.stats().retired > 0, "the unedited model simulates");

        type Edit = fn(&mut Model<Tok, ()>);
        fn guard(ops: Vec<MicroOp>) -> Option<GuardKind<Tok, ()>> {
            Some(GuardKind::Ir(Program::new(ops)))
        }
        let cases: Vec<(&str, Edit)> = vec![
            ("capacity zero", |m| m.stages[1].capacity = 0),
            ("share priority", |m| {
                let (input, priority) = (m.transitions[0].input, m.transitions[0].priority);
                m.transitions[1].input = input;
                m.transitions[1].priority = priority;
            }),
            ("non-guard op WriteBack", |m| {
                m.transitions[0].guard = guard(vec![MicroOp::WriteBack])
            }),
            ("calls hook 5", |m| m.transitions[0].guard = guard(vec![MicroOp::CallHook(5)])),
            ("requires a CheckReady", |m| {
                let acquire = MicroOp::AcquireOperands { fwd_mask: 1 };
                m.transitions[0].action = Some(ActionKind::Ir(Program::new(vec![acquire])));
            }),
        ];
        for (needle, edit) in cases {
            match forge(edit) {
                Err(ArtifactError::Corrupt { section: "model", detail }) => {
                    assert!(detail.contains(needle), "{needle}: detail {detail:?}");
                }
                other => {
                    panic!("{needle}: expected a model Corrupt error, got {:?}", other.map(|_| ()))
                }
            }
        }
    }

    #[test]
    fn entry_stem_separates_config_variants() {
        let a = ArtifactCache::entry_stem(7, &EngineConfig::default());
        let cfg = EngineConfig { superblocks: false, ..Default::default() };
        let b = ArtifactCache::entry_stem(7, &cfg);
        assert_ne!(a, b, "config variants must get distinct cache entries");
        assert_eq!(a, ArtifactCache::entry_stem(7, &EngineConfig::default()), "stable stems");
    }
}
