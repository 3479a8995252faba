//! Format-stability and robustness tests for [`rcpn::artifact`].
//!
//! Two halves:
//!
//! * **Golden fixture** — a committed encoded artifact
//!   (`tests/fixtures/golden-v4.rcpn`) for a fixed spec + config. Any
//!   change to the wire encoding that is not accompanied by a
//!   [`FORMAT_VERSION`] bump fails loudly here, and the *committed*
//!   bytes (not a fresh encode) must still decode and simulate the
//!   pinned trace. Re-bless intentional format changes with
//!   `RCPN_BLESS=1 cargo test -p rcpn --test artifact_format`.
//! * **Robustness** — truncations, single-byte flips, section-tag
//!   corruption, version/magic/spec-hash mismatches, unknown hook keys
//!   and trailing bytes must each produce the matching typed
//!   [`ArtifactError`] (with a usable rendered message) and never panic.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use rcpn::artifact::{inspect, ArtifactError, HookRegistry, FORMAT_VERSION, HEADER_LEN};
use rcpn::engine::TraceEvent;
use rcpn::prelude::*;
use rcpn::spec::PipelineSpec;

/// Token payload: a class plus an immediate the named hooks key on.
#[derive(Debug, Clone)]
struct Tok {
    class: OpClassId,
    imm: u32,
}

impl InstrData for Tok {
    fn op_class(&self) -> OpClassId {
        self.class
    }
}

#[derive(Debug, Default)]
struct Feed {
    q: RefCell<VecDeque<Tok>>,
    retired: Cell<u32>,
}

/// A small fixed two-class pipeline exercising every named-hook kind:
/// transition guard and action, context action with flushes, source
/// guard and producer, and a squash handler.
fn golden_spec() -> PipelineSpec<Tok, Feed> {
    let mut s: PipelineSpec<Tok, Feed> = PipelineSpec::new("golden");
    s.stage("F", 1);
    s.latch("pf", "F");
    s.stage("X", 2);
    s.latch("px", "X");
    s.redirect("r", "px");
    {
        let a = s.class("A");
        a.step("px").guard_named("t.ready", |m, t: &Tok| t.imm % 2 == 1 || m.cycle % 4 == 0);
        a.step("end").act_named("t.retire", |m, _t, _fx| {
            m.res.retired.set(m.res.retired.get() + 1);
        });
    }
    {
        let b = s.class("B");
        b.step("px");
        b.step("end");
        b.flushes("r").act_ctx_named("t.maybe_flush", |_m, t, fx, cx| {
            if t.imm % 3 == 0 {
                for &pl in &cx.flush {
                    fx.flush(pl);
                }
            }
        });
    }
    s.on_squash_named("t.squash", |m, _t| m.res.retired.set(m.res.retired.get()));
    s.source("fetch")
        .to("pf")
        .guard_named("t.fetch_ok", |_m| true)
        .produce_named("t.feed", |m: &mut Machine<Feed>, _fx| m.res.q.borrow_mut().pop_front());
    s
}

/// The registry [`golden_spec`] artifacts decode against.
fn golden_registry() -> HookRegistry<Tok, Feed> {
    let mut r: HookRegistry<Tok, Feed> = HookRegistry::new();
    r.guard("t.ready", |_args| Box::new(|m, t| t.imm % 2 == 1 || m.cycle % 4 == 0));
    r.action("t.retire", |_args| Box::new(|m, _t, _fx| m.res.retired.set(m.res.retired.get() + 1)));
    r.action("t.maybe_flush", |args| {
        let flush = args.flush.clone();
        Box::new(move |_m, t, fx| {
            if t.imm % 3 == 0 {
                for &pl in &flush {
                    fx.flush(pl);
                }
            }
        })
    });
    r.source_guard("t.fetch_ok", |_args| Box::new(|_m| true));
    r.source_action("t.feed", |_args| Box::new(|m, _fx| m.res.q.borrow_mut().pop_front()));
    r.squash("t.squash", |_args| Box::new(|m, _t| m.res.retired.set(m.res.retired.get())));
    r
}

fn golden_machine() -> Machine<Feed> {
    let feed = Feed::default();
    let (ca, cb) = (OpClassId::from_index(0), OpClassId::from_index(1));
    feed.q.borrow_mut().extend(
        [(0u32, false), (1, true), (3, true), (5, false), (2, false), (9, true), (7, false)]
            .into_iter()
            .map(|(imm, is_b)| Tok { class: if is_b { cb } else { ca }, imm }),
    );
    Machine::new(RegisterFile::new(), feed)
}

/// Fresh spec hash + compiled artifact bytes for the golden spec under a
/// fixed (traced) engine config.
fn golden_artifact() -> (u64, Vec<u8>) {
    let spec_hash = golden_spec().content_hash();
    let model = golden_spec().lower().expect("golden spec lowers");
    let cfg = EngineConfig { trace: true, ..Default::default() };
    let compiled = CompiledModel::compile_with(model, cfg);
    let bytes = compiled.to_artifact_bytes(spec_hash).expect("golden model serializes");
    (spec_hash, bytes)
}

/// Runs a compiled golden model and folds the outcome into comparable
/// facts: the full trace, final cycle, and retire count.
fn simulate(compiled: &CompiledModel<Tok, Feed>) -> (Vec<TraceEvent>, u64, u32) {
    let mut e = compiled.instantiate(golden_machine());
    e.run(60);
    let retired = e.machine().res.retired.get();
    (e.take_trace(), e.cycle(), retired)
}

/// FNV-1a-64 (the artifact layer's own checksum, reimplemented
/// independently here so the tests can re-seal deliberately corrupted
/// payloads).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Recomputes and stores the payload checksum after a deliberate payload
/// edit, so decoding proceeds past the checksum gate.
fn reseal(bytes: &mut [u8]) {
    let c = fnv1a(&bytes[HEADER_LEN..]);
    bytes[16..24].copy_from_slice(&c.to_le_bytes());
}

fn decode(bytes: &[u8], expected: Option<u64>) -> Result<CompiledModel<Tok, Feed>, ArtifactError> {
    CompiledModel::from_artifact_bytes(bytes, expected, &golden_registry())
}

// ---------------------------------------------------------------------
// Golden fixture
// ---------------------------------------------------------------------

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden-v4.rcpn");
/// [`PipelineSpec::content_hash`] of [`golden_spec`] at bless time.
const GOLDEN_SPEC_HASH: u64 = 0x7af9_d0ff_66dd_59a5;
/// FNV-1a over the `Debug` rendering of every trace event, one per line.
const GOLDEN_TRACE_FNV: u64 = 0xeb20_5252_ed03_1d6d;
/// Final cycle and retire count of the pinned simulation.
const GOLDEN_CYCLES: u64 = 60;
const GOLDEN_RETIRED: u32 = 2;

fn trace_digest(trace: &[TraceEvent]) -> u64 {
    let mut s = String::new();
    for ev in trace {
        s.push_str(&format!("{ev:?}\n"));
    }
    fnv1a(s.as_bytes())
}

#[test]
fn golden_artifact_bytes_are_stable() {
    let (spec_hash, bytes) = golden_artifact();
    if std::env::var("RCPN_BLESS").is_ok() {
        std::fs::write(GOLDEN_PATH, &bytes).expect("write golden fixture");
        let model = decode(&bytes, Some(spec_hash)).expect("fresh artifact decodes");
        let (trace, cycles, retired) = simulate(&model);
        eprintln!(
            "blessed {GOLDEN_PATH}:\n  GOLDEN_SPEC_HASH = {spec_hash:#018x}\n  \
             GOLDEN_TRACE_FNV = {:#018x}\n  GOLDEN_CYCLES = {cycles}\n  \
             GOLDEN_RETIRED = {retired}",
            trace_digest(&trace),
        );
    }
    assert_eq!(
        spec_hash, GOLDEN_SPEC_HASH,
        "the golden spec's content hash drifted: either the spec in this file changed \
         (revert it) or spec hashing changed (a cache-compatibility break — re-bless \
         with RCPN_BLESS=1 and call it out in the changelog)"
    );
    let committed = std::fs::read(GOLDEN_PATH).expect("committed golden fixture exists");
    assert_eq!(
        bytes, committed,
        "the artifact encoding changed for an identical spec and config while \
         FORMAT_VERSION is still {FORMAT_VERSION}: that silently invalidates every \
         existing cache entry. Bump rcpn::artifact::FORMAT_VERSION and re-bless this \
         fixture with RCPN_BLESS=1"
    );
}

#[test]
fn committed_golden_artifact_still_simulates_the_pinned_trace() {
    let committed = std::fs::read(GOLDEN_PATH).expect("committed golden fixture exists");
    let info = inspect(&committed).expect("committed fixture parses");
    assert_eq!(info.format_version, FORMAT_VERSION);
    assert!(info.checksum_ok, "committed fixture checksum must hold");
    let model = decode(&committed, Some(GOLDEN_SPEC_HASH)).expect("committed fixture decodes");
    let (trace, cycles, retired) = simulate(&model);
    assert_eq!(cycles, GOLDEN_CYCLES, "pinned final cycle");
    assert_eq!(retired, GOLDEN_RETIRED, "pinned retire count");
    assert_eq!(trace_digest(&trace), GOLDEN_TRACE_FNV, "pinned trace digest");
}

// ---------------------------------------------------------------------
// Robustness: every corruption is a typed error, never a panic
// ---------------------------------------------------------------------

#[test]
fn every_truncation_is_a_typed_error() {
    let (spec_hash, bytes) = golden_artifact();
    for len in 0..bytes.len() {
        let err = decode(&bytes[..len], Some(spec_hash))
            .expect_err("every strict prefix must fail to decode");
        assert!(
            matches!(err, ArtifactError::Truncated { .. } | ArtifactError::Checksum { .. }),
            "prefix of {len} bytes: unexpected {err:?}"
        );
        // And the generic-free parse must agree (modulo checksum, which
        // `inspect` reports instead of enforcing).
        if let Err(e) = inspect(&bytes[..len]) {
            assert!(
                matches!(e, ArtifactError::Truncated { .. }),
                "inspect of {len}-byte prefix: unexpected {e:?}"
            );
        }
    }
}

#[test]
fn every_single_byte_flip_is_a_typed_error() {
    let (spec_hash, bytes) = golden_artifact();
    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0xff;
        let err = decode(&mutated, Some(spec_hash))
            .expect_err("a flipped byte must never decode silently");
        // Which typed error depends on where the byte lives (magic,
        // version, spec hash, checksum word, payload); all are errors.
        drop(err);
    }
}

#[test]
fn flipping_a_byte_in_each_section_body_trips_the_checksum() {
    let (spec_hash, bytes) = golden_artifact();
    let info = inspect(&bytes).expect("artifact parses");
    for sec in &info.sections {
        if sec.len == 0 {
            continue;
        }
        let mut mutated = bytes.clone();
        mutated[sec.offset] ^= 0x5a;
        let err = decode(&mutated, Some(spec_hash)).expect_err("corrupt body must not decode");
        assert!(
            matches!(err, ArtifactError::Checksum { .. }),
            "section {}: expected a checksum error, got {err:?}",
            sec.name
        );
        assert!(err.to_string().contains("checksum mismatch"), "message: {err}");
    }
}

#[test]
fn corrupting_each_section_tag_is_reported_by_section() {
    let (spec_hash, bytes) = golden_artifact();
    let info = inspect(&bytes).expect("artifact parses");
    for sec in &info.sections {
        let mut mutated = bytes.clone();
        mutated[sec.offset - 5] = 0xee; // the section's tag byte
        reseal(&mut mutated);
        let err = decode(&mutated, Some(spec_hash)).expect_err("bad tag must not decode");
        match &err {
            ArtifactError::Corrupt { section, detail } => {
                assert_eq!(*section, sec.name);
                assert!(detail.contains("section tag"), "detail: {detail}");
            }
            other => panic!("section {}: expected Corrupt, got {other:?}", sec.name),
        }
        assert!(err.to_string().contains("section is corrupt"), "message: {err}");
    }
}

#[test]
fn version_mismatch_is_typed_and_actionable() {
    let (spec_hash, mut bytes) = golden_artifact();
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    let err = decode(&bytes, Some(spec_hash)).expect_err("future version must not decode");
    assert_eq!(err, ArtifactError::Version { found: 99, expected: FORMAT_VERSION });
    let msg = err.to_string();
    assert!(msg.contains("format version 99"), "message: {msg}");
    assert!(msg.contains("recompile"), "message must say what to do: {msg}");
}

#[test]
fn bad_magic_is_typed() {
    let (spec_hash, mut bytes) = golden_artifact();
    bytes[0..4].copy_from_slice(b"JUNK");
    let err = decode(&bytes, Some(spec_hash)).expect_err("foreign file must not decode");
    assert_eq!(err, ArtifactError::BadMagic { found: *b"JUNK" });
    assert!(err.to_string().contains("not an rcpn artifact"), "message: {err}");
}

#[test]
fn spec_hash_mismatch_is_typed() {
    let (spec_hash, bytes) = golden_artifact();
    let err = decode(&bytes, Some(spec_hash ^ 1))
        .expect_err("an artifact for another spec must not decode");
    assert_eq!(err, ArtifactError::SpecHash { found: spec_hash, expected: spec_hash ^ 1 });
    assert!(err.to_string().contains("built from spec"), "message: {err}");
    // Without an expectation the same bytes decode fine.
    decode(&bytes, None).expect("hash check is opt-in");
}

#[test]
fn unknown_hook_keys_are_typed() {
    let (spec_hash, bytes) = golden_artifact();
    let empty: HookRegistry<Tok, Feed> = HookRegistry::new();
    let err = CompiledModel::from_artifact_bytes(&bytes, Some(spec_hash), &empty)
        .expect_err("no registry entries: decode must fail");
    match &err {
        ArtifactError::UnknownHook { key, .. } => {
            assert!(key.starts_with("t."), "key: {key}");
        }
        other => panic!("expected UnknownHook, got {other:?}"),
    }
    assert!(err.to_string().contains("unregistered"), "message: {err}");
}

#[test]
fn trailing_bytes_are_typed() {
    let (spec_hash, mut bytes) = golden_artifact();
    bytes.extend_from_slice(&[1, 2, 3]);
    reseal(&mut bytes);
    let err = decode(&bytes, Some(spec_hash)).expect_err("trailing bytes must not decode");
    assert_eq!(err, ArtifactError::TrailingBytes { len: 3 });
    assert!(err.to_string().contains("3 trailing bytes"), "message: {err}");
}

#[test]
fn unnamed_closures_fail_encoding_with_the_entity_name() {
    // The same pipeline but with one anonymous guard: serialization must
    // refuse, naming the offending transition.
    let mut s = golden_spec();
    s.class("C").step("px").guard(|_m, t: &Tok| t.imm == 0);
    let spec_hash = s.content_hash();
    let model = s.lower().expect("spec lowers");
    let compiled = CompiledModel::compile_with(model, EngineConfig::default());
    let err =
        compiled.to_artifact_bytes(spec_hash).expect_err("anonymous closures must not serialize");
    match &err {
        ArtifactError::UnnamedClosure { entity } => {
            assert!(entity.contains("guard"), "entity: {entity}");
        }
        other => panic!("expected UnnamedClosure, got {other:?}"),
    }
    assert!(err.to_string().contains("without a registry name"), "message: {err}");
}

#[test]
fn roundtrip_of_the_golden_model_is_bit_identical() {
    let (spec_hash, bytes) = golden_artifact();
    let model = golden_spec().lower().expect("golden spec lowers");
    let fresh =
        CompiledModel::compile_with(model, EngineConfig { trace: true, ..Default::default() });
    let reloaded = decode(&bytes, Some(spec_hash)).expect("artifact decodes");
    assert_eq!(simulate(&fresh), simulate(&reloaded), "fresh vs reloaded simulation");
}
