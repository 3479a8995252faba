//! The ARM named-hook registry: stable string keys for every escape-hatch
//! closure the ARM pipeline specs attach, so compiled models serialize to
//! [`rcpn::artifact`] artifacts and reload without recompiling any Rust.
//!
//! The three ARM models ([`crate::strongarm`], [`crate::xscale`],
//! [`crate::superarm`]) share one semantics library ([`crate::semantics`]);
//! this module gives each semantic function one key (the [`keys`]
//! constants) and one factory that rebuilds the exact closure the spec
//! lowering wires, from the [`HookArgs`] captured at lowering time (the
//! step's resolved forwarding window, flush list and own places). The keys
//! are a **stability contract**: an `arm.*` key must always rebuild
//! behaviorally identical semantics, or reloaded artifacts silently
//! diverge from fresh compiles — the artifact round-trip tests pin this
//! bit-for-bit.

use rcpn::artifact::HookRegistry;
use rcpn::model::HookArgs;

use crate::armtok::ArmTok;
use crate::res::ArmRes;
use crate::semantics::*;

/// The stable hook keys the ARM specs reference. One constant per
/// escape-hatch closure; renaming one is a format-compatibility break for
/// existing artifacts (old keys may be kept as aliases instead).
pub mod keys {
    /// Transition guard: a block transfer retires as a one-cycle bubble —
    /// its condition fails or its register list is empty. It replaces
    /// `arm.cond_fail` without an alias: the spec hash covers hook keys,
    /// so caches never serve artifacts that name the old key.
    pub const LDM_BUBBLE: &str = "arm.ldm_bubble";
    /// Transition guard: the next load/store-multiple micro-op is ready
    /// (uses the step's forwarding window).
    pub const LDM_UOP_READY: &str = "arm.ldm_uop_ready";
    /// Action: issue one load/store-multiple micro-op and re-enter the
    /// issue latch (uses the forwarding window and the step's `from`
    /// place).
    pub const LDM_UOP_ISSUE: &str = "arm.ldm_uop_issue";
    /// Action: retire a block transfer as a bubble (the bookkeeping half
    /// of the [`LDM_BUBBLE`] alternative).
    pub const LDM_SKIP: &str = "arm.ldm_skip";
    /// Read-then hook: compute the block-transfer address range.
    pub const EXEC_BLOCK_ADDR: &str = "arm.exec_block_addr";
    /// Action: execute a data-processing op (flushes on PC writes).
    pub const EXEC_DATAPROC: &str = "arm.exec_dataproc";
    /// Action: resolve a branch (flushes on mispredict/taken).
    pub const EXEC_BRANCH: &str = "arm.exec_branch";
    /// Action: compute a load/store address.
    pub const EXEC_ADDR: &str = "arm.exec_addr";
    /// Action: perform the memory access (flushes on loads into the PC).
    pub const EXEC_MEM: &str = "arm.exec_mem";
    /// Action: execute a multiply/MAC op.
    pub const EXEC_MUL: &str = "arm.exec_mul";
    /// Action: execute a system op (swi/mrs/msr; flushes on PC writes).
    pub const EXEC_SYSTEM: &str = "arm.exec_system";
    /// Action: retire an instruction and publish its results.
    pub const EXEC_WRITEBACK: &str = "arm.exec_writeback";
    /// Source guard: the fetch unit may produce a token this cycle.
    pub const FETCH_READY: &str = "arm.fetch_ready";
    /// Source producer: fetch and decode the next instruction token.
    pub const FETCH_PRODUCE: &str = "arm.fetch_produce";
    /// Squash handler: drop a squashed token's pending serialize fence.
    pub const CLEAR_SERIALIZE: &str = "arm.clear_serialize";
}

fn from_place(args: &HookArgs) -> rcpn::ids::PlaceId {
    args.from.expect("this arm.* hook is step-scoped and needs a `from` place in its args")
}

/// Builds the hook registry every ARM artifact decodes against.
///
/// Factories close over the per-use [`HookArgs`] (forwarding window,
/// flush list, `from` place), so one key serves every model and every
/// step that references it.
pub fn arm_hooks() -> HookRegistry<ArmTok, ArmRes> {
    let mut r = HookRegistry::new();
    r.guard(keys::LDM_BUBBLE, |_args| Box::new(ldm_bubble));
    r.guard(keys::LDM_UOP_READY, |args| {
        let fwd = args.fwd.clone();
        Box::new(move |m, t| ldm_uop_ready(m, t, &fwd))
    });
    r.action(keys::LDM_UOP_ISSUE, |args| {
        let fwd = args.fwd.clone();
        let from = from_place(args);
        Box::new(move |m, t, fx| ldm_uop_issue(m, t, fx, &fwd, from))
    });
    r.action(keys::LDM_SKIP, |_args| {
        Box::new(|m, t, _fx| {
            clear_serialize(m, t);
            m.res.instr_done += 1;
        })
    });
    r.action(keys::EXEC_BLOCK_ADDR, |_args| Box::new(exec_block_addr));
    r.action(keys::EXEC_DATAPROC, |args| {
        let flush = args.flush.clone();
        Box::new(move |m, t, fx| exec_dataproc(m, t, fx, &flush))
    });
    r.action(keys::EXEC_BRANCH, |args| {
        let flush = args.flush.clone();
        Box::new(move |m, t, fx| exec_branch(m, t, fx, &flush))
    });
    r.action(keys::EXEC_ADDR, |_args| Box::new(exec_addr));
    r.action(keys::EXEC_MEM, |args| {
        let flush = args.flush.clone();
        Box::new(move |m, t, fx| exec_mem(m, t, fx, &flush))
    });
    r.action(keys::EXEC_MUL, |_args| Box::new(exec_mul));
    r.action(keys::EXEC_SYSTEM, |args| {
        let flush = args.flush.clone();
        Box::new(move |m, t, fx| exec_system(m, t, fx, &flush))
    });
    r.action(keys::EXEC_WRITEBACK, |_args| Box::new(exec_writeback));
    r.source_guard(keys::FETCH_READY, |_args| Box::new(fetch_ready));
    r.source_action(keys::FETCH_PRODUCE, |_args| Box::new(fetch_produce));
    r.squash(keys::CLEAR_SERIALIZE, |_args| Box::new(clear_serialize));
    r
}
