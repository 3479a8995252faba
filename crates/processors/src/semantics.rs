//! Shared stage semantics for the ARM pipeline models.
//!
//! Each RCPN transition's guard/action is assembled from these helpers, so
//! the StrongARM and XScale models differ only in *structure* (places,
//! stages, forwarding sources, flush sets) — exactly the paper's claim that
//! models mirror the pipeline block diagram while behavior comes from the
//! operation classes.
//!
//! The paper's hazard-interface pairing rule is kept throughout: guards use
//! only the Boolean interfaces (`can_read`, `can_read_in`, `can_write`),
//! actions use the corresponding effectful ones (`read`, `read_fwd`,
//! `reserve_write`, `set`, `writeback`).

use arm_isa::exec::{alu, block_bounds, extend};
use arm_isa::syscall::{dispatch, SysAction, SysEnv};
use arm_isa::types::{shift_imm, shift_reg, Reg};
use memsys::Memory;
use rcpn::ids::PlaceId;
use rcpn::model::{Fx, Machine};
use rcpn::reg::{Operand, RegisterFile};
use rcpn::spec::OperandPolicy;

use crate::armtok::{reg_id, ArmClass, ArmTok, MulSpec, OffSpec, Op2Spec, Width};
use crate::res::ArmRes;

/// The ARM operand policy for [`rcpn::spec::PipelineSpec`] read steps:
/// sources obtainable from the register file or a forwarding latch,
/// destinations reservable ([`ready`]); latch everything and reserve the
/// destinations on issue ([`acquire`]).
#[derive(Debug, Clone, Copy)]
pub struct ArmOperandPolicy;

impl OperandPolicy<ArmTok, ArmRes> for ArmOperandPolicy {
    fn ready(&self, m: &Machine<ArmRes>, t: &ArmTok, fwd: &[PlaceId]) -> bool {
        ready(m, t, fwd)
    }
    fn acquire(
        &self,
        m: &mut Machine<ArmRes>,
        t: &mut ArmTok,
        fx: &mut Fx<ArmTok>,
        fwd: &[PlaceId],
    ) {
        acquire(m, t, fx, fwd);
    }
    /// [`ready`]/[`acquire`] are exactly the standard scoreboard
    /// discipline over [`ArmTok`]'s operand views (`srcs` obtainable +
    /// `dst`/`dst2` reservable; latch from the best source, reserve on
    /// issue), so read steps compile to `CheckReady`/`AcquireOperands`
    /// micro-ops. The `spec_oracle` tests pin the IR and closure
    /// representations bit-identical.
    fn lowers_to_ir(&self) -> bool {
        true
    }
}

/// True if `op` can be supplied now: from the register file, or forwarded
/// from a writer residing in one of the `fwd` states (paper: `canRead() ||
/// canRead(s1) || canRead(s2) …` in the guard).
#[inline]
pub fn obtainable(op: &Operand, rf: &RegisterFile, fwd: &[PlaceId]) -> bool {
    op.can_read(rf) || fwd.iter().any(|&p| op.can_read_in(rf, p))
}

/// Latches `op`'s value from the best available source. Must be guarded by
/// [`obtainable`].
#[inline]
pub fn obtain(op: &mut Operand, rf: &RegisterFile, fwd: &[PlaceId]) {
    if op.can_read(rf) {
        op.read(rf);
        return;
    }
    for &p in fwd {
        if op.can_read_in(rf, p) {
            op.read_fwd(rf);
            return;
        }
    }
    debug_assert!(false, "obtain() without obtainable() guard");
}

/// Issue guard: all sources obtainable and all destinations reservable.
#[inline]
pub fn ready(m: &Machine<ArmRes>, t: &ArmTok, fwd: &[PlaceId]) -> bool {
    t.srcs.iter().all(|s| obtainable(s, &m.regs, fwd))
        && t.dst.can_write(&m.regs)
        && t.dst2.can_write(&m.regs)
}

/// Issue action: latch all sources, reserve all destinations.
#[inline]
pub fn acquire(m: &mut Machine<ArmRes>, t: &mut ArmTok, fx: &mut Fx<ArmTok>, fwd: &[PlaceId]) {
    for s in &mut t.srcs {
        obtain(s, &m.regs, fwd);
    }
    let tok = fx.token();
    // The engine re-points the writer state to the destination place right
    // after this action; the initial place is a placeholder.
    let here = PlaceId::from_index(0);
    t.dst.reserve_write(&mut m.regs, tok, here);
    t.dst2.reserve_write(&mut m.regs, tok, here);
}

/// Evaluates the token's condition against the current flags.
#[inline]
pub fn cond_passes(m: &Machine<ArmRes>, t: &ArmTok) -> bool {
    t.dec.cond.passes(m.res.cpsr)
}

/// Annuls a condition-failed instruction: releases its reservations and
/// lets the token flow through the remaining stages as a bubble.
pub fn annul(m: &mut Machine<ArmRes>, t: &mut ArmTok, fx: &mut Fx<ArmTok>) {
    t.annulled = true;
    let tok = fx.token();
    m.regs.release(tok);
    clear_serialize(m, t);
}

/// Releases the front-end serialization held by this token, exactly once.
/// Called on resolve (redirect/writeback), annul, and squash.
#[inline]
pub fn clear_serialize(m: &mut Machine<ArmRes>, t: &mut ArmTok) {
    if t.serialize_pending {
        t.serialize_pending = false;
        m.res.pending_serialize = m.res.pending_serialize.saturating_sub(1);
    }
}

/// Redirects the front end to `target` and squashes the given places.
pub fn redirect(m: &mut Machine<ArmRes>, fx: &mut Fx<ArmTok>, target: u32, flush: &[PlaceId]) {
    m.res.pc = target & !3;
    m.res.redirects += 1;
    for &p in flush {
        fx.flush(p);
    }
}

/// Execute stage of the DataProc class: shifter + ALU + flags, then either
/// publish the result or redirect the PC (`mov pc, lr` style writers).
pub fn exec_dataproc(
    m: &mut Machine<ArmRes>,
    t: &mut ArmTok,
    fx: &mut Fx<ArmTok>,
    flush: &[PlaceId],
) {
    if !cond_passes(m, t) {
        annul(m, t, fx);
        return;
    }
    let c_in = m.res.cpsr.c();
    let (b, shifter_c) = match t.dec.op2 {
        Op2Spec::Imm { value, carry } => (value, carry.unwrap_or(c_in)),
        Op2Spec::RegImm { ty, amount } => shift_imm(ty, t.srcs[1].value(), u32::from(amount), c_in),
        Op2Spec::RegReg { ty } => shift_reg(ty, t.srcs[1].value(), t.srcs[2].value(), c_in),
    };
    let a = t.srcs[0].value();
    let (result, arith) = alu(t.dec.dp_op, a, b, c_in);
    if t.dec.sets_flags {
        match arith {
            Some((c, v)) => m.res.cpsr.set_nzcv(result >> 31 != 0, result == 0, c, v),
            None => m.res.cpsr.set_nzc(result, shifter_c),
        }
    }
    t.value = result;
    if t.dec.writes_pc {
        redirect(m, fx, result, flush);
    } else if !t.dec.dp_op.is_test() {
        let tok = fx.token();
        t.dst.set(&mut m.regs, tok, result);
    }
}

/// Execute stage of the Branch class: resolve, train the predictor, squash
/// on a front-end mismatch.
pub fn exec_branch(
    m: &mut Machine<ArmRes>,
    t: &mut ArmTok,
    fx: &mut Fx<ArmTok>,
    flush: &[PlaceId],
) {
    let taken = cond_passes(m, t);
    let target = t.dec.branch_target;
    if taken && t.dec.link {
        let tok = fx.token();
        t.dst.set(&mut m.regs, tok, t.pc.wrapping_add(4));
    }
    if !taken {
        annul(m, t, fx);
    }
    if let Some(btb) = &mut m.res.btb {
        btb.update(t.pc, taken, target, t.pred_target);
    }
    let actual = if taken { Some(target) } else { None };
    if actual != t.pred_target {
        m.res.squashes += 1;
        let next = actual.unwrap_or_else(|| t.pc.wrapping_add(4));
        redirect(m, fx, next, flush);
    }
}

/// Address-generation stage of the LoadStore class.
pub fn exec_addr(m: &mut Machine<ArmRes>, t: &mut ArmTok, fx: &mut Fx<ArmTok>) {
    if !cond_passes(m, t) {
        annul(m, t, fx);
        return;
    }
    let spec = t.dec.mem.expect("LoadStore token has a mem spec");
    let base = t.srcs[0].value();
    let off: i32 = match t.dec.off {
        OffSpec::Imm(v) => v,
        OffSpec::Reg { ty, amount, neg } => {
            let (v, _) = shift_imm(ty, t.srcs[1].value(), u32::from(amount), m.res.cpsr.c());
            if neg {
                -(v as i32)
            } else {
                v as i32
            }
        }
    };
    let indexed = base.wrapping_add(off as u32);
    t.addr = if spec.pre { indexed } else { base };
    t.wb_base = indexed;
    if spec.wb {
        let tok = fx.token();
        t.dst2.set(&mut m.regs, tok, indexed);
    }
}

/// Address-generation for the block-transfer parent (micro-op 0). Computes
/// the first transfer address and publishes the written-back base.
pub fn exec_block_addr(m: &mut Machine<ArmRes>, t: &mut ArmTok, fx: &mut Fx<ArmTok>) {
    let spec = t.dec.mem.expect("block token has a mem spec");
    let base = t.srcs[0].value();
    let (start, new_base) = block_bounds(spec.pre, spec.up, base, u32::from(t.dec.n_uops));
    t.addr = start;
    t.wb_base = new_base;
    if spec.wb {
        let tok = fx.token();
        t.dst2.set(&mut m.regs, tok, new_base);
    }
}

/// Guard of the block-transfer bubble: the whole transfer retires as a
/// one-cycle bubble when its condition fails or its register list is
/// empty. An empty list moves no data, and its written-back base equals
/// the base (a zero-byte window), exactly as on the ISS.
pub fn ldm_bubble(m: &Machine<ArmRes>, t: &ArmTok) -> bool {
    t.dec.n_uops == 0 || !cond_passes(m, t)
}

/// The `k`-th register (by ascending number) in a block-transfer list.
pub fn nth_reg(list: u16, k: u8) -> Reg {
    let mut seen = 0;
    for i in 0..16u8 {
        if (list >> i) & 1 == 1 {
            if seen == k {
                return Reg::new(i);
            }
            seen += 1;
        }
    }
    panic!("micro-op index {k} out of range for list {list:#06x}")
}

/// Issue guard of the block-transfer micro-op transition: the `uop`-th
/// transferred register must be reservable (loads) or obtainable (stores,
/// from the register file or a forwarding latch). PC transfers are always
/// issueable — the PC is not scoreboarded.
pub fn ldm_uop_ready(m: &Machine<ArmRes>, t: &ArmTok, fwd: &[PlaceId]) -> bool {
    let spec = t.dec.mem.expect("block token");
    let r = nth_reg(t.dec.reg_list, t.uop);
    if spec.load {
        r.is_pc() || m.regs.writable(reg_id(r))
    } else if r.is_pc() {
        true
    } else {
        obtainable(&Operand::reg(reg_id(r)), &m.regs, fwd)
    }
}

/// Issue action of the block-transfer micro-op transition: binds the
/// `uop`-th register (reserve for loads, latch for stores), and — while
/// micro-ops remain — emits the continuation token back into `cont`, the
/// place the parent currently occupies ("a token may stay in one stage
/// and produce multiple tokens").
pub fn ldm_uop_issue(
    m: &mut Machine<ArmRes>,
    t: &mut ArmTok,
    fx: &mut Fx<ArmTok>,
    fwd: &[PlaceId],
    cont: PlaceId,
) {
    let spec = t.dec.mem.expect("block token");
    let r = nth_reg(t.dec.reg_list, t.uop);
    let tok = fx.token();
    if spec.load {
        if r.is_pc() {
            t.writes_pc = true;
        } else {
            t.dst = Operand::reg(reg_id(r));
            t.dst.reserve_write(&mut m.regs, tok, PlaceId::from_index(0));
        }
    } else {
        let mut op =
            if r.is_pc() { Operand::imm(t.pc.wrapping_add(8)) } else { Operand::reg(reg_id(r)) };
        obtain(&mut op, &m.regs, fwd);
        t.srcs[2] = op;
    }
    if t.uop + 1 < t.dec.n_uops {
        let mut next = t.clone();
        // The serialization travels with the last micro-op.
        t.serialize_pending = false;
        next.uop = t.uop + 1;
        next.addr = t.addr.wrapping_add(4);
        next.dst = Operand::Absent;
        next.dst2 = Operand::Absent;
        next.srcs = [Operand::Absent; 4];
        next.writes_pc = false;
        fx.emit(next, cont, 1);
    }
}

/// Fetch-source guard shared by the ARM front ends: fetch while the
/// program has not exited or faulted and no serializing instruction is
/// pending.
pub fn fetch_ready(m: &Machine<ArmRes>) -> bool {
    m.res.exit.is_none() && m.res.fault.is_none() && m.res.pending_serialize == 0
}

/// Fetch-source producer shared by the ARM front ends: read the word at
/// the PC through the I-cache, decode through the token cache, predict
/// branch targets through the BTB when one is configured, and advance the
/// PC. The token's fetch delay is the I-cache latency.
pub fn fetch_produce(m: &mut Machine<ArmRes>, fx: &mut Fx<ArmTok>) -> Option<ArmTok> {
    let pc = m.res.pc;
    let lat = m.res.icache.access(pc);
    let word = m.res.mem.read32(pc);
    let dec = m.res.dec_cache.lookup(pc, word);
    let mut tok = dec.instantiate(pc);
    let mut next = pc.wrapping_add(4);
    if dec.class == ArmClass::Branch {
        if let Some(btb) = &mut m.res.btb {
            if let Some(target) = btb.predict_target(pc) {
                next = target;
                tok.pred_target = Some(target);
            }
        }
    }
    m.res.pc = next;
    if dec.serialize {
        m.res.pending_serialize += 1;
        tok.serialize_pending = true;
    }
    fx.set_token_delay(lat);
    Some(tok)
}

/// Memory stage: performs the access against memory + D-cache, records the
/// loaded value in the token, and assigns the data-dependent token delay
/// (`t.delay = mem.delay(addr)`, paper Fig. 5). Returns `true` if this
/// access redirects the PC (load into PC), in which case the caller's flush
/// set applies.
pub fn exec_mem(m: &mut Machine<ArmRes>, t: &mut ArmTok, fx: &mut Fx<ArmTok>, flush: &[PlaceId]) {
    if t.annulled {
        return;
    }
    let spec = t.dec.mem.expect("memory token has a mem spec");
    let lat = m.res.dcache.access(t.addr);
    fx.set_token_delay(lat);
    if spec.load {
        let raw = match spec.width {
            Width::Word => m.res.mem.read32(t.addr),
            Width::Byte => u32::from(m.res.mem.read8(t.addr)),
            Width::Half(kind) => {
                let raw = match kind {
                    arm_isa::instr::HKind::S8 => u32::from(m.res.mem.read8(t.addr)),
                    _ => u32::from(m.res.mem.read16(t.addr)),
                };
                extend(kind, raw)
            }
        };
        t.value = raw;
        if t.writes_pc {
            redirect(m, fx, raw, flush);
            clear_serialize(m, t);
        }
    } else {
        let v = t.srcs[2].value();
        match spec.width {
            Width::Word => m.res.mem.write32(t.addr, v),
            Width::Byte => m.res.mem.write8(t.addr, v as u8),
            Width::Half(_) => m.res.mem.write16(t.addr, v as u16),
        }
    }
}

/// Execute stage of the Mul class: product, optional accumulate, flags, and
/// an operand-dependent iteration delay (early-termination multiplier).
pub fn exec_mul(m: &mut Machine<ArmRes>, t: &mut ArmTok, fx: &mut Fx<ArmTok>) {
    if !cond_passes(m, t) {
        annul(m, t, fx);
        return;
    }
    let spec: MulSpec = t.dec.mul.expect("mul token has a mul spec");
    let a = t.srcs[0].value();
    let b = t.srcs[1].value();
    let tok = fx.token();
    if spec.long {
        let mut product = if spec.signed {
            (i64::from(a as i32) * i64::from(b as i32)) as u64
        } else {
            u64::from(a) * u64::from(b)
        };
        if spec.acc {
            let acc = (u64::from(t.srcs[3].value()) << 32) | u64::from(t.srcs[2].value());
            product = product.wrapping_add(acc);
        }
        t.value = product as u32;
        t.value2 = (product >> 32) as u32;
        t.dst.set(&mut m.regs, tok, t.value);
        t.dst2.set(&mut m.regs, tok, t.value2);
        if t.dec.sets_flags {
            m.res.cpsr.set_nzcv(product >> 63 != 0, product == 0, m.res.cpsr.c(), m.res.cpsr.v());
        }
    } else {
        let mut result = a.wrapping_mul(b);
        if spec.acc {
            result = result.wrapping_add(t.srcs[2].value());
        }
        t.value = result;
        t.dst.set(&mut m.regs, tok, result);
        if t.dec.sets_flags {
            m.res.cpsr.set_nz(result);
        }
    }
    // Early-terminating multiplier: latency depends on the magnitude of the
    // multiplier operand (SA-110 1-3 cycles; +1 for long forms).
    let lat = if b < 0x100 {
        1
    } else if b < 0x1_0000 {
        2
    } else {
        3
    } + u32::from(spec.long);
    fx.set_token_delay(lat);
}

/// Execute stage of the System class: SWI dispatch or undefined-instruction
/// fault.
///
/// A program exit does **not** halt the engine abruptly: it records the
/// exit code, squashes the (younger) instructions in `flush`, and lets the
/// fetch guard starve the front end, so older in-flight instructions drain
/// and commit — the architectural state converges to the gold model's.
/// Faults halt immediately for diagnosis.
pub fn exec_system(
    m: &mut Machine<ArmRes>,
    t: &mut ArmTok,
    fx: &mut Fx<ArmTok>,
    flush: &[PlaceId],
) {
    if t.dec.undefined {
        m.res.fault = Some(format!("undefined instruction at pc {:#x}: {}", t.pc, t.dec.instr));
        fx.halt();
        return;
    }
    if !cond_passes(m, t) {
        annul(m, t, fx);
        return;
    }
    // Cycle-accurate clock: the engine cycle mirrored into the machine.
    let clock = m.cycle;
    let mut env = SysEnv {
        out: &mut m.res.output,
        input: &mut m.res.input,
        clock,
        brk: &mut m.res.brk,
        unknown_swis: &mut m.res.unknown_swis,
    };
    match dispatch(t.dec.swi_imm, t.srcs[0].value(), &mut env) {
        SysAction::Exit(code) => {
            m.res.exit = Some(code);
            for &p in flush {
                fx.flush(p);
            }
        }
        SysAction::SetR0(v) => {
            // Value-returning SWIs (GETC/CLOCK/BRK) carry a decode-time
            // destination (r0); publish at execute like a data-processing
            // result — the generic writeback commits it.
            t.value = v;
            let tok = fx.token();
            t.dst.set(&mut m.regs, tok, v);
        }
        SysAction::Continue => {}
    }
}

/// Final (writeback) stage shared by all classes: publish load results,
/// commit destinations, count the instruction, release serialization.
pub fn exec_writeback(m: &mut Machine<ArmRes>, t: &mut ArmTok, fx: &mut Fx<ArmTok>) {
    if t.uop == 0 {
        m.res.instr_done += 1;
    }
    if t.annulled {
        return;
    }
    let tok = fx.token();
    let is_load = t.dec.mem.is_some_and(|s| s.load);
    if is_load && !t.writes_pc {
        // Loads publish at writeback: the value is architecturally (and
        // timing-wise) available only once the memory residency elapsed.
        t.dst.set(&mut m.regs, tok, t.value);
    }
    // Base writeback first, destination last, so a load into the base
    // register keeps the loaded value (ARM "load wins" rule).
    t.dst2.writeback(&mut m.regs, tok);
    t.dst.writeback(&mut m.regs, tok);
    clear_serialize(m, t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_reg_walks_set_bits() {
        let list = 0b1000_0000_0010_0110; // r1, r2, r5, r15
        assert_eq!(nth_reg(list, 0), Reg::new(1));
        assert_eq!(nth_reg(list, 1), Reg::new(2));
        assert_eq!(nth_reg(list, 2), Reg::new(5));
        assert_eq!(nth_reg(list, 3), Reg::new(15));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nth_reg_panics_past_the_end() {
        let _ = nth_reg(0b1, 1);
    }
}
