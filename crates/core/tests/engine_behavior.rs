//! Behavioral tests of the RCPN engine on small hand-built models.
//!
//! These tests pin down the cycle-level semantics the processor models rely
//! on: lockstep pipeline advance, structural hazards via stage capacity,
//! data hazards via the register model, forwarding through two-list places,
//! reservation tokens, flushes, micro-op emission, priorities, and the
//! equivalence of the optimized and unoptimized engine configurations.

use rcpn::engine::TraceEvent;
use rcpn::prelude::*;

/// Minimal instruction payload: a class plus three operands.
#[derive(Debug, Clone)]
struct Tok {
    class: OpClassId,
    dst: Operand,
    src: Operand,
    imm: u32,
}

impl Tok {
    fn plain(class: OpClassId) -> Self {
        Tok { class, dst: Operand::Absent, src: Operand::Absent, imm: 0 }
    }
}

impl InstrData for Tok {
    fn op_class(&self) -> OpClassId {
        self.class
    }
}

/// Program feed: the machine resource is a list of payloads to fetch.
#[derive(Debug, Default)]
struct Feed {
    program: std::cell::RefCell<std::collections::VecDeque<Tok>>,
}

fn feed_source(b: &mut ModelBuilder<Tok, Feed>, dest: PlaceId) {
    b.source("fetch")
        .to(dest)
        .produce(|m: &mut Machine<Feed>, _fx| m.res.program.borrow_mut().pop_front())
        .done();
}

/// Three-place linear pipeline: fetch -> p1 -> p2 -> end.
fn linear_model() -> (Model<Tok, Feed>, PlaceId, PlaceId, OpClassId) {
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let l1 = b.stage("L1", 1);
    let l2 = b.stage("L2", 1);
    let p1 = b.place("p1", l1);
    let p2 = b.place("p2", l2);
    let end = b.end_place();
    let (c, _) = b.class_net("Alu");
    b.transition(c, "t12").from(p1).to(p2).done();
    b.transition(c, "t2e").from(p2).to(end).done();
    feed_source(&mut b, p1);
    (b.build().unwrap(), p1, p2, c)
}

fn run_linear(n_instr: usize, cycles: u64) -> Engine<Tok, Feed> {
    let (model, _, _, c) = linear_model();
    let feed = Feed::default();
    feed.program.borrow_mut().extend((0..n_instr).map(|_| Tok::plain(c)));
    let mut e = Engine::new(model, Machine::new(RegisterFile::new(), feed));
    e.run(cycles);
    e
}

#[test]
fn pipeline_fills_and_streams_one_per_cycle() {
    let e = run_linear(50, 60);
    // Fill latency 2 (fetch at end of cycle 0; p1 fires cycle 1; retire
    // cycle 2), then one retirement per cycle.
    assert_eq!(e.stats().retired, 50);
    assert_eq!(e.stats().generated, 50);
    assert_eq!(e.stats().stalls, 0, "no hazards in an empty-guard pipeline");
}

#[test]
fn first_retirement_happens_at_cycle_two() {
    let (model, _, _, c) = linear_model();
    let feed = Feed::default();
    feed.program.borrow_mut().push_back(Tok::plain(c));
    let mut e = Engine::with_config(
        model,
        Machine::new(RegisterFile::new(), feed),
        EngineConfig { trace: true, ..Default::default() },
    );
    e.run(10);
    let trace = e.take_trace();
    let retire = trace
        .iter()
        .find_map(|ev| match ev {
            TraceEvent::Retired { cycle, .. } => Some(*cycle),
            _ => None,
        })
        .expect("instruction retires");
    assert_eq!(retire, 2);
}

#[test]
fn structural_hazard_stalls_upstream() {
    // p2's consumer is guarded shut for the first 5 cycles: the pipeline
    // backs up, fetch stops, and nothing is lost.
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let l1 = b.stage("L1", 1);
    let l2 = b.stage("L2", 1);
    let p1 = b.place("p1", l1);
    let p2 = b.place("p2", l2);
    let end = b.end_place();
    let (c, _) = b.class_net("Alu");
    b.transition(c, "t12").from(p1).to(p2).done();
    b.transition(c, "t2e").from(p2).to(end).guard(|m, _| m.cycle >= 5).done();
    feed_source(&mut b, p1);
    let model = b.build().unwrap();

    let feed = Feed::default();
    feed.program.borrow_mut().extend((0..10).map(|_| Tok::plain(c)));
    let mut e = Engine::new(model, Machine::new(RegisterFile::new(), feed));
    e.run(30);
    assert_eq!(e.stats().retired, 10);
    assert!(e.stats().capacity_blocks > 0, "p1 tokens must have been capacity-blocked");
    assert!(e.stats().guard_fails > 0);
    // Retirements can start at cycle 5 at the earliest; 10 instructions
    // stream out in 10 consecutive cycles, so all are done by cycle 15.
    assert!(e.cycle() >= 15);
}

#[test]
fn stage_capacity_is_shared_between_places() {
    // Two places on one stage with capacity 1: a token parked in place A
    // blocks entry into place B of the same stage.
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let l1 = b.stage("L1", 1);
    let shared = b.stage("SH", 1);
    let p1 = b.place("p1", l1);
    let pa = b.place("pa", shared);
    let pb = b.place("pb", shared);
    let end = b.end_place();
    let (ca, _) = b.class_net("A");
    let (cb, _) = b.class_net("B");
    // Class A parks in pa forever (no exit transition).
    b.transition(ca, "ta").from(p1).to(pa).done();
    // Class B tries to enter pb.
    b.transition(cb, "tb").from(p1).to(pb).done();
    b.transition(cb, "tb2").from(pb).to(end).done();
    feed_source(&mut b, p1);
    let model = b.build().unwrap();

    let feed = Feed::default();
    feed.program.borrow_mut().push_back(Tok::plain(ca));
    feed.program.borrow_mut().push_back(Tok::plain(cb));
    let mut e = Engine::new(model, Machine::new(RegisterFile::new(), feed));
    e.run(20);
    assert_eq!(e.stats().retired, 0, "class B never enters the shared stage");
    assert_eq!(e.tokens_in(pa), 1);
    assert_eq!(e.tokens_in(pb), 0);
    assert!(e.stats().capacity_blocks > 0);
}

#[test]
fn raw_dependency_stalls_and_forwarding_shortens_it() {
    // Rebuild the hazard model inline with a correct writeback action.
    fn build(with_forwarding: bool, wb_delay: u32) -> (Model<Tok, Feed>, OpClassId) {
        let mut b = ModelBuilder::<Tok, Feed>::new();
        let l1 = b.stage("L1", 1);
        let l2 = b.stage("L2", 1);
        let l3 = b.stage("L3", 4);
        let p1 = b.place("D", l1);
        let p2 = b.place("E", l2);
        let p3 = b.place_with_delay("WB", l3, wb_delay);
        let end = b.end_place();
        let (c, _) = b.class_net("Alu");

        b.transition(c, "d_read")
            .from(p1)
            .to(p2)
            .priority(0)
            .guard(|m, t: &Tok| t.src.can_read(&m.regs) && t.dst.can_write(&m.regs))
            .action(move |m, t, fx| {
                t.src.read(&m.regs);
                let tok = fx.token();
                t.dst.reserve_write(&mut m.regs, tok, PlaceId::from_index(0));
            })
            .done();
        if with_forwarding {
            b.transition(c, "d_fwd")
                .from(p1)
                .to(p2)
                .priority(1)
                .reads_state(p3)
                .guard(move |m, t: &Tok| t.src.can_read_in(&m.regs, p3) && t.dst.can_write(&m.regs))
                .action(move |m, t, fx| {
                    t.src.read_fwd(&m.regs);
                    let tok = fx.token();
                    t.dst.reserve_write(&mut m.regs, tok, PlaceId::from_index(0));
                })
                .done();
        }
        b.transition(c, "e_exec")
            .from(p2)
            .to(p3)
            .action(|m, t, fx| {
                let v = t.src.value().wrapping_add(t.imm);
                let tok = fx.token();
                t.dst.set(&mut m.regs, tok, v);
            })
            .done();
        b.transition(c, "we_wb")
            .from(p3)
            .to(end)
            .action(|m, t, fx| {
                let tok = fx.token();
                t.dst.writeback(&mut m.regs, tok);
            })
            .done();
        feed_source(&mut b, p1);
        (b.build().unwrap(), c)
    }

    fn run(with_forwarding: bool) -> (u64, u32) {
        let (model, c) = build(with_forwarding, 3);
        assert!(
            model.analysis().is_two_list(model.find_place("WB").unwrap()) == with_forwarding,
            "WB is two-list exactly when the feedback arc exists"
        );
        let mut rf = RegisterFile::new();
        let regs = rf.add_bank("r", 4);
        let feed = Feed::default();
        // r1 = r0 + 5 ; r2 = r1 + 1  (RAW on r1)
        feed.program.borrow_mut().push_back(Tok {
            class: c,
            dst: Operand::reg(regs[1]),
            src: Operand::reg(regs[0]),
            imm: 5,
        });
        feed.program.borrow_mut().push_back(Tok {
            class: c,
            dst: Operand::reg(regs[2]),
            src: Operand::reg(regs[1]),
            imm: 1,
        });
        let mut e = Engine::new(model, Machine::new(rf, feed));
        let outcome = e.run(60);
        assert_eq!(outcome, RunOutcome::CycleLimit);
        assert_eq!(e.stats().retired, 2, "both instructions retire");
        // Find the cycle where everything is done: use stats.
        let r2 = e.machine().regs.find("r2").map(|r| e.machine().regs.value_of(r)).unwrap();
        (e.stats().stalls, r2)
    }

    let (stalls_plain, r2_plain) = run(false);
    let (stalls_fwd, r2_fwd) = run(true);
    assert_eq!(r2_plain, 6, "architectural result without forwarding");
    assert_eq!(r2_fwd, 6, "forwarding must not change the architectural result");
    assert!(
        stalls_fwd < stalls_plain,
        "forwarding shortens the RAW stall: {stalls_fwd} vs {stalls_plain}"
    );
}

#[test]
fn forwarding_is_not_visible_in_the_same_cycle() {
    // The two-list WB place must delay forwarding visibility by one cycle:
    // the consumer cannot pick up a value computed in the very same cycle.
    // With wb_delay large, instruction 2's d_fwd can fire no earlier than
    // one cycle after instruction 1 entered WB.
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let l1 = b.stage("L1", 2);
    let l2 = b.stage("L2", 2);
    let l3 = b.stage("L3", 2);
    let p1 = b.place("D", l1);
    let p2 = b.place("E", l2);
    let p3 = b.place_with_delay("WB", l3, 10);
    let end = b.end_place();
    let (c, _) = b.class_net("Alu");
    // Atomics, not Rc<Cell>: model closures are Send + Sync so compiled
    // models can be shared across batch workers.
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let fired_fwd_at = Arc::new(AtomicU64::new(u64::MAX));
    let entered_wb_at = Arc::new(AtomicU64::new(u64::MAX));

    b.transition(c, "d_read")
        .from(p1)
        .to(p2)
        .priority(0)
        .guard(|m, t: &Tok| t.src.can_read(&m.regs) && t.dst.can_write(&m.regs))
        .action(|m, t, fx| {
            t.src.read(&m.regs);
            let tok = fx.token();
            t.dst.reserve_write(&mut m.regs, tok, PlaceId::from_index(0));
        })
        .done();
    {
        let fired_fwd_at = fired_fwd_at.clone();
        b.transition(c, "d_fwd")
            .from(p1)
            .to(p2)
            .priority(1)
            .reads_state(p3)
            .guard(move |m, t: &Tok| t.src.can_read_in(&m.regs, p3) && t.dst.can_write(&m.regs))
            .action(move |m, t, fx| {
                t.src.read_fwd(&m.regs);
                let tok = fx.token();
                t.dst.reserve_write(&mut m.regs, tok, PlaceId::from_index(0));
                fired_fwd_at.store(m.cycle, Ordering::Relaxed);
            })
            .done();
    }
    {
        let entered_wb_at = entered_wb_at.clone();
        b.transition(c, "e_exec")
            .from(p2)
            .to(p3)
            .action(move |m, t, fx| {
                let v = t.src.value().wrapping_add(t.imm);
                let tok = fx.token();
                t.dst.set(&mut m.regs, tok, v);
                // first producer only
                let _ = entered_wb_at.compare_exchange(
                    u64::MAX,
                    m.cycle,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            })
            .done();
    }
    b.transition(c, "we_wb")
        .from(p3)
        .to(end)
        .action(|m, t, fx| {
            let tok = fx.token();
            t.dst.writeback(&mut m.regs, tok);
        })
        .done();
    feed_source(&mut b, p1);
    let model = b.build().unwrap();

    let mut rf = RegisterFile::new();
    let regs = rf.add_bank("r", 4);
    let feed = Feed::default();
    feed.program.borrow_mut().push_back(Tok {
        class: c,
        dst: Operand::reg(regs[1]),
        src: Operand::reg(regs[0]),
        imm: 5,
    });
    feed.program.borrow_mut().push_back(Tok {
        class: c,
        dst: Operand::reg(regs[2]),
        src: Operand::reg(regs[1]),
        imm: 1,
    });
    let mut e = Engine::new(model, Machine::new(rf, feed));
    e.run(40);
    let fired = fired_fwd_at.load(Ordering::Relaxed);
    let entered = entered_wb_at.load(Ordering::Relaxed);
    assert_ne!(fired, u64::MAX, "forwarding path must have been used");
    assert!(
        fired > entered,
        "forwarding fired at {fired} but the value entered WB at {entered} — same-cycle \
         forwarding through a two-list place is illegal",
    );
}

#[test]
fn reservation_token_stalls_fetch_for_one_cycle() {
    // Branch sub-net: issuing a branch deposits a reservation token in p1,
    // disabling fetch for exactly one cycle (paper, Section 3.2).
    // Models are not Clone (they hold closures), so build per run.
    fn build() -> Model<Tok, Feed> {
        let mut b = ModelBuilder::<Tok, Feed>::new();
        let l1 = b.stage("L1", 1);
        let l2 = b.stage("L2", 1);
        let p1 = b.place("p1", l1);
        let p2 = b.place("p2", l2);
        let end = b.end_place();
        let (alu, _) = b.class_net("Alu");
        let (br, _) = b.class_net("Branch");
        b.transition(alu, "a12").from(p1).to(p2).done();
        b.transition(alu, "a2e").from(p2).to(end).done();
        b.transition(br, "b12").from(p1).to(p2).done();
        b.transition(br, "b2e").from(p2).to(end).reserve(p1, 1).done();
        feed_source(&mut b, p1);
        b.build().unwrap()
    }
    let completion_cycles = |with_branch: bool| -> (u64, u64) {
        let model = build();
        let alu = OpClassId::from_index(0);
        let br = OpClassId::from_index(1);
        let feed = Feed::default();
        for i in 0..8 {
            let class = if with_branch && i == 3 { br } else { alu };
            feed.program.borrow_mut().push_back(Tok::plain(class));
        }
        let mut e = Engine::new(model, Machine::new(RegisterFile::new(), feed));
        let mut cycles = 0u64;
        while e.stats().retired < 8 && cycles < 100 {
            e.step();
            cycles += 1;
        }
        (cycles, e.stats().reservations)
    };
    let (plain, res_plain) = completion_cycles(false);
    let (with_branch, res_branch) = completion_cycles(true);
    assert_eq!(res_plain, 0);
    assert_eq!(res_branch, 1);
    assert_eq!(
        with_branch,
        plain + 1,
        "one branch inserts exactly one fetch bubble (reservation for 1 cycle)"
    );
}

#[test]
fn flush_squashes_younger_instructions_and_releases_reservations() {
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let l1 = b.stage("L1", 1);
    let l2 = b.stage("L2", 1);
    let p1 = b.place("p1", l1);
    let p2 = b.place("p2", l2);
    let end = b.end_place();
    let (alu, _) = b.class_net("Alu");
    let (br, _) = b.class_net("Branch");
    b.transition(alu, "a12")
        .from(p1)
        .to(p2)
        .guard(|m, t: &Tok| t.dst.can_write(&m.regs))
        .action(|m, t, fx| {
            let tok = fx.token();
            t.dst.reserve_write(&mut m.regs, tok, PlaceId::from_index(0));
        })
        .done();
    b.transition(alu, "a2e")
        .from(p2)
        .to(end)
        .action(|m, t, fx| {
            let tok = fx.token();
            t.dst.set(&mut m.regs, tok, 1);
            t.dst.writeback(&mut m.regs, tok);
        })
        .done();
    b.transition(br, "b12").from(p1).to(p2).done();
    // Taken branch: flush the fetch latch.
    let p1c = p1;
    b.transition(br, "b2e").from(p2).to(end).action(move |_m, _t, fx| fx.flush(p1c)).done();
    feed_source(&mut b, p1);
    let model = b.build().unwrap();

    let mut rf = RegisterFile::new();
    let regs = rf.add_bank("r", 4);
    let feed = Feed::default();
    // branch; alu (will be squashed while sitting in p1 with a reservation
    // it has not made yet — it reserves in a12, so squash happens in p1
    // before reservation; to test release we also check reserved_cells).
    feed.program.borrow_mut().push_back(Tok::plain(br));
    feed.program.borrow_mut().push_back(Tok {
        class: alu,
        dst: Operand::reg(regs[1]),
        src: Operand::Absent,
        imm: 0,
    });
    let mut e = Engine::new(model, Machine::new(rf, feed));
    e.run(20);
    assert_eq!(e.stats().flushed, 1, "the younger ALU instruction was squashed");
    assert_eq!(e.stats().retired, 1, "only the branch retires");
    assert_eq!(e.machine().regs.reserved_cells(), 0, "no reservation leaks");
    assert_eq!(e.live_tokens(), 0);
}

#[test]
fn emitted_micro_ops_flow_through_their_subnet() {
    // A LoadStoreMultiple-style class: the parent emits two micro-ops that
    // flow through the Load sub-net while the parent retires.
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let l1 = b.stage("L1", 4);
    let p1 = b.place("p1", l1);
    let end = b.end_place();
    let (ldm, _) = b.class_net("LdM");
    let (ld, _) = b.class_net("Ld");
    let p1c = p1;
    b.transition(ldm, "explode")
        .from(p1)
        .to(end)
        .action(move |_m, t, fx| {
            for _ in 0..t.imm {
                fx.emit(Tok::plain(OpClassId::from_index(1)), p1c, 1);
            }
        })
        .done();
    b.transition(ld, "ld").from(p1).to(end).done();
    feed_source(&mut b, p1);
    let model = b.build().unwrap();

    let feed = Feed::default();
    feed.program.borrow_mut().push_back(Tok { imm: 3, ..Tok::plain(ldm) });
    let mut e = Engine::new(model, Machine::new(RegisterFile::new(), feed));
    e.run(20);
    assert_eq!(e.stats().emitted, 3);
    assert_eq!(e.stats().retired, 4, "parent + three micro-ops");
}

#[test]
fn priorities_select_alternatives_deterministically() {
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let l1 = b.stage("L1", 1);
    let p1 = b.place("p1", l1);
    let end_a = b.final_place("end_a");
    let end_b = b.final_place("end_b");
    let (c, _) = b.class_net("Alu");
    // Both always enabled; priority 0 must win every time.
    let t_hi = b.transition(c, "hi").from(p1).to(end_a).priority(0).done();
    let t_lo = b.transition(c, "lo").from(p1).to(end_b).priority(1).done();
    feed_source(&mut b, p1);
    let model = b.build().unwrap();

    let feed = Feed::default();
    feed.program.borrow_mut().extend((0..10).map(|_| Tok::plain(c)));
    let mut e = Engine::new(model, Machine::new(RegisterFile::new(), feed));
    e.run(20);
    assert_eq!(e.stats().fires_of(t_hi), 10);
    assert_eq!(e.stats().fires_of(t_lo), 0);
}

#[test]
fn token_delay_overrides_place_delay() {
    // Memory-style variable latency: the transition assigns t.delay (paper
    // Fig. 5, transition M).
    fn build(delay: u32) -> (Model<Tok, Feed>, OpClassId) {
        let mut b = ModelBuilder::<Tok, Feed>::new();
        let l1 = b.stage("L1", 1);
        let l2 = b.stage("L2", 1);
        let p1 = b.place("p1", l1);
        let p2 = b.place("p2", l2);
        let end = b.end_place();
        let (c, _) = b.class_net("Mem");
        b.transition(c, "m")
            .from(p1)
            .to(p2)
            .action(move |_m, _t, fx| fx.set_token_delay(delay))
            .done();
        b.transition(c, "wb").from(p2).to(end).done();
        feed_source(&mut b, p1);
        (b.build().unwrap(), c)
    }
    let retire_cycle = |delay: u32| -> u64 {
        let (model, c) = build(delay);
        let feed = Feed::default();
        feed.program.borrow_mut().push_back(Tok::plain(c));
        let mut e = Engine::with_config(
            model,
            Machine::new(RegisterFile::new(), feed),
            EngineConfig { trace: true, ..Default::default() },
        );
        e.run(30);
        e.take_trace()
            .iter()
            .find_map(|ev| match ev {
                TraceEvent::Retired { cycle, .. } => Some(*cycle),
                _ => None,
            })
            .expect("retired")
    };
    let fast = retire_cycle(1);
    let slow = retire_cycle(4);
    assert_eq!(slow - fast, 3, "extra memory latency delays retirement 1:1");
}

#[test]
fn extra_input_join_consumes_side_tokens() {
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let l1 = b.stage("L1", 2);
    let side_stage = b.stage("SIDE", 4);
    let p1 = b.place("p1", l1);
    let side = b.place("side", side_stage);
    let end = b.end_place();
    let (c, _) = b.class_net("Alu");
    let (parked, _) = b.class_net("Parked");
    let _ = parked;
    b.transition(c, "t").from(p1).to(end).extra_input(side).done();
    feed_source(&mut b, p1);
    let model = b.build().unwrap();

    let feed = Feed::default();
    feed.program.borrow_mut().push_back(Tok::plain(c));
    feed.program.borrow_mut().push_back(Tok::plain(c));
    let mut e = Engine::new(model, Machine::new(RegisterFile::new(), feed));
    // One resource token in the side place: only one instruction passes.
    e.inject(Tok::plain(OpClassId::from_index(1)), side);
    e.run(20);
    assert_eq!(e.stats().retired, 1, "join: one side token admits one instruction");
    assert_eq!(e.tokens_in(side), 0);
}

#[test]
fn halt_stops_the_run() {
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let l1 = b.stage("L1", 1);
    let p1 = b.place("p1", l1);
    let end = b.end_place();
    let (c, _) = b.class_net("Alu");
    b.transition(c, "t")
        .from(p1)
        .to(end)
        .action(|_m, t, fx| {
            if t.imm == 99 {
                fx.halt();
            }
        })
        .done();
    feed_source(&mut b, p1);
    let model = b.build().unwrap();

    let feed = Feed::default();
    feed.program.borrow_mut().push_back(Tok::plain(c));
    feed.program.borrow_mut().push_back(Tok { imm: 99, ..Tok::plain(c) });
    feed.program.borrow_mut().push_back(Tok::plain(c));
    let mut e = Engine::new(model, Machine::new(RegisterFile::new(), feed));
    let outcome = e.run(100);
    assert_eq!(outcome, RunOutcome::Halted);
    assert_eq!(e.stats().retired, 2, "the instruction after the halt never runs");
    assert!(e.cycle() < 100);
}

#[test]
fn all_engine_configs_agree_on_timing_for_structural_models() {
    fn build() -> Model<Tok, Feed> {
        let mut b = ModelBuilder::<Tok, Feed>::new();
        let l1 = b.stage("L1", 1);
        let l2 = b.stage("L2", 2);
        let l3 = b.stage("L3", 1);
        let p1 = b.place("p1", l1);
        let p2 = b.place("p2", l2);
        let p3 = b.place("p3", l3);
        let end = b.end_place();
        let (short, _) = b.class_net("Short");
        let (long, _) = b.class_net("Long");
        b.transition(short, "s1e").from(p1).to(end).done();
        b.transition(long, "l12").from(p1).to(p2).done();
        b.transition(long, "l23").from(p2).to(p3).done();
        b.transition(long, "l3e").from(p3).to(end).done();
        feed_source(&mut b, p1);
        b.build().unwrap()
    }
    fn program(feed: &Feed) {
        let short = OpClassId::from_index(0);
        let long = OpClassId::from_index(1);
        for i in 0..40 {
            let class = if i % 3 == 0 { short } else { long };
            feed.program.borrow_mut().push_back(Tok::plain(class));
        }
    }
    let mut results = Vec::new();
    for cfg in [
        EngineConfig::default(),
        EngineConfig { table_mode: TableMode::PerPlace, ..Default::default() },
        EngineConfig { table_mode: TableMode::FullScan, ..Default::default() },
        EngineConfig { two_list_everywhere: true, ..Default::default() },
    ] {
        let feed = Feed::default();
        program(&feed);
        let mut e = Engine::with_config(build(), Machine::new(RegisterFile::new(), feed), cfg);
        let mut cycles = 0u64;
        while e.stats().retired < 40 && cycles < 500 {
            e.step();
            cycles += 1;
        }
        results.push((cycles, e.stats().retired));
    }
    assert!(
        results.windows(2).all(|w| w[0] == w[1]),
        "all configurations must produce identical timing: {results:?}"
    );
}

#[test]
fn occupancy_stats_accumulate() {
    let (model, p1, _, c) = linear_model();
    let feed = Feed::default();
    feed.program.borrow_mut().extend((0..10).map(|_| Tok::plain(c)));
    let mut e = Engine::with_config(
        model,
        Machine::new(RegisterFile::new(), feed),
        EngineConfig { collect_occupancy: true, ..Default::default() },
    );
    e.run(20);
    assert!(e.stats().mean_occupancy(p1) > 0.0);
}

#[test]
fn cpn_conversion_matches_rcpn_timing_on_fig2_pipeline() {
    // Figure 2 pipeline: P1 (stage L1) feeds either U4 (short path, to end)
    // or U2->U3 via P2 (stage L2). Structural-only model, convertible.
    fn build() -> Model<Tok, Feed> {
        let mut b = ModelBuilder::<Tok, Feed>::new();
        let l1 = b.stage("L1", 1);
        let l2 = b.stage("L2", 1);
        let p1 = b.place("P1", l1);
        let p2 = b.place("P2", l2);
        let end = b.end_place();
        let (short, _) = b.class_net("Short");
        let (long, _) = b.class_net("Long");
        b.transition(short, "U4").from(p1).to(end).done();
        b.transition(long, "U2").from(p1).to(p2).done();
        b.transition(long, "U3").from(p2).to(end).done();
        feed_source(&mut b, p1);
        b.build().unwrap()
    }

    let short = OpClassId::from_index(0);
    let long = OpClassId::from_index(1);
    let program: Vec<OpClassId> = (0..30).map(|i| if i % 4 == 1 { short } else { long }).collect();

    // RCPN run with trace.
    let feed = Feed::default();
    for &c in &program {
        feed.program.borrow_mut().push_back(Tok::plain(c));
    }
    let mut e = Engine::with_config(
        build(),
        Machine::new(RegisterFile::new(), feed),
        EngineConfig { trace: true, ..Default::default() },
    );
    e.run(200);
    assert_eq!(e.stats().retired, 30);
    let mut rcpn_retires: Vec<u64> = e
        .take_trace()
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Retired { cycle, .. } => Some(*cycle),
            _ => None,
        })
        .collect();
    rcpn_retires.sort_unstable();

    // CPN run.
    let model = build();
    let mut cpn = rcpn::cpn::convert(&model, &program).expect("structural model converts");
    cpn.run(200);
    assert_eq!(cpn.stats().retired, 30, "CPN retires the same instruction count");
    let mut cpn_retires = cpn.retire_log().to_vec();
    cpn_retires.sort_unstable();
    assert_eq!(rcpn_retires, cpn_retires, "cycle-accurate agreement RCPN vs CPN");

    // The CPN encoding is strictly larger — the paper's Figure 1/2 claim.
    let cmp = rcpn::cpn::compare_sizes(&model).unwrap();
    assert!(cmp.cpn_places > cmp.rcpn_places);
    assert!(cmp.cpn_arcs > cmp.rcpn_arcs);

    // And the CPN interpreter does far more searching than firing.
    assert!(cpn.stats().scans > cpn.stats().fires * 2);
}

#[test]
fn leaked_reservations_are_counted_and_released() {
    // A model that reserves but never writes back: the engine must clean up
    // at retire time and count the leak.
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let l1 = b.stage("L1", 1);
    let p1 = b.place("p1", l1);
    let end = b.end_place();
    let (c, _) = b.class_net("Alu");
    b.transition(c, "t")
        .from(p1)
        .to(end)
        .action(|m, t, fx| {
            let tok = fx.token();
            t.dst.reserve_write(&mut m.regs, tok, PlaceId::from_index(0));
        })
        .done();
    feed_source(&mut b, p1);
    let model = b.build().unwrap();

    let mut rf = RegisterFile::new();
    let regs = rf.add_bank("r", 2);
    let feed = Feed::default();
    feed.program.borrow_mut().push_back(Tok {
        class: c,
        dst: Operand::reg(regs[1]),
        src: Operand::Absent,
        imm: 0,
    });
    let mut e = Engine::new(model, Machine::new(rf, feed));
    e.run(10);
    assert_eq!(e.stats().leaked_reservations, 1);
    assert_eq!(e.machine().regs.reserved_cells(), 0);
}

/// Every engine configuration that must simulate a model identically for
/// one `two_list_everywhere` setting: superblocks on/off × all table
/// modes × both schedulers, with tracing on.
fn config_grid(two_list_everywhere: bool) -> Vec<EngineConfig> {
    let mut grid = Vec::new();
    for superblocks in [true, false] {
        for table_mode in [TableMode::PerPlaceClass, TableMode::PerPlace, TableMode::FullScan] {
            for scheduler in [SchedulerMode::ActivityDriven, SchedulerMode::Exhaustive] {
                grid.push(EngineConfig {
                    table_mode,
                    two_list_everywhere,
                    scheduler,
                    superblocks,
                    trace: true,
                    ..Default::default()
                });
            }
        }
    }
    grid
}

/// Asserts that every run in `runs` (one per [`config_grid`] entry)
/// produced the same trace and `Stats` as the first.
fn assert_grid_agrees(runs: &[(EngineConfig, Vec<TraceEvent>, Stats)]) {
    let (cfg0, trace0, stats0) = &runs[0];
    for (cfg, trace, stats) in &runs[1..] {
        assert_eq!(trace, trace0, "trace differs: {cfg:?} vs {cfg0:?}");
        assert_eq!(stats, stats0, "Stats differ: {cfg:?} vs {cfg0:?}");
    }
}

#[test]
fn an_action_that_reclasses_its_token_routes_it_by_the_new_class() {
    // Decode re-classes: a `Raw` token leaves p1 as `Alu` or `Mem` by the
    // parity of its immediate, and the class it carries into p2 picks its
    // way out: Alu retires from p2, Mem spends two extra cycles reaching
    // p3 first. A place list that kept the class the token had before
    // the action would look up `Raw` in p2 and stall forever.
    fn build() -> (Model<Tok, Feed>, TransitionId, TransitionId) {
        let mut b = ModelBuilder::<Tok, Feed>::new();
        let l1 = b.stage("L1", 1);
        let l2 = b.stage("L2", 1);
        let l3 = b.stage("L3", 1);
        let p1 = b.place("p1", l1);
        let p2 = b.place("p2", l2);
        let p3 = b.place("p3", l3);
        let end = b.end_place();
        let (raw, _) = b.class_net("Raw");
        let (alu, _) = b.class_net("Alu");
        let (mem, _) = b.class_net("Mem");
        b.transition(raw, "decode")
            .from(p1)
            .to(p2)
            .action(move |_m, t: &mut Tok, _fx| t.class = if t.imm % 2 == 0 { alu } else { mem })
            .done();
        let alu_out = b.transition(alu, "alu").from(p2).to(end).done();
        let mem_out = b.transition(mem, "mem").from(p2).to(p3).delay(2).done();
        b.transition(mem, "mem_wb").from(p3).to(end).done();
        feed_source(&mut b, p1);
        (b.build().unwrap(), alu_out, mem_out)
    }
    for two_list_everywhere in [false, true] {
        let mut runs = Vec::new();
        for cfg in config_grid(two_list_everywhere) {
            let (model, alu_out, mem_out) = build();
            let feed = Feed::default();
            let raw = OpClassId::from_index(0);
            feed.program.borrow_mut().extend((0..9).map(|imm| Tok { imm, ..Tok::plain(raw) }));
            let mut e =
                Engine::with_config(model, Machine::new(RegisterFile::new(), feed), cfg.clone());
            while e.stats().retired < 9 && e.cycle() < 200 {
                e.step();
            }
            assert_eq!(e.stats().retired, 9, "{cfg:?}: every instruction retires");
            assert_eq!(e.stats().fires_of(alu_out), 5, "{cfg:?}: even immediates run as Alu");
            assert_eq!(e.stats().fires_of(mem_out), 4, "{cfg:?}: odd immediates run as Mem");
            runs.push((cfg, e.take_trace(), e.stats().clone()));
        }
        assert_grid_agrees(&runs);
    }
}

#[test]
fn an_over_full_latch_fires_its_residents_in_insertion_order() {
    // p1 has capacity 1, but insertions that skip the capacity check can
    // pile up behind a fetched instruction: a branch leaving p2 reserves
    // p1 for two cycles and emits two micro-ops into it. Removing the
    // instruction must keep the rest in insertion order, so every firing
    // out of p1 moves an older token than the one before it.
    fn build() -> (Model<Tok, Feed>, PlaceId, [TransitionId; 2]) {
        let mut b = ModelBuilder::<Tok, Feed>::new();
        let l1 = b.stage("L1", 1);
        let l2 = b.stage("L2", 1);
        let p1 = b.place("p1", l1);
        let p2 = b.place("p2", l2);
        let end = b.end_place();
        let (alu, _) = b.class_net("Alu");
        let (br, _) = b.class_net("Branch");
        let a12 = b.transition(alu, "a12").from(p1).to(p2).done();
        b.transition(alu, "a2e").from(p2).to(end).done();
        let b12 = b.transition(br, "b12").from(p1).to(p2).done();
        b.transition(br, "b2e")
            .from(p2)
            .to(end)
            .reserve(p1, 2)
            .action(move |_m, _t, fx| {
                fx.emit(Tok::plain(alu), p1, 1);
                fx.emit(Tok::plain(alu), p1, 1);
            })
            .done();
        feed_source(&mut b, p1);
        (b.build().unwrap(), p1, [a12, b12])
    }
    for two_list_everywhere in [false, true] {
        let mut runs = Vec::new();
        for cfg in config_grid(two_list_everywhere) {
            let (model, p1, out_of_p1) = build();
            let feed = Feed::default();
            let (alu, br) = (OpClassId::from_index(0), OpClassId::from_index(1));
            feed.program.borrow_mut().push_back(Tok::plain(br));
            feed.program.borrow_mut().extend((0..3).map(|_| Tok::plain(alu)));
            let mut e =
                Engine::with_config(model, Machine::new(RegisterFile::new(), feed), cfg.clone());
            let mut most_in_p1 = 0;
            while e.stats().retired < 6 && e.cycle() < 200 {
                e.step();
                most_in_p1 = most_in_p1.max(e.tokens_in(p1));
            }
            assert_eq!(e.stats().retired, 6, "{cfg:?}: branch, 3 ALU ops and 2 micro-ops");
            assert!(most_in_p1 >= 3, "{cfg:?}: p1 over-fills (peak {most_in_p1})");
            let trace = e.take_trace();
            let seqs: Vec<u64> = trace
                .iter()
                .filter_map(|ev| match *ev {
                    TraceEvent::Fired { transition, seq, .. }
                        if out_of_p1.contains(&transition) =>
                    {
                        Some(seq)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(seqs.len(), 6, "{cfg:?}: every token leaves p1 once");
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{cfg:?}: out of order: {seqs:?}");
            runs.push((cfg, trace, e.stats().clone()));
        }
        assert_grid_agrees(&runs);
    }
}

// Fast-forwarding quiescent cycles: `Engine::run` skips the exact repeats
// of a cycle that moved nothing and must leave everything a loop of
// `Engine::step` calls would.

/// What a run leaves observable: trace, statistics, scheduler counters,
/// the engine cycle and the machine's mirror of it.
fn observed(e: &mut Engine<Tok, Feed>) -> (Vec<TraceEvent>, Stats, SchedStats, u64, u64) {
    (e.take_trace(), e.stats().clone(), e.sched().clone(), e.cycle(), e.machine().cycle)
}

/// A traced engine over `model` with `n` class-`c` instructions to fetch.
fn traced(model: Model<Tok, Feed>, c: OpClassId, n: usize) -> Engine<Tok, Feed> {
    let feed = Feed::default();
    feed.program.borrow_mut().extend((0..n).map(|_| Tok::plain(c)));
    let cfg = EngineConfig { trace: true, collect_occupancy: true, ..Default::default() };
    Engine::with_config(model, Machine::new(RegisterFile::new(), feed), cfg)
}

/// What [`long_latch`] adds to its net.
#[derive(Clone, Copy)]
enum Latch {
    /// Nothing: p2 is a single-list latch.
    Plain,
    /// `t12` reads p2's state, which makes p2 a two-list latch.
    TwoList,
    /// `t12` also reserves `pr`, on a stage of its own, for 10 cycles.
    Reserving,
}

/// fetch -> p1 -> p2 -> end, both latches capacity 1, with a `delay`-cycle
/// residency in p2.
fn long_latch(delay: u32, n: usize, latch: Latch) -> Engine<Tok, Feed> {
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let l1 = b.stage("L1", 1);
    let l2 = b.stage("L2", 1);
    let p1 = b.place("p1", l1);
    let p2 = b.place_with_delay("p2", l2, delay);
    let end = b.end_place();
    let (c, _) = b.class_net("Alu");
    let pr = matches!(latch, Latch::Reserving).then(|| {
        let lr = b.stage("LR", 1);
        b.place("pr", lr)
    });
    let mut t12 = b.transition(c, "t12").from(p1).to(p2);
    if let Latch::TwoList = latch {
        t12 = t12.reads_state(p2);
    }
    if let Some(pr) = pr {
        t12 = t12.reserve(pr, 10);
    }
    t12.done();
    b.transition(c, "t2e").from(p2).to(end).done();
    feed_source(&mut b, p1);
    traced(b.build().unwrap(), c, n)
}

#[test]
fn a_long_latch_delay_fast_forwards_the_predicted_cycles() {
    const DELAY: u64 = 20;
    let mut run = long_latch(DELAY as u32, 3, Latch::Plain);
    let mut stepped = long_latch(DELAY as u32, 3, Latch::Plain);
    assert_eq!(run.run(100), RunOutcome::CycleLimit);
    for _ in 0..100 {
        stepped.step();
    }
    // While each of the first two tokens sits out its DELAY cycles in p2,
    // the next one is capacity-blocked in p1 and fetch is blocked behind
    // it: after the cycle that filled p2, DELAY - 1 cycles move nothing.
    // The first of them and its successor (the template) are simulated;
    // the other DELAY - 3 are skipped. During the third token's wait p1 is
    // empty, so fetch is consulted every cycle and nothing is skipped.
    assert_eq!(run.fast_forwarded_cycles(), 2 * (DELAY - 3));
    assert_eq!(stepped.fast_forwarded_cycles(), 0);
    assert_eq!(run.stats().retired, 3);
    assert_eq!(observed(&mut run), observed(&mut stepped));
}

#[test]
fn a_latch_commit_does_not_delay_fast_forward() {
    // p2 is a two-list latch here: each token becomes readable there
    // through the commit of the cycle after t12 fired. The commit comes
    // before that cycle's visits, and the cycle moves nothing else, so it
    // already repeats into the next one and the skip is as long as the
    // single-list latch's.
    const DELAY: u64 = 20;
    let mut run = long_latch(DELAY as u32, 3, Latch::TwoList);
    let mut stepped = long_latch(DELAY as u32, 3, Latch::TwoList);
    assert_eq!(run.run(100), RunOutcome::CycleLimit);
    for _ in 0..100 {
        stepped.step();
    }
    assert_eq!(run.fast_forwarded_cycles(), 2 * (DELAY - 3));
    assert_eq!(run.stats().retired, 3);
    assert!(run.stats().two_list_commits >= 3);
    assert_eq!(observed(&mut run), observed(&mut stepped));
}

#[test]
fn a_reservation_expiry_does_not_delay_fast_forward() {
    // t12 reserves pr for 10 cycles, so a reservation expires halfway
    // through each of the first two waits and splits it in two stretches.
    // Of a wait's DELAY - 1 quiescent cycles, four are simulated: the
    // first, its template, the expiry cycle (the next event) and the
    // expiry cycle's successor, the second template. The expiry comes
    // before its cycle's visits, so that cycle is itself quiescent.
    const DELAY: u64 = 20;
    let mut run = long_latch(DELAY as u32, 3, Latch::Reserving);
    let mut stepped = long_latch(DELAY as u32, 3, Latch::Reserving);
    assert_eq!(run.run(100), RunOutcome::CycleLimit);
    for _ in 0..100 {
        stepped.step();
    }
    assert_eq!(run.fast_forwarded_cycles(), 2 * (DELAY - 5));
    assert_eq!(run.stats().retired, 3);
    assert_eq!(run.stats().reservations, 3);
    assert_eq!(observed(&mut run), observed(&mut stepped));
}

#[test]
fn run_stops_at_its_limit_inside_a_quiescent_stretch() {
    let mut run = long_latch(20, 3, Latch::Plain);
    let mut stepped = long_latch(20, 3, Latch::Plain);
    // The first wait lasts until cycle 21. Cycle 2 is its first quiescent
    // cycle and cycle 3 the template, so run(10) skips cycles 4..=9.
    assert_eq!(run.run(10), RunOutcome::CycleLimit);
    assert_eq!(run.cycle(), 10);
    assert_eq!(run.fast_forwarded_cycles(), 6);
    for _ in 0..10 {
        stepped.step();
    }
    assert_eq!(observed(&mut run), observed(&mut stepped));
    // A run that resumes inside the stretch, and whose limit falls inside
    // the next one, still ends on its limit in step.
    assert_eq!(run.run(30), RunOutcome::CycleLimit);
    assert_eq!(run.cycle(), 40);
    for _ in 0..30 {
        stepped.step();
    }
    assert_eq!(observed(&mut run), observed(&mut stepped));
}

#[test]
fn a_guard_reading_the_cycle_prevents_fast_forward() {
    // p2's exit opens at cycle 30 through a guard that reads the machine
    // cycle: a closure, or an IR program that calls a hook. Nothing else
    // changes while it is shut and no token is delayed, so a rule that
    // trusted such guards would skip straight past the opening.
    for through_ir in [false, true] {
        let build = || {
            let mut b = ModelBuilder::<Tok, Feed>::new();
            let l1 = b.stage("L1", 1);
            let l2 = b.stage("L2", 1);
            let p1 = b.place("p1", l1);
            let p2 = b.place("p2", l2);
            let end = b.end_place();
            let (c, _) = b.class_net("Alu");
            b.transition(c, "t12").from(p1).to(p2).done();
            let opens = |m: &Machine<Feed>, _: &Tok| m.cycle >= 30;
            if through_ir {
                let hook = b.hook_guard(opens);
                let guard = Program::new(vec![MicroOp::CallHook(hook)]);
                b.transition(c, "t2e").from(p2).to(end).guard_ir(guard).done();
            } else {
                b.transition(c, "t2e").from(p2).to(end).guard(opens).done();
            }
            feed_source(&mut b, p1);
            traced(b.build().unwrap(), c, 3)
        };
        let (mut run, mut stepped) = (build(), build());
        run.run(60);
        for _ in 0..60 {
            stepped.step();
        }
        assert_eq!(run.fast_forwarded_cycles(), 0, "through_ir: {through_ir}");
        assert_eq!(run.stats().retired, 3, "through_ir: {through_ir}");
        assert_eq!(observed(&mut run), observed(&mut stepped), "through_ir: {through_ir}");
    }
}

#[test]
fn a_source_guard_consulted_every_cycle_prevents_fast_forward() {
    // Fetch opens at cycle 30 through its source guard, over an empty
    // pipeline: only the guard's answer changes.
    let build = || {
        let mut b = ModelBuilder::<Tok, Feed>::new();
        let l1 = b.stage("L1", 1);
        let p1 = b.place("p1", l1);
        let end = b.end_place();
        let (c, _) = b.class_net("Alu");
        b.transition(c, "t1e").from(p1).to(end).done();
        b.source("fetch")
            .to(p1)
            .guard(|m: &Machine<Feed>| m.cycle >= 30)
            .produce(|m: &mut Machine<Feed>, _fx| m.res.program.borrow_mut().pop_front())
            .done();
        traced(b.build().unwrap(), c, 3)
    };
    let (mut run, mut stepped) = (build(), build());
    run.run(60);
    for _ in 0..60 {
        stepped.step();
    }
    assert_eq!(run.fast_forwarded_cycles(), 0);
    assert_eq!(run.stats().retired, 3);
    assert_eq!(observed(&mut run), observed(&mut stepped));
}

#[test]
fn a_deadlock_fast_forwards_to_the_limit_without_overflow() {
    // p1 and p2 (capacity 1 each) hold tokens bound for each other, and p3
    // holds one whose IR guard never passes. Every stall is a capacity or
    // IR stall, nothing is delayed and nothing is reserved, so no event
    // ever ends the quiescent stretch.
    fn build() -> Engine<Tok, Feed> {
        let mut b = ModelBuilder::<Tok, Feed>::new();
        let (l1, l2, l3) = (b.stage("L1", 1), b.stage("L2", 1), b.stage("L3", 1));
        let (p1, p2, p3) = (b.place("p1", l1), b.place("p2", l2), b.place("p3", l3));
        let end = b.end_place();
        let (c, _) = b.class_net("Alu");
        b.transition(c, "t12").from(p1).to(p2).done();
        b.transition(c, "t21").from(p2).to(p1).done();
        b.transition(c, "t3e")
            .from(p3)
            .to(end)
            .guard_ir(Program::new(vec![MicroOp::CheckCond { expect: false }]))
            .done();
        let mut e = traced(b.build().unwrap(), c, 0);
        for p in [p1, p2, p3] {
            e.inject(Tok::plain(c), p);
        }
        e
    }
    const LIMIT: u64 = 1_000_000_000;
    let mut e = build();
    assert_eq!(e.run(LIMIT), RunOutcome::CycleLimit);
    assert_eq!(e.cycle(), LIMIT);
    // Cycle 0 commits the injected tokens, cycle 1 is quiescent and cycle
    // 2 is the template; everything after it is skipped.
    assert_eq!(e.fast_forwarded_cycles(), LIMIT - 3);
    assert!(e.take_trace().is_empty());

    // The counters grow by the stepped per-cycle delta.
    let mut stepped = build();
    for _ in 0..10 {
        stepped.step();
    }
    let (s10, q10) = (stepped.stats().clone(), stepped.sched().clone());
    stepped.step();
    let (s11, q11) = (stepped.stats().clone(), stepped.sched().clone());
    let at_limit = |at10: u64, at11: u64| at10 + (at11 - at10) * (LIMIT - 10);
    let each = |at10: &[u64], at11: &[u64]| -> Vec<u64> {
        at10.iter().zip(at11).map(|(&a, &b)| at_limit(a, b)).collect()
    };
    let expected = Stats {
        cycles: at_limit(s10.cycles, s11.cycles),
        retired: at_limit(s10.retired, s11.retired),
        generated: at_limit(s10.generated, s11.generated),
        emitted: at_limit(s10.emitted, s11.emitted),
        flushed: at_limit(s10.flushed, s11.flushed),
        reservations: at_limit(s10.reservations, s11.reservations),
        leaked_reservations: at_limit(s10.leaked_reservations, s11.leaked_reservations),
        guard_fails: at_limit(s10.guard_fails, s11.guard_fails),
        capacity_blocks: at_limit(s10.capacity_blocks, s11.capacity_blocks),
        stalls: at_limit(s10.stalls, s11.stalls),
        two_list_commits: at_limit(s10.two_list_commits, s11.two_list_commits),
        fires: each(&s10.fires, &s11.fires),
        source_fires: each(&s10.source_fires, &s11.source_fires),
        place_stalls: each(&s10.place_stalls, &s11.place_stalls),
        occupancy: each(&s10.occupancy, &s11.occupancy),
    };
    assert_eq!(expected.cycles, LIMIT);
    assert_eq!(expected.stalls, 3 * LIMIT - 3, "three stalls a cycle from cycle 1 on");
    assert_eq!(e.stats(), &expected);
    let expected = SchedStats {
        place_visits: at_limit(q10.place_visits, q11.place_visits),
        place_skips: at_limit(q10.place_skips, q11.place_skips),
        token_visits: at_limit(q10.token_visits, q11.token_visits),
        token_visits_skipped: at_limit(q10.token_visits_skipped, q11.token_visits_skipped),
        trans_visits: at_limit(q10.trans_visits, q11.trans_visits),
        trans_visits_skipped: at_limit(q10.trans_visits_skipped, q11.trans_visits_skipped),
        expiry_scans: at_limit(q10.expiry_scans, q11.expiry_scans),
        expiry_skips: at_limit(q10.expiry_skips, q11.expiry_skips),
        guard_ir_evals: at_limit(q10.guard_ir_evals, q11.guard_ir_evals),
        guard_hook_evals: at_limit(q10.guard_hook_evals, q11.guard_hook_evals),
        actions_fused: at_limit(q10.actions_fused, q11.actions_fused),
        superblocks_entered: at_limit(q10.superblocks_entered, q11.superblocks_entered),
        ops_inlined: at_limit(q10.ops_inlined, q11.ops_inlined),
        chains_entered: at_limit(q10.chains_entered, q11.chains_entered),
        chain_links_fired: at_limit(q10.chain_links_fired, q11.chain_links_fired),
    };
    assert_eq!(e.sched(), &expected);
}
