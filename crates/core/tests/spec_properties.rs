//! Property tests for the spec layer: random valid [`PipelineSpec`]s —
//! random stage counts, capacities, delays, forwarding sets, alternative
//! edges, reservation arcs — must lower successfully, carry a coherent
//! static analysis, and drive engines that are deterministic both across
//! rebuilds and across batch worker counts (1 vs 8), since a lowered
//! model is exactly as batchable as a hand-wired one. The second half
//! pins the dispatch refactor: random specs over a *lowerable* operand
//! policy must simulate bit-identically whether their read steps compile
//! to micro-op IR ([`Lowering::Auto`]) or to closures
//! ([`Lowering::Closures`]), and — on the IR side — whether hook-free
//! transitions dispatch through compiled superblocks or the per-op
//! interpreter. The final block extends the differential through the
//! artifact layer: a random spec whose closures all carry registry
//! names must serialize to [`rcpn::artifact`] bytes, reload against a
//! hook registry, and simulate bit-identically — fresh compile vs
//! reload vs reload-of-a-re-encode — under every table mode and both
//! schedulers.

use std::cell::RefCell;
use std::collections::VecDeque;

use proptest::prelude::*;
use rcpn::batch::BatchRunner;
use rcpn::prelude::*;
use rcpn::spec::{Forward, OperandPolicy, PipelineSpec, SquashOrder};

/// Token payload: a class plus an immediate guards key on.
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

/// Per-engine program feed.
#[derive(Debug, Default)]
struct Feed {
    program: RefCell<VecDeque<Tok>>,
}

/// A deterministic toy operand policy: "operands" are ready unless the
/// token's immediate and the cycle parity collide — enough to create
/// data-hazard-like stalls without a register file.
struct ParityOperands;
impl OperandPolicy<Tok, Feed> for ParityOperands {
    fn ready(&self, m: &Machine<Feed>, t: &Tok, fwd: &[PlaceId]) -> bool {
        t.imm % 3 != 0 || m.cycle % 2 == u64::from(!fwd.is_empty())
    }
    fn acquire(&self, _m: &mut Machine<Feed>, t: &mut Tok, _fx: &mut Fx<Tok>, _f: &[PlaceId]) {
        t.imm = t.imm.rotate_left(1);
    }
}

/// The random spec shape.
#[derive(Debug, Clone)]
struct Shape {
    n_stages: usize,
    caps: Vec<u32>,
    delays: Vec<u32>,
    forward_last: bool,
    read_forward: bool,
    skip: Option<usize>,
    reserve: Option<(usize, u32)>,
    redirect: bool,
    front_first: bool,
    width: u32,
    program: Vec<(bool, u32)>,
}

fn build_spec(shape: &Shape) -> PipelineSpec<Tok, Feed> {
    let n = shape.n_stages;
    let latch = |i: usize| format!("P{i}");
    let mut s = PipelineSpec::new("generated");
    for i in 0..n {
        s.stage(&format!("S{i}"), shape.caps[i % shape.caps.len()]);
        let name = latch(i);
        s.latch_with_delay(&name, &format!("S{i}"), shape.delays[i % shape.delays.len()]);
    }
    if shape.forward_last {
        s.forwards(&[&latch(n - 1)]);
    }
    s.hazard_policy(if shape.front_first {
        SquashOrder::FrontFirst
    } else {
        SquashOrder::NearestFirst
    });
    s.operand_policy(ParityOperands);
    if shape.redirect && n >= 2 {
        s.redirect("r", &latch(n - 1));
    }

    // Class A: the plain spine.
    {
        let a = s.class("A");
        for i in 1..n {
            a.step(&latch(i));
        }
        a.step("end");
    }

    // Class B: a read step, an optional skip alternative, an optional
    // reservation arc and an optional flushing retire.
    {
        let fw =
            if shape.forward_last && shape.read_forward { Forward::All } else { Forward::None };
        let b = s.class("B");
        if n >= 2 {
            b.step(&latch(1)).read(fw);
        }
        if let Some(k) = shape.skip {
            if n >= 3 {
                let dest = 2 + k % (n - 2).max(1);
                b.alt(&latch(dest.min(n - 1))).priority(7).guard(|_m, t| t.imm % 5 == 0);
            }
        }
        for i in 2..n {
            b.step(&latch(i));
        }
        b.step("end");
        if let Some((p, expire)) = shape.reserve {
            b.reserve(&latch(p % n), expire + 1);
        }
        if shape.redirect && n >= 2 {
            b.flushes("r").act_ctx(|_m, t, fx, cx| {
                if t.imm % 7 == 0 {
                    for &pl in &cx.flush {
                        fx.flush(pl);
                    }
                }
            });
        }
    }

    let width = shape.width;
    s.source("fetch")
        .to(&latch(0))
        .width(width)
        .produce(|m: &mut Machine<Feed>, _fx| m.res.program.borrow_mut().pop_front());
    s
}

fn machine_for(shape: &Shape) -> Machine<Feed> {
    let feed = Feed::default();
    let (ca, cb) = (OpClassId::from_index(0), OpClassId::from_index(1));
    feed.program.borrow_mut().extend(
        shape.program.iter().map(|&(is_b, imm)| Tok { class: if is_b { cb } else { ca }, imm }),
    );
    Machine::new(RegisterFile::new(), feed)
}

/// Token with real register operands, for the IR-vs-closure differential.
#[derive(Debug, Clone)]
struct RegTok {
    class: OpClassId,
    imm: u32,
    /// Pre-resolved condition for the `when_cond` alternative.
    pass: bool,
    annulled: bool,
    srcs: [Operand; 2],
    dst: Operand,
}

impl InstrData for RegTok {
    fn op_class(&self) -> OpClassId {
        self.class
    }
    fn cond_passes(&self) -> bool {
        self.pass
    }
    fn annulled(&self) -> bool {
        self.annulled
    }
    fn set_annulled(&mut self) {
        self.annulled = true;
    }
    fn src_operands(&self) -> &[Operand] {
        &self.srcs
    }
    fn src_operands_mut(&mut self) -> &mut [Operand] {
        &mut self.srcs
    }
    fn dst_count(&self) -> usize {
        1
    }
    fn dst_operand(&self, i: usize) -> &Operand {
        assert_eq!(i, 0);
        &self.dst
    }
    fn dst_operand_mut(&mut self, i: usize) -> &mut Operand {
        assert_eq!(i, 0);
        &mut self.dst
    }
}

#[derive(Debug, Default)]
struct RegFeed {
    q: RefCell<VecDeque<RegTok>>,
}

/// The standard scoreboard discipline in closure form; `lowers_to_ir`
/// lets [`Lowering::Auto`] compile the very same semantics to
/// `CheckReady`/`AcquireOperands` micro-ops.
struct ScoreboardPolicy;
impl OperandPolicy<RegTok, RegFeed> for ScoreboardPolicy {
    fn ready(&self, m: &Machine<RegFeed>, t: &RegTok, fwd: &[PlaceId]) -> bool {
        t.srcs.iter().all(|s| s.can_read(&m.regs) || fwd.iter().any(|&p| s.can_read_in(&m.regs, p)))
            && t.dst.can_write(&m.regs)
    }
    fn acquire(
        &self,
        m: &mut Machine<RegFeed>,
        t: &mut RegTok,
        fx: &mut Fx<RegTok>,
        fwd: &[PlaceId],
    ) {
        for s in &mut t.srcs {
            if s.can_read(&m.regs) {
                s.read(&m.regs);
            } else if let Some(_p) = fwd.iter().find(|&&p| s.can_read_in(&m.regs, p)) {
                s.read_fwd(&m.regs);
            }
        }
        let tok = fx.token();
        t.dst.reserve_write(&mut m.regs, tok, PlaceId::from_index(0));
    }
    fn lowers_to_ir(&self) -> bool {
        true
    }
}

/// Shape of a random register-operand spec.
#[derive(Debug, Clone)]
struct RegShape {
    n_stages: usize,
    caps: Vec<u32>,
    forward: bool,
    skip: bool,
    /// Class B gets a `when_cond(false)` + `annuls()` alternative.
    cond_skip: bool,
    /// Class A re-publishes its result from the first post-read latch.
    publish: bool,
    /// Class B's retire carries a static `flushes_always` redirect.
    static_flush: bool,
    width: u32,
    /// (is_class_b, dst, s1, s2, imm) per instruction, registers mod 4.
    program: Vec<(bool, u8, u8, u8, u32)>,
}

fn build_reg_spec(shape: &RegShape, lowering: Lowering) -> PipelineSpec<RegTok, RegFeed> {
    let n = shape.n_stages;
    let latch = |i: usize| format!("P{i}");
    let mut s = PipelineSpec::new("reg-generated");
    for i in 0..n {
        s.stage(&format!("S{i}"), shape.caps[i % shape.caps.len()]);
        s.latch(&latch(i), &format!("S{i}"));
    }
    s.lowering(lowering);
    if shape.forward {
        s.forwards(&[&latch(1.min(n - 1))]);
    }
    s.operand_policy(ScoreboardPolicy);
    if shape.static_flush {
        s.redirect("rs", &latch(n - 1));
    }

    // Class A: read step with a publish-on-issue read_then (exercises the
    // CallHook composition under IR lowering), then the spine, then a
    // writeback retire.
    {
        let fw = if shape.forward { Forward::All } else { Forward::None };
        let a = s.class("A");
        a.step(&latch(1.min(n - 1))).read_then(fw, |m, t, fx| {
            let v = t.srcs[0].value().wrapping_add(t.srcs[1].value()).wrapping_add(t.imm);
            let tok = fx.token();
            t.dst.set(&mut m.regs, tok, v);
        });
        for i in 2..n {
            let st = a.step(&latch(i));
            // Re-publishing the latched result is a no-op semantically
            // (the read step already published) but compiles to a bare
            // `Publish` micro-op — a superblockable action.
            if shape.publish && i == 2 {
                st.publish();
            }
        }
        a.step("end").act(|m, t, fx| t.dst.writeback(&mut m.regs, fx.token()));
    }

    // Class B: operand-less spine with an optional guarded skip, an
    // optional condition-checked annul alternative and an optional
    // statically flushing retire.
    {
        let b = s.class("B");
        b.step(&latch(1.min(n - 1)));
        if shape.skip && n >= 3 {
            b.alt("end").priority(9).guard(|_m, t| t.imm % 3 == 0);
        }
        if shape.cond_skip {
            b.alt("end").priority(8).when_cond(false).annuls();
        }
        for i in 2..n {
            b.step(&latch(i));
        }
        let e = b.step("end");
        if shape.static_flush {
            e.flushes_always("rs");
        }
    }

    s.source("feed")
        .to(&latch(0))
        .width(shape.width)
        .produce(|m: &mut Machine<RegFeed>, _fx| m.res.q.borrow_mut().pop_front());
    s
}

fn reg_machine(shape: &RegShape) -> Machine<RegFeed> {
    let mut rf = RegisterFile::new();
    let regs = rf.add_bank("r", 4);
    let feed = RegFeed::default();
    {
        let mut q = feed.q.borrow_mut();
        let (ca, cb) = (OpClassId::from_index(0), OpClassId::from_index(1));
        for &(is_b, d, s1, s2, imm) in &shape.program {
            let pass = imm % 2 == 0;
            q.push_back(if is_b {
                RegTok {
                    class: cb,
                    imm,
                    pass,
                    annulled: false,
                    srcs: [Operand::Absent, Operand::Absent],
                    dst: Operand::Absent,
                }
            } else {
                RegTok {
                    class: ca,
                    imm,
                    pass,
                    annulled: false,
                    srcs: [
                        Operand::reg(regs[s1 as usize % 4]),
                        Operand::reg(regs[s2 as usize % 4]),
                    ],
                    dst: Operand::reg(regs[d as usize % 4]),
                }
            });
        }
    }
    let mut m = Machine::new(rf, feed);
    for (i, &r) in regs.iter().enumerate() {
        m.regs.poke(r, 10 * i as u32 + 1);
    }
    m
}

/// The same pipeline as [`build_reg_spec`] under [`Lowering::Auto`], but
/// every escape-hatch closure is attached through the `_named` spec API
/// with a `test.*` key, so the compiled model serializes to an artifact
/// (the synthesized capabilities — `when_cond`, `annuls`, `publish`,
/// `flushes_always`, the scoreboard read steps — are pure IR and need no
/// names).
fn build_named_reg_spec(shape: &RegShape) -> PipelineSpec<RegTok, RegFeed> {
    let n = shape.n_stages;
    let latch = |i: usize| format!("P{i}");
    let mut s = PipelineSpec::new("reg-named");
    for i in 0..n {
        s.stage(&format!("S{i}"), shape.caps[i % shape.caps.len()]);
        s.latch(&latch(i), &format!("S{i}"));
    }
    if shape.forward {
        s.forwards(&[&latch(1.min(n - 1))]);
    }
    s.operand_policy(ScoreboardPolicy);
    if shape.static_flush {
        s.redirect("rs", &latch(n - 1));
    }
    {
        let fw = if shape.forward { Forward::All } else { Forward::None };
        let a = s.class("A");
        a.step(&latch(1.min(n - 1))).read_then_named(fw, "test.pub_add", |m, t, fx| {
            let v = t.srcs[0].value().wrapping_add(t.srcs[1].value()).wrapping_add(t.imm);
            let tok = fx.token();
            t.dst.set(&mut m.regs, tok, v);
        });
        for i in 2..n {
            let st = a.step(&latch(i));
            if shape.publish && i == 2 {
                st.publish();
            }
        }
        a.step("end").act_named("test.writeback", |m, t, fx| {
            t.dst.writeback(&mut m.regs, fx.token());
        });
    }
    {
        let b = s.class("B");
        b.step(&latch(1.min(n - 1)));
        if shape.skip && n >= 3 {
            b.alt("end").priority(9).guard_named("test.skip_mod3", |_m, t| t.imm % 3 == 0);
        }
        if shape.cond_skip {
            b.alt("end").priority(8).when_cond(false).annuls();
        }
        for i in 2..n {
            b.step(&latch(i));
        }
        let e = b.step("end");
        if shape.static_flush {
            e.flushes_always("rs");
        }
    }
    s.source("feed")
        .to(&latch(0))
        .width(shape.width)
        .produce_named("test.feed", |m: &mut Machine<RegFeed>, _fx| {
            m.res.q.borrow_mut().pop_front()
        });
    s
}

/// The registry [`build_named_reg_spec`] artifacts decode against: one
/// factory per `test.*` key, rebuilding the exact closures the spec
/// attaches.
fn roundtrip_registry() -> HookRegistry<RegTok, RegFeed> {
    let mut r: HookRegistry<RegTok, RegFeed> = HookRegistry::new();
    r.action("test.pub_add", |_args| {
        Box::new(|m, t, fx| {
            let v = t.srcs[0].value().wrapping_add(t.srcs[1].value()).wrapping_add(t.imm);
            let tok = fx.token();
            t.dst.set(&mut m.regs, tok, v);
        })
    });
    r.action("test.writeback", |_args| {
        Box::new(|m, t, fx| t.dst.writeback(&mut m.regs, fx.token()))
    });
    r.guard("test.skip_mod3", |_args| Box::new(|_m, t| t.imm % 3 == 0));
    r.source_action("test.feed", |_args| Box::new(|m, _fx| m.res.q.borrow_mut().pop_front()));
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random specs lower, the analysis is coherent, and two independent
    /// lowerings simulate bit-identically (lowering is deterministic).
    #[test]
    fn random_specs_lower_and_simulate_deterministically(
        n_stages in 2usize..=5,
        caps in proptest::collection::vec(1u32..=2, 1..=3),
        delays in proptest::collection::vec(0u32..=2, 1..=3),
        forward_last in any::<bool>(),
        read_forward in any::<bool>(),
        skip_raw in 0usize..4,
        use_skip in any::<bool>(),
        reserve_raw in (0usize..5, 0u32..=2),
        use_reserve in any::<bool>(),
        redirect in any::<bool>(),
        front_first in any::<bool>(),
        width in 1u32..=2,
        program in proptest::collection::vec((any::<bool>(), 0u32..64), 1..24),
    ) {
        let shape = Shape {
            n_stages, caps, delays, forward_last, read_forward,
            skip: use_skip.then_some(skip_raw),
            reserve: use_reserve.then_some(reserve_raw),
            redirect, front_first, width, program,
        };
        let model = build_spec(&shape).lower().expect("generated spec lowers");
        // Analysis coherence: the evaluation order covers every place
        // exactly once.
        let mut seen = vec![false; model.place_count()];
        for &p in model.analysis().order() {
            prop_assert!(!seen[p.index()], "place {p:?} evaluated twice");
            seen[p.index()] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "evaluation order misses places");
        prop_assert_eq!(model.op_class_count(), 2);

        // Rebuild determinism: two independent lowerings, same simulation.
        let runs: Vec<(Stats, SchedStats)> = (0..2)
            .map(|_| {
                let model = build_spec(&shape).lower().expect("lowers");
                let mut e = Engine::with_config(model, machine_for(&shape), EngineConfig::default());
                e.run(200);
                (e.stats().clone(), e.sched().clone())
            })
            .collect();
        prop_assert_eq!(&runs[0].0, &runs[1].0, "stats must not depend on the lowering run");
        prop_assert_eq!(&runs[0].1, &runs[1].1);
    }

    /// A lowered model batches like a hand-wired one: per-job stats are
    /// bit-identical between 1 and 8 workers over a shared compiled
    /// artifact.
    #[test]
    fn lowered_models_batch_deterministically(
        n_stages in 2usize..=4,
        forward_last in any::<bool>(),
        skip_raw in 0usize..4,
        use_skip in any::<bool>(),
        programs in proptest::collection::vec(
            proptest::collection::vec((any::<bool>(), 0u32..64), 1..12),
            2..6,
        ),
    ) {
        let shape = Shape {
            n_stages,
            caps: vec![1],
            delays: vec![0, 1],
            forward_last,
            read_forward: forward_last,
            skip: use_skip.then_some(skip_raw),
            reserve: None,
            redirect: true,
            front_first: true,
            width: 1,
            program: Vec::new(),
        };
        let model = build_spec(&shape).lower().expect("lowers");
        let compiled = CompiledModel::compile(model);
        let job = |_idx: usize, program: &Vec<(bool, u32)>| {
            let shape = Shape { program: program.clone(), ..shape.clone() };
            let mut e = compiled.instantiate(machine_for(&shape));
            e.run(150);
            (e.stats().clone(), e.sched().clone())
        };
        let serial = BatchRunner::new(1).run(&programs, job);
        let parallel = BatchRunner::new(8).run(&programs, job);
        prop_assert_eq!(serial, parallel, "batched lowered models must be deterministic");
    }

    /// The dispatch differential: a random spec over the lowerable
    /// scoreboard policy — including the synthesized `when_cond`,
    /// `publish`, `annuls` and `flushes_always` step capabilities — must
    /// simulate bit-identically across three compiled variants: micro-op
    /// IR with superblock dispatch (the default), IR with the per-op
    /// interpreter (`superblocks: false`) and the closure lowering. Identity covers trace, `Stats`, dispatch-normalized
    /// `SchedStats` and architectural registers; the raw counters prove
    /// each variant ran its own path.
    #[test]
    fn random_specs_superblock_per_op_and_closures_bit_identically(
        n_stages in 2usize..=5,
        caps in proptest::collection::vec(1u32..=2, 1..=3),
        forward in any::<bool>(),
        skip in any::<bool>(),
        cond_skip in any::<bool>(),
        publish in any::<bool>(),
        static_flush in any::<bool>(),
        width in 1u32..=2,
        program in proptest::collection::vec(
            (any::<bool>(), 0u8..4, 0u8..4, 0u8..4, 0u32..64),
            1..20,
        ),
    ) {
        let shape = RegShape {
            n_stages, caps, forward, skip, cond_skip, publish, static_flush, width, program,
        };
        let mut outcomes = Vec::new();
        for (lowering, superblocks) in
            [(Lowering::Auto, true), (Lowering::Auto, false), (Lowering::Closures, false)]
        {
            let model = build_reg_spec(&shape, lowering).lower().expect("reg spec lowers");
            let cfg = EngineConfig { trace: true, superblocks, ..Default::default() };
            let compiled = CompiledModel::compile_with(model, cfg);
            let is_auto = lowering == Lowering::Auto;
            prop_assert_eq!(
                compiled.ir_transitions() > 0,
                is_auto,
                "IR transitions iff Auto lowering"
            );
            if superblocks && n_stages >= 3 {
                // The class-A spine always has a single-candidate
                // hook-free mid transition, so formation must trigger.
                prop_assert!(compiled.superblocks() > 0, "spine must form a superblock");
            }
            if !superblocks {
                prop_assert_eq!(compiled.superblocks(), 0, "sb tables only when enabled");
            }
            let mut e = compiled.instantiate(reg_machine(&shape));
            e.run(120);
            let regs: Vec<u32> =
                (0..4).map(|i| e.machine().regs.value_of(RegId::from_index(i))).collect();
            outcomes.push((e.take_trace(), e.stats().clone(), e.sched().clone(), regs));
        }
        let (sb, po, cl) = (&outcomes[0], &outcomes[1], &outcomes[2]);
        for (name, o) in [("per-op", po), ("closures", cl)] {
            prop_assert_eq!(&sb.0, &o.0, "superblocks vs {}: trace", name);
            prop_assert_eq!(&sb.1, &o.1, "superblocks vs {}: Stats", name);
            prop_assert_eq!(
                sb.2.dispatch_normalized(),
                o.2.dispatch_normalized(),
                "superblocks vs {}: normalized SchedStats", name
            );
            prop_assert_eq!(&sb.3, &o.3, "superblocks vs {}: architectural state", name);
        }
        for (name, o) in [("per-op", po), ("closures", cl)] {
            prop_assert_eq!(o.2.superblocks_entered, 0, "{} must not enter superblocks", name);
            prop_assert_eq!(o.2.ops_inlined, 0, "{} must not inline ops", name);
        }
        prop_assert_eq!(cl.2.guard_ir_evals, 0, "closure lowering must not run IR");
        // If any class-A instruction issued, the IR variants ran IR guards.
        if sb.1.fires.first().copied().unwrap_or(0) > 0 {
            prop_assert!(sb.2.guard_ir_evals > 0, "IR lowering must use the IR interpreter");
            prop_assert!(sb.2.actions_fused > 0, "read steps must fuse");
        }
    }
}

proptest! {
    // Each case compiles, encodes, decodes twice and simulates three
    // times per engine config (six {table mode × scheduler} cells plus
    // two-list everywhere and per-op dispatch); fewer cases keep the
    // suite's runtime in line with the other differentials.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The artifact round-trip differential: for a random fully-named
    /// spec, a fresh compile, a reload of its artifact, and a reload of
    /// the reloaded model's *re-encoded* artifact must simulate
    /// bit-identically (trace, `Stats`, `SchedStats`, architectural
    /// registers) under every table mode and both schedulers, with
    /// two-list everywhere and with superblocks off — and the
    /// re-encoded bytes must equal the original encoding, pinning the
    /// codec as deterministic and lossless.
    #[test]
    fn random_specs_roundtrip_through_artifacts_bit_identically(
        n_stages in 2usize..=4,
        caps in proptest::collection::vec(1u32..=2, 1..=3),
        forward in any::<bool>(),
        skip in any::<bool>(),
        cond_skip in any::<bool>(),
        publish in any::<bool>(),
        static_flush in any::<bool>(),
        width in 1u32..=2,
        program in proptest::collection::vec(
            (any::<bool>(), 0u8..4, 0u8..4, 0u8..4, 0u32..64),
            1..12,
        ),
    ) {
        let shape = RegShape {
            n_stages, caps, forward, skip, cond_skip, publish, static_flush, width, program,
        };
        let registry = roundtrip_registry();
        let spec_hash = build_named_reg_spec(&shape).content_hash();
        let traced = EngineConfig { trace: true, ..Default::default() };
        let mut cfgs = Vec::new();
        for table_mode in [TableMode::PerPlaceClass, TableMode::PerPlace, TableMode::FullScan] {
            for scheduler in [SchedulerMode::ActivityDriven, SchedulerMode::Exhaustive] {
                cfgs.push(EngineConfig { table_mode, scheduler, ..traced.clone() });
            }
        }
        // The loader re-applies these switches when it recompiles.
        cfgs.push(EngineConfig { two_list_everywhere: true, ..traced.clone() });
        cfgs.push(EngineConfig { superblocks: false, ..traced });
        for cfg in cfgs {
            let model = build_named_reg_spec(&shape).lower().expect("named reg spec lowers");
            let fresh = CompiledModel::compile_with(model, cfg.clone());
            let bytes = fresh.to_artifact_bytes(spec_hash).expect("fully named model serializes");
            let reloaded = CompiledModel::from_artifact_bytes(&bytes, Some(spec_hash), &registry)
                .expect("artifact decodes");
            let rebytes = reloaded.to_artifact_bytes(spec_hash).expect("reloaded model re-encodes");
            prop_assert_eq!(
                &bytes, &rebytes,
                "re-encoding a reloaded artifact must be byte-identical ({:?})", cfg
            );
            let rereloaded =
                CompiledModel::from_artifact_bytes(&rebytes, Some(spec_hash), &registry)
                    .expect("re-encoded artifact decodes");
            let mut runs = Vec::new();
            for compiled in [&fresh, &reloaded, &rereloaded] {
                let mut e = compiled.instantiate(reg_machine(&shape));
                e.run(120);
                let regs: Vec<u32> =
                    (0..4).map(|i| e.machine().regs.value_of(RegId::from_index(i))).collect();
                runs.push((e.take_trace(), e.stats().clone(), e.sched().clone(), regs));
            }
            let fresh_run = &runs[0];
            for (name, run) in [("reload", &runs[1]), ("re-reload", &runs[2])] {
                prop_assert_eq!(&fresh_run.0, &run.0, "fresh vs {}: trace ({:?})", name, cfg);
                prop_assert_eq!(&fresh_run.1, &run.1, "fresh vs {}: Stats", name);
                prop_assert_eq!(&fresh_run.2, &run.2, "fresh vs {}: SchedStats", name);
                prop_assert_eq!(
                    fresh_run.2.dispatch_normalized(), run.2.dispatch_normalized(),
                    "fresh vs {}: normalized SchedStats", name
                );
                prop_assert_eq!(&fresh_run.3, &run.3, "fresh vs {}: architectural state", name);
            }
        }
    }
}
