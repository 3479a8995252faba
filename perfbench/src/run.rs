//! Verified simulator runs, the counters they feed, and result digests.
//!
//! Every run checks its own result and is counted as attempted; a wrong
//! exit code, a fault, an exhausted cycle budget or a disagreement with
//! the Functional-ISS reference counts it as failed. Nothing panics on a
//! wrong result.

use std::collections::BTreeMap;
use std::hint::black_box;

use arm_isa::iss::{Iss, RunStatus};
use arm_isa::program::{Program, DEFAULT_STACK_TOP};
use baseline_sim::{SsArm, TraceMem};
use processors::sim::{CompiledSim, SimResult};
use rcpn::stats::{SchedStats, Stats};
use workloads::Workload;

use crate::gen::GenProgram;
use crate::trace::Tracer;

/// Cycle (and ISS instruction) budget; a run that reaches it has failed.
pub const MAX_CYCLES: u64 = 1_000_000_000;

/// Span names: `"<layer>/<call>"`, one per call the benchmark makes into
/// a layer.
pub mod span {
    /// `CompiledSim::new` (compile a model: `rcpn::spec` + `rcpn::compiled`).
    pub const COMPILE: &str = "rcpn::compiled/CompiledSim::new";
    /// `CompiledSim::load` (decode an artifact file).
    pub const ARTIFACT_LOAD: &str = "rcpn::artifact/CompiledSim::load";
    /// `CompiledSim::instantiate` (bind a compiled model to a program).
    pub const INSTANTIATE: &str = "processors/CompiledSim::instantiate";
    /// `CaSim::run` (the generated simulator's run loop).
    pub const CASIM_RUN: &str = "rcpn::engine/CaSim::run";
    /// `SsArm::new`.
    pub const SS_NEW: &str = "baseline-sim/SsArm::new";
    /// `SsArm::run`.
    pub const SS_RUN: &str = "baseline-sim/SsArm::run";
    /// `Iss::run` (the Functional-ISS).
    pub const ISS_RUN: &str = "arm-isa/Iss::run";
    /// `arm_isa::decode::decode` replayed over executed words.
    pub const DECODE: &str = "arm-isa/decode";
    /// `processors::armtok::decode_word` replayed over executed words.
    pub const DECODE_WORD: &str = "processors/decode_word";
    /// `Cache::access` replayed over a run's address stream.
    pub const CACHE: &str = "memsys/Cache::access";
    /// `Server::bind` (artifact loads included).
    pub const BIND: &str = "rcpn-serve/Server::bind";
    /// One served job, submit to `JobDone`, as the client sees it.
    pub const JOB: &str = "rcpn-serve/submit->JobDone";
    /// `encode_request` of a `Submit`.
    pub const ENCODE: &str = "rcpn-serve/encode_request";
    /// `decode_reply` of one reply frame.
    pub const DECODE_REPLY: &str = "rcpn-serve/decode_reply";
}

/// A program every simulator runs, with what a correct run must produce.
#[derive(Debug, Clone)]
pub struct Subject {
    /// Display name.
    pub name: String,
    /// The assembled image.
    pub program: Program,
    /// Gold exit code.
    pub expected: u32,
    /// `r0`–`r12` at exit in the Functional-ISS run; every timing model
    /// must reproduce them.
    pub regs: [u32; 13],
    /// Output bytes of the Functional-ISS run; every timing model must
    /// reproduce them.
    pub output: Vec<u8>,
    /// The ISS run's address stream, `(address, is_fetch)`, for the
    /// memsys replay.
    pub stream: Vec<(u32, bool)>,
    /// Every executed instruction `(pc, word)`, once, for the decode
    /// replay.
    pub code: Vec<(u32, u32)>,
}

impl Subject {
    /// Builds a subject from a suite kernel.
    pub fn kernel(b: &mut Bench, w: &Workload) -> Subject {
        Subject::capture(b, w.kernel.name().to_string(), &w.program, w.expected, None)
    }

    /// Builds a subject from a generated program, checking the ISS against
    /// the generator's gold model (exit code and output bytes).
    pub fn generated(b: &mut Bench, g: &GenProgram) -> Subject {
        Subject::capture(b, g.name.clone(), &g.program, g.expected, Some(&g.output))
    }

    /// Runs the Functional-ISS over a traced memory to record the
    /// reference state, the address stream and the executed code.
    fn capture(
        b: &mut Bench,
        name: String,
        program: &Program,
        expected: u32,
        gold_output: Option<&[u8]>,
    ) -> Subject {
        let mut iss = Iss::new(TraceMem::new(program.to_memory()), program.entry);
        iss.regs[13] = DEFAULT_STACK_TOP;
        iss.set_brk(program.image_end());
        let mut stream = Vec::new();
        let mut code = BTreeMap::new();
        let mut problems = Vec::new();
        while !iss.halted() && iss.instr_count() < MAX_CYCLES {
            iss.mem.accesses.clear();
            let pc = iss.regs[15];
            if let Err(e) = iss.step() {
                problems.push(format!("ISS fault: {e}"));
                break;
            }
            // The first access of a step is its instruction fetch.
            stream.extend(iss.mem.accesses.iter().enumerate().map(|(k, &(a, _))| (a, k == 0)));
            let word = program.words.get((pc.wrapping_sub(program.base) / 4) as usize).copied();
            code.entry(pc).or_insert(word.unwrap_or(0));
        }
        if !iss.halted() {
            problems.push("ISS reached its budget".to_string());
        } else if iss.exit_code() != expected {
            problems.push(format!("ISS exit {:#x} != gold {expected:#x}", iss.exit_code()));
        }
        if let Some(out) = gold_output {
            if iss.output() != out {
                problems.push("ISS output differs from the gold model".to_string());
            }
        }
        b.finish("Functional-ISS/reference", &name, None, problems);
        Subject {
            regs: std::array::from_fn(|i| iss.regs[i]),
            output: iss.output().to_vec(),
            name,
            program: program.clone(),
            expected,
            stream,
            code: code.into_iter().collect(),
        }
    }
}

/// Attempt/failure accounting, digests and the span recorder, shared by
/// every run of one benchmark process.
pub struct Bench {
    /// The span recorder.
    pub tracer: Tracer,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    failures: Vec<String>,
    digests: BTreeMap<(String, String), u64>,
    next_job: u64,
}

impl Bench {
    /// A fresh context; `trace` switches span recording on.
    pub fn new(trace: bool) -> Bench {
        Bench {
            tracer: Tracer::new(trace),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digests: BTreeMap::new(),
            next_job: 0,
        }
    }

    /// The next job id (also the id served jobs carry on the wire).
    pub fn job_id(&mut self) -> u64 {
        self.next_job += 1;
        self.next_job
    }

    /// Counts one attempted run of `sim` on `program`. A digest must equal
    /// the one this pair produced the first time; `problems` lists the
    /// checks it failed.
    pub fn finish(
        &mut self,
        sim: &str,
        program: &str,
        digest: Option<u64>,
        mut problems: Vec<String>,
    ) {
        if let Some(d) = digest {
            let first = *self.digests.entry((sim.to_string(), program.to_string())).or_insert(d);
            if first != d {
                problems.push(format!("digest {d:016x} != first run's {first:016x}"));
            }
        }
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{sim} on {program}: {}", problems.join("; ")));
            }
        }
    }

    /// The first failure messages (at most 20).
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Digest per `(simulator, program)`.
    pub fn digests(&self) -> &BTreeMap<(String, String), u64> {
        &self.digests
    }
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digest of a generated simulator's simulated results: cycles, retired
/// instructions, exit code and every [`Stats`] counter. Host-side
/// [`SchedStats`] are left out, so a speed-only change keeps the digest.
pub fn rcpn_digest(r: &SimResult, s: &Stats) -> u64 {
    let head = [
        r.cycles,
        r.instrs,
        r.exit.map_or(u64::MAX, u64::from),
        s.cycles,
        s.retired,
        s.generated,
        s.emitted,
        s.flushed,
        s.reservations,
        s.leaked_reservations,
        s.guard_fails,
        s.capacity_blocks,
        s.stalls,
        s.two_list_commits,
    ];
    let vecs = [&s.fires, &s.source_fires, &s.place_stalls, &s.occupancy];
    fnv(head.into_iter().chain(
        vecs.into_iter().flat_map(|v| std::iter::once(v.len() as u64).chain(v.iter().copied())),
    ))
}

/// Per-run counters of a generated simulator, summed over runs.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instrs: u64,
    /// Transition firings (sum of `Stats::fires`).
    pub fires: u64,
    /// Guard evaluations that returned false.
    pub guard_fails: u64,
    /// Ready tokens that found nothing to fire.
    pub stalls: u64,
    /// Scheduler counters.
    pub sched: SchedStats,
    /// I-cache `(hits, misses)`.
    pub icache: (u64, u64),
    /// D-cache `(hits, misses)`.
    pub dcache: (u64, u64),
    /// BTB `(correct, mispredicts)` (XScale only).
    pub btb: (u64, u64),
    /// Decode cache `(hits, misses)`.
    pub decode: (u64, u64),
    /// Front-end squashes.
    pub squashes: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.cycles += o.cycles;
        self.instrs += o.instrs;
        self.fires += o.fires;
        self.guard_fails += o.guard_fails;
        self.stalls += o.stalls;
        self.sched.merge(&o.sched);
        let pair = |a: &mut (u64, u64), b: (u64, u64)| {
            a.0 += b.0;
            a.1 += b.1;
        };
        pair(&mut self.icache, o.icache);
        pair(&mut self.dcache, o.dcache);
        pair(&mut self.btb, o.btb);
        pair(&mut self.decode, o.decode);
        self.squashes += o.squashes;
    }
}

/// One generated-simulator run.
#[derive(Debug, Clone)]
pub struct RcpnRun {
    /// Architectural outcome.
    pub result: SimResult,
    /// [`rcpn_digest`] of the run.
    pub digest: u64,
    /// The run's counters.
    pub counters: Counters,
    /// Seconds in `CompiledSim::instantiate`.
    pub instantiate_s: f64,
    /// Seconds in `CaSim::run`.
    pub run_s: f64,
}

/// Runs `sim` on `s` and verifies the result against the gold exit code
/// and the ISS reference.
pub fn run_rcpn(b: &mut Bench, sim: &CompiledSim, s: &Subject, job: u64) -> RcpnRun {
    let o = b.tracer.begin(span::INSTANTIATE, job);
    let mut ca = sim.instantiate(black_box(&s.program));
    let instantiate_s = b.tracer.end(o);
    let o = b.tracer.begin(span::CASIM_RUN, job);
    let result = ca.run(MAX_CYCLES);
    let run_s = b.tracer.end(o);

    let mut problems = exit_problems(result.exit, s.expected);
    if let Some(f) = &result.fault {
        problems.push(format!("fault: {f}"));
    }
    if (0..13).any(|i| ca.reg(i) != s.regs[i]) {
        problems.push("r0-r12 differ from the Functional-ISS".to_string());
    }
    if ca.output() != s.output.as_slice() {
        problems.push("output differs from the Functional-ISS".to_string());
    }
    let stats = ca.engine.stats();
    let digest = rcpn_digest(&result, stats);
    b.finish(sim.model().figure_name(), &s.name, Some(digest), problems);

    let res = ca.res();
    let counters = Counters {
        cycles: result.cycles,
        instrs: result.instrs,
        fires: stats.fires.iter().sum(),
        guard_fails: stats.guard_fails,
        stalls: stats.stalls,
        sched: ca.sched().clone(),
        icache: (res.icache.stats().hits, res.icache.stats().misses),
        dcache: (res.dcache.stats().hits, res.dcache.stats().misses),
        btb: res.btb.as_ref().map_or((0, 0), |t| (t.stats().correct, t.stats().mispredicts)),
        decode: (res.dec_cache.hits, res.dec_cache.misses),
        squashes: res.squashes,
    };
    RcpnRun { result, digest, counters, instantiate_s, run_s }
}

/// The exit-code check every run makes.
pub fn exit_problems(exit: Option<u32>, expected: u32) -> Vec<String> {
    match exit {
        Some(e) if e == expected => Vec::new(),
        Some(e) => vec![format!("exit {e:#x} != gold {expected:#x}")],
        None => vec!["no exit within the cycle budget".to_string()],
    }
}

/// One SimpleScalar-Arm run.
#[derive(Debug, Clone, Copy)]
pub struct SsRun {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instrs: u64,
    /// Seconds in `SsArm::new`.
    pub new_s: f64,
    /// Seconds in `SsArm::run`.
    pub run_s: f64,
}

/// Runs SimpleScalar-Arm on `s`, verified like [`run_rcpn`].
pub fn run_ss(b: &mut Bench, s: &Subject, job: u64) -> SsRun {
    let o = b.tracer.begin(span::SS_NEW, job);
    let mut ss = SsArm::new(black_box(&s.program));
    let new_s = b.tracer.end(o);
    let o = b.tracer.begin(span::SS_RUN, job);
    let r = ss.run(MAX_CYCLES);
    let run_s = b.tracer.end(o);

    let mut problems = exit_problems(r.exit, s.expected);
    if ss.iss().regs[..13] != s.regs || ss.iss().output() != s.output.as_slice() {
        problems.push("functional core differs from the Functional-ISS".to_string());
    }
    let d = ss.dcache_stats();
    let digest = fnv([r.cycles, r.instrs, r.exit.map_or(u64::MAX, u64::from), d.hits, d.misses]);
    b.finish("SimpleScalar-Arm", &s.name, Some(digest), problems);
    SsRun { cycles: r.cycles, instrs: r.instrs, new_s, run_s }
}

/// One Functional-ISS run.
#[derive(Debug, Clone, Copy)]
pub struct IssRun {
    /// Executed instructions.
    pub instrs: u64,
    /// Seconds in `Iss::run`.
    pub run_s: f64,
}

/// Runs the Functional-ISS on `s`, verified like [`run_rcpn`].
pub fn run_iss(b: &mut Bench, s: &Subject, job: u64) -> IssRun {
    let mut iss = Iss::from_program(black_box(&s.program));
    let o = b.tracer.begin(span::ISS_RUN, job);
    let status = iss.run(MAX_CYCLES);
    let run_s = b.tracer.end(o);

    let mut problems = match status {
        Ok(RunStatus::Exited) => exit_problems(Some(iss.exit_code()), s.expected),
        Ok(RunStatus::Limit) => exit_problems(None, s.expected),
        Err(e) => vec![format!("fault: {e}")],
    };
    if iss.regs[..13] != s.regs || iss.output() != s.output.as_slice() {
        problems.push("state differs from the reference run".to_string());
    }
    let digest = fnv([iss.instr_count(), u64::from(iss.exit_code())]);
    b.finish("Functional-ISS", &s.name, Some(digest), problems);
    IssRun { instrs: iss.instr_count(), run_s }
}

/// Everything the timed rounds of one phase record, after the warm-up
/// round. Indexes over models follow `ProcModel::ALL`.
#[derive(Debug, Clone, Default)]
pub struct Log {
    /// Per model: each pair's speed relative to SimpleScalar-Arm.
    pub speedups: [Vec<f64>; 3],
    /// RCPN-StrongArm instructions per second over the Functional-ISS's,
    /// per pair.
    pub iss_fraction: Vec<f64>,
    /// Per model: summed counters.
    pub engine: [Counters; 3],
    /// Per model: seconds in `CaSim::run`.
    pub engine_s: [f64; 3],
    /// Per model: seconds in each `CompiledSim::instantiate`.
    pub instantiate_s: [Vec<f64>; 3],
    /// SimpleScalar-Arm `(cycles, instructions, seconds in run)`.
    pub ss: (u64, u64, f64),
    /// Functional-ISS `(instructions, seconds in run)`.
    pub iss: (u64, f64),
    /// Served jobs: client-observed submit→`JobDone` seconds.
    pub latency_s: Vec<f64>,
    /// Served jobs: latency minus the in-process instantiate + run.
    pub overhead_s: Vec<f64>,
    /// Served jobs: seconds encoding the `Submit`.
    pub encode_s: Vec<f64>,
    /// Served jobs: seconds decoding the `JobDone`.
    pub decode_s: Vec<f64>,
    /// Served jobs: `JobDone` frame bytes.
    pub jobdone_bytes: Vec<f64>,
    /// `Busy` replies received.
    pub busy: u64,
}

impl Log {
    /// Records a generated-simulator run of model `m`.
    pub fn rcpn(&mut self, m: usize, r: &RcpnRun) {
        self.engine[m].add(&r.counters);
        self.engine_s[m] += r.run_s;
        self.instantiate_s[m].push(r.instantiate_s);
    }

    /// Records a SimpleScalar-Arm run.
    pub fn ss(&mut self, r: &SsRun) {
        self.ss.0 += r.cycles;
        self.ss.1 += r.instrs;
        self.ss.2 += r.run_s;
    }

    /// Records a Functional-ISS run paired with a RCPN-StrongArm run.
    pub fn iss(&mut self, r: &IssRun, strongarm: &RcpnRun) {
        self.iss.0 += r.instrs;
        self.iss.1 += r.run_s;
        let sa_ips = strongarm.result.instrs as f64 / strongarm.run_s;
        self.iss_fraction.push(sa_ips / (r.instrs as f64 / r.run_s));
    }
}
