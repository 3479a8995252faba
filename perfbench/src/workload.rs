//! The three workloads, their paired schedules, and the metrics they
//! print.
//!
//! Speed is always a within-process ratio: each generated-simulator run is
//! paired with a SimpleScalar-Arm run of the same program in the same
//! thread, the side that goes first alternating by round, and round 0 is a
//! discarded warm-up. With tracing on, pairs of traced rounds alternate
//! with pairs of untraced ones; the per-layer metrics come from the traced
//! rounds, followed by replays of the memsys, decode, artifact and (for
//! the two in-process workloads) serve layers on the workload's own
//! programs.

use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;

use arm_isa::decode::decode;
use memsys::cache::{Cache, CacheConfig};
use processors::armtok::decode_word;
use processors::sim::{CompiledSim, ProcModel};
use rcpn::artifact::ArtifactCache;
use rcpn_serve::protocol::{
    decode_reply, encode_request, read_frame, read_reply, write_frame, write_request, JobOutcome,
    JobSpec, Reply, Request,
};
use rcpn_serve::server::{ServeConfig, Server};
use workloads::{Kernel, Workload};

use crate::gen;
use crate::rss;
use crate::run::{
    exit_problems, rcpn_digest, run_iss, run_rcpn, run_ss, span, Bench, Log, Subject, MAX_CYCLES,
};
use crate::stats::{geomean, median, summarize, tail};

/// Size scale of the paper-kernels suite (see `Kernel::scaled_size`):
/// each generated-simulator run takes tens of milliseconds here.
pub const PAPER_SCALE: f64 = 0.05;
/// Generated programs per pointer-chase run.
pub const CHASE_PROGRAMS: usize = 4;
/// Generated short programs in the serve-short-jobs mix.
pub const MIX_PROGRAMS: usize = 30;
/// Cold compiles of every registry model per run (`setup_s` takes their
/// median).
const COMPILE_REPS: usize = 25;
/// Server start-ups per serve-short-jobs run (`setup_s` takes the median
/// of their `Server::bind` times).
const BIND_REPS: usize = 15;
/// Artifact decodes per model in the traced replay.
const ARTIFACT_REPS: usize = 9;
/// Passes of the decode replay over the executed words.
const DECODE_REPS: usize = 20;
/// Served jobs the traced serve replay of an in-process workload needs,
/// so its latency median has ten samples beyond it.
const MIN_SERVED: usize = 20;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Figure 10: the six suite kernels, every simulator, in-process.
    PaperKernels,
    /// Seeded D-cache-missing linked-list walks, every simulator,
    /// in-process.
    PointerChase,
    /// Short seeded jobs through an in-process `rcpn-serve` over loopback.
    ServeShortJobs,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::PaperKernels, Kind::PointerChase, Kind::ServeShortJobs];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperKernels => "paper-kernels",
            Kind::PointerChase => "pointer-chase",
            Kind::ServeShortJobs => "serve-short-jobs",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub kind: Kind,
    /// Seed of the generated programs.
    pub seed: u64,
    /// Seconds of timed rounds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Scratch directory for artifact files.
    pub scratch: PathBuf,
}

/// A printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value: if value.is_finite() { value } else { 0.0 }, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end speed metric of `model`.
fn speedup_metric(model: ProcModel) -> &'static str {
    match model {
        ProcModel::StrongArm => "speedup_vs_ss",
        ProcModel::XScale => "xscale_speedup_vs_ss",
        ProcModel::SuperArm => "superarm_speedup_vs_ss",
    }
}

/// Builds the workload's programs and their ISS references.
fn subjects(b: &mut Bench, kind: Kind, seed: u64) -> Vec<Subject> {
    match kind {
        Kind::PaperKernels => {
            Workload::suite(PAPER_SCALE).iter().map(|w| Subject::kernel(b, w)).collect()
        }
        Kind::PointerChase => (0..CHASE_PROGRAMS)
            .map(|i| Subject::generated(b, &gen::pointer_chase(seed, i)))
            .collect(),
        Kind::ServeShortJobs => {
            let kernels: Vec<Subject> = Kernel::ALL
                .iter()
                .map(|&k| Subject::kernel(b, &Workload::build(k, k.test_size())))
                .collect();
            let mix = (0..MIX_PROGRAMS).map(|i| Subject::generated(b, &gen::short_mix(seed, i)));
            kernels.into_iter().chain(mix.collect::<Vec<_>>()).collect()
        }
    }
}

/// Runs one workload and returns the metrics its mode prints: the
/// end-to-end metrics untraced, the per-layer metrics traced.
///
/// # Errors
///
/// A message when the serving machinery itself breaks (bind, connect or
/// wire failure); wrong simulation results are counted, not errors.
pub fn run(b: &mut Bench, cfg: &Config) -> Result<Vec<Metric>, String> {
    let subjects = subjects(b, cfg.kind, cfg.seed);
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("{}: {e}", cfg.scratch.display()))?;
    let (compile_s, sims) = compile_reps(b);
    let cache = fill_cache(&cfg.scratch.join("artifacts"))?;
    match cfg.kind {
        Kind::ServeShortJobs => run_served(b, cfg, &subjects, &sims, &compile_s, &cache),
        _ => run_in_process(b, cfg, &subjects, &sims, &compile_s, &cache),
    }
}

/// Compiles every registry model [`COMPILE_REPS`] times; returns the
/// per-model compile seconds and the last compiled set.
fn compile_reps(b: &mut Bench) -> ([Vec<f64>; 3], Vec<CompiledSim>) {
    let mut secs: [Vec<f64>; 3] = Default::default();
    let mut sims = Vec::new();
    for _ in 0..COMPILE_REPS {
        sims = ProcModel::ALL
            .iter()
            .zip(&mut secs)
            .map(|(&m, s)| {
                let o = b.tracer.begin(span::COMPILE, 0);
                let sim = CompiledSim::of(black_box(m));
                s.push(b.tracer.end(o));
                sim
            })
            .collect();
    }
    (secs, sims)
}

/// Compiles and stores every registry model into a fresh artifact cache.
fn fill_cache(dir: &Path) -> Result<ArtifactCache, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = ArtifactCache::open(dir).map_err(|e| format!("artifact cache: {e}"))?;
    for m in ProcModel::ALL {
        CompiledSim::load_or_compile(m, &m.default_config(), &cache)
            .map_err(|e| format!("storing {}: {e}", m.label()))?;
    }
    Ok(cache)
}

/// Runs rounds `0, 1, ...` until at least `min_rounds` have run and
/// `seconds` have passed.
fn drive(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut r = 0;
    while r < min_rounds || start.elapsed().as_secs_f64() < seconds {
        round(r)?;
        r += 1;
    }
    Ok(())
}

/// Runs the timed rounds for `cfg.seconds`. Untraced, every round after
/// the warm-up feeds the returned log. Traced, rounds after the warm-up
/// alternate in pairs between traced (logged) and untraced, so the
/// returned tracing overhead — mean traced ÷ mean untraced round wall
/// time, minus 1 — compares rounds run under the same host conditions.
fn measure(
    b: &mut Bench,
    cfg: &Config,
    mut round: impl FnMut(&mut Bench, usize, &mut Log) -> Result<(), String>,
) -> Result<(Log, f64), String> {
    let mut log = Log::default();
    if !cfg.trace {
        drive(cfg.seconds, 2, |r| round(b, r, &mut log))?;
        return Ok((log, 0.0));
    }
    let mut untraced = Log::default();
    // (rounds, wall seconds) of [untraced, traced] rounds after warm-up.
    let mut walls = [(0u32, 0.0f64); 2];
    drive(cfg.seconds, 5, |r| {
        let on = r > 0 && ((r - 1) / 2).is_multiple_of(2);
        b.tracer.set_on(on);
        let t = Instant::now();
        round(b, r, if on { &mut log } else { &mut untraced })?;
        if r > 0 {
            let w = &mut walls[usize::from(on)];
            w.0 += 1;
            w.1 += t.elapsed().as_secs_f64();
        }
        Ok(())
    })?;
    b.tracer.set_on(true);
    let mean = |(n, s): (u32, f64)| s / f64::from(n);
    Ok((log, mean(walls[1]) / mean(walls[0]) - 1.0))
}

/// One round of the in-process schedule: every (program, model) pair,
/// generated simulator against SimpleScalar-Arm, with a Functional-ISS
/// run next to each RCPN-StrongArm run.
fn paired_round(
    b: &mut Bench,
    sims: &[CompiledSim],
    subjects: &[Subject],
    round: usize,
    log: &mut Log,
) {
    for (pi, s) in subjects.iter().enumerate() {
        for (mi, sim) in sims.iter().enumerate() {
            let job = b.job_id();
            let with_iss = sim.model() == ProcModel::StrongArm;
            let (rc, ss, iss) = if (round + pi + mi).is_multiple_of(2) {
                let rc = run_rcpn(b, sim, s, job);
                let iss = with_iss.then(|| run_iss(b, s, job));
                (rc, run_ss(b, s, job), iss)
            } else {
                let ss = run_ss(b, s, job);
                let iss = with_iss.then(|| run_iss(b, s, job));
                (run_rcpn(b, sim, s, job), ss, iss)
            };
            if round == 0 {
                continue;
            }
            let ss_speed = ss.cycles as f64 / ss.run_s;
            log.speedups[mi].push(rc.result.cycles as f64 / rc.run_s / ss_speed);
            log.rcpn(mi, &rc);
            log.ss(&ss);
            if let Some(iss) = iss {
                log.iss(&iss, &rc);
            }
        }
    }
}

fn run_in_process(
    b: &mut Bench,
    cfg: &Config,
    subjects: &[Subject],
    sims: &[CompiledSim],
    compile_s: &[Vec<f64>; 3],
    cache: &ArtifactCache,
) -> Result<Vec<Metric>, String> {
    let setup: Vec<f64> = (0..COMPILE_REPS).map(|i| compile_s.iter().map(|s| s[i]).sum()).collect();
    rss::reset_peak();
    let (log, overhead) = measure(b, cfg, |b, r, log| {
        paired_round(b, sims, subjects, r, log);
        Ok(())
    })?;
    if !cfg.trace {
        return Ok(end_to_end(&log, &setup));
    }
    let replays = replay(b, subjects, cache)?;
    let rounds = 1 + MIN_SERVED.div_ceil(subjects.len() * sims.len());
    let (_, served) = with_server(b, cache.dir(), |b, conn| {
        let mut log = Log::default();
        drive(0.0, rounds, |r| serve_round(b, conn, sims, subjects, r, &mut log, false))?;
        Ok(log)
    })?;
    Ok(layer_metrics(&log, &served, &replays, compile_s, overhead))
}

fn run_served(
    b: &mut Bench,
    cfg: &Config,
    subjects: &[Subject],
    sims: &[CompiledSim],
    compile_s: &[Vec<f64>; 3],
    cache: &ArtifactCache,
) -> Result<Vec<Metric>, String> {
    let mut setup = Vec::new();
    for _ in 1..BIND_REPS {
        setup.push(with_server(b, cache.dir(), |_, _| Ok(()))?.0);
    }
    let (last, (log, overhead)) = with_server(b, cache.dir(), |b, conn| {
        rss::reset_peak();
        measure(b, cfg, |b, r, log| serve_round(b, conn, sims, subjects, r, log, true))
    })?;
    setup.push(last);
    if !cfg.trace {
        return Ok(end_to_end(&log, &setup));
    }
    let replays = replay(b, subjects, cache)?;
    Ok(layer_metrics(&log, &log, &replays, compile_s, overhead))
}

fn print_timing(name: &str, samples: &[f64], scale: f64, unit: &str) {
    let s = summarize(samples);
    let p99 = s.p99.map_or_else(String::new, |p| format!(" p99 {:.4}", p * scale));
    println!(
        "  {name:<34} median {:.4} {unit} [q1 {:.4}, q3 {:.4}]{p99} n={}",
        s.median * scale,
        s.q1 * scale,
        s.q3 * scale,
        s.n
    );
}

fn end_to_end(log: &Log, setup: &[f64]) -> Vec<Metric> {
    println!("timings (median [quartiles], sample count):");
    for (i, &m) in ProcModel::ALL.iter().enumerate() {
        print_timing(&format!("{} pair ratio", m.figure_name()), &log.speedups[i], 1.0, "x");
    }
    print_timing("setup", setup, 1e3, "ms");
    if !log.latency_s.is_empty() {
        print_timing("served latency", &log.latency_s, 1e3, "ms");
    }
    let mut out: Vec<Metric> = ProcModel::ALL
        .iter()
        .enumerate()
        .map(|(i, &m)| metric(speedup_metric(m), geomean(&log.speedups[i]), "x"))
        .collect();
    out.push(metric("setup_s", median(setup), "s"));
    out.push(metric("peak_rss_mb", rss::peak_mb(), "MiB"));
    out
}

/// Replay-derived unit costs of the traced run.
#[derive(Debug, Clone, Default)]
struct Replays {
    /// `Cache::access` ns per access over the runs' address streams.
    cache_ns: f64,
    /// `arm_isa::decode::decode` ns per executed word.
    isa_decode_ns: f64,
    /// `processors::armtok::decode_word` ns per executed word.
    decode_word_ns: f64,
    /// Per model: median `CompiledSim::load` ms.
    artifact_ms: [f64; 3],
    /// Per model: artifact file bytes.
    artifact_bytes: [f64; 3],
}

/// The memsys, decode and artifact replays of the traced run.
fn replay(b: &mut Bench, subjects: &[Subject], cache: &ArtifactCache) -> Result<Replays, String> {
    let mut r = Replays::default();
    let (mut secs, mut accesses) = (0.0, 0usize);
    for s in subjects {
        let o = b.tracer.begin(span::CACHE, 0);
        let mut icache = Cache::new(CacheConfig::strongarm_16k());
        let mut dcache = Cache::new(CacheConfig::strongarm_16k());
        let mut lat = 0u64;
        for &(addr, fetch) in &s.stream {
            let c = if fetch { &mut icache } else { &mut dcache };
            lat += u64::from(c.access(black_box(addr)));
        }
        black_box(lat);
        secs += b.tracer.end(o);
        accesses += s.stream.len();
    }
    r.cache_ns = ratio(secs * 1e9, accesses as f64);

    let words: usize = subjects.iter().map(|s| s.code.len()).sum::<usize>() * DECODE_REPS;
    let (mut isa_s, mut word_s) = (0.0, 0.0);
    for s in subjects {
        let o = b.tracer.begin(span::DECODE, 0);
        for _ in 0..DECODE_REPS {
            for &(_, w) in &s.code {
                black_box(decode(black_box(w)));
            }
        }
        isa_s += b.tracer.end(o);
        let o = b.tracer.begin(span::DECODE_WORD, 0);
        for _ in 0..DECODE_REPS {
            for &(pc, w) in &s.code {
                black_box(decode_word(black_box(w), pc));
            }
        }
        word_s += b.tracer.end(o);
    }
    r.isa_decode_ns = ratio(isa_s * 1e9, words as f64);
    r.decode_word_ns = ratio(word_s * 1e9, words as f64);

    for (i, m) in ProcModel::ALL.into_iter().enumerate() {
        let cfg = m.default_config();
        let path = cache.entry_path(m.spec_hash(&cfg), &cfg.engine);
        r.artifact_bytes[i] = std::fs::metadata(&path).map_or(0.0, |md| md.len() as f64);
        let mut ms = Vec::new();
        for _ in 0..ARTIFACT_REPS {
            let o = b.tracer.begin(span::ARTIFACT_LOAD, 0);
            let loaded = CompiledSim::load(m, &cfg, &path);
            ms.push(b.tracer.end(o) * 1e3);
            loaded.map_err(|e| format!("loading {}: {e}", path.display()))?;
        }
        r.artifact_ms[i] = median(&ms);
    }
    Ok(r)
}

fn layer_metrics(
    log: &Log,
    served: &Log,
    r: &Replays,
    compile_s: &[Vec<f64>; 3],
    overhead: f64,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let iss_ns = ratio(log.iss.1 * 1e9, log.iss.0 as f64);
    for (i, model) in ProcModel::ALL.into_iter().enumerate() {
        let l = model.label();
        let c = &log.engine[i];
        let sc = &c.sched;
        let run_ns = log.engine_s[i] * 1e9;
        let cycles = c.cycles as f64;
        let ns_per_cycle = ratio(run_ns, cycles);
        let accesses = (c.icache.0 + c.icache.1 + c.dcache.0 + c.dcache.1) as f64;
        let mem_ns = accesses * r.cache_ns;
        let dec_ns = c.decode.1 as f64 * r.decode_word_ns;
        let sem_ns = c.instrs as f64 * iss_ns;
        let e = |name: &str| format!("engine.{l}.{name}");
        out.extend([
            metric(e("ns_per_cycle"), ns_per_cycle, "ns"),
            metric(e("mcps"), ratio(cycles, log.engine_s[i] * 1e6), "Mcycles/s"),
            metric(e("place_visits_per_cycle"), ratio(sc.place_visits as f64, cycles), "1/cycle"),
            metric(e("token_visits_per_cycle"), ratio(sc.token_visits as f64, cycles), "1/cycle"),
            metric(e("trans_visits_per_cycle"), ratio(sc.trans_visits as f64, cycles), "1/cycle"),
            metric(e("fire_yield"), ratio(c.fires as f64, sc.trans_visits as f64), "fires/visit"),
            metric(e("place_skip_ratio"), sc.place_skip_ratio(), "fraction"),
            metric(
                e("superblock_share"),
                ratio(sc.superblocks_entered as f64, c.fires as f64),
                "fraction",
            ),
            metric(
                e("chain_hit_ratio"),
                ratio(sc.chain_links_fired as f64, sc.chains_entered as f64),
                "links/chain",
            ),
            metric(
                e("guard_fail_ratio"),
                ratio(c.guard_fails as f64, sc.guard_evals() as f64),
                "fraction",
            ),
            metric(e("stall_ratio"), ratio(c.stalls as f64, cycles), "1/cycle"),
            metric(
                e("residual_ns_per_cycle"),
                ns_per_cycle - ratio(mem_ns + dec_ns + sem_ns, cycles),
                "ns",
            ),
            metric(e("cpi"), ratio(cycles, c.instrs as f64), "cycles/instr"),
        ]);
        let p = |name: &str| format!("processors.{l}.{name}");
        out.extend([
            metric(p("instantiate_us"), median(&log.instantiate_s[i]) * 1e6, "us"),
            metric(
                p("decode_hit_ratio"),
                ratio(c.decode.0 as f64, (c.decode.0 + c.decode.1) as f64),
                "fraction",
            ),
            metric(p("decode_est_share"), ratio(dec_ns, run_ns), "fraction"),
            metric(p("semantics_est_share"), ratio(sem_ns, run_ns), "fraction"),
            metric(
                p("squashes_per_kinstr"),
                ratio(c.squashes as f64 * 1e3, c.instrs as f64),
                "1/kinstr",
            ),
        ]);
        let miss = |(hits, misses): (u64, u64)| ratio(misses as f64, (hits + misses) as f64);
        out.extend([
            metric(format!("memsys.{l}.dcache_miss_ratio"), miss(c.dcache), "fraction"),
            metric(format!("memsys.{l}.icache_miss_ratio"), miss(c.icache), "fraction"),
            metric(format!("memsys.{l}.est_share"), ratio(mem_ns, run_ns), "fraction"),
        ]);
        if model == ProcModel::XScale {
            out.push(metric("memsys.xscale.btb_mispredict_ratio", miss(c.btb), "fraction"));
        }
        out.push(metric(format!("compile.{l}.ms"), median(&compile_s[i]) * 1e3, "ms"));
        out.push(metric(format!("artifact.{l}.decode_ms"), r.artifact_ms[i], "ms"));
        out.push(metric(format!("artifact.{l}.bytes"), r.artifact_bytes[i], "bytes"));
    }
    out.extend([
        metric("memsys.cache_ns_per_access", r.cache_ns, "ns"),
        metric("isa.iss_mips", ratio(log.iss.0 as f64, log.iss.1 * 1e6), "MIPS"),
        metric("isa.iss_ns_per_instr", iss_ns, "ns"),
        metric("isa.decode_ns_per_word", r.isa_decode_ns, "ns"),
        metric("isa.strongarm_iss_fraction", geomean(&log.iss_fraction), "x"),
        metric("baseline.ns_per_cycle", ratio(log.ss.2 * 1e9, log.ss.0 as f64), "ns"),
        metric("baseline.mcps", ratio(log.ss.0 as f64, log.ss.2 * 1e6), "Mcycles/s"),
        metric("baseline.cpi", ratio(log.ss.0 as f64, log.ss.1 as f64), "cycles/instr"),
    ]);
    let (tail_pct, tail_s) = tail(&served.latency_s);
    out.extend([
        metric("serve.latency_p50_ms", median(&served.latency_s) * 1e3, "ms"),
        metric("serve.latency_tail_ms", tail_s * 1e3, "ms"),
        metric("serve.latency_tail_pct", tail_pct, "%"),
        metric("serve.latency_samples", served.latency_s.len() as f64, "count"),
        metric("serve.overhead_p50_us", median(&served.overhead_s) * 1e6, "us"),
        metric("serve.encode_submit_us", median(&served.encode_s) * 1e6, "us"),
        metric("serve.decode_jobdone_us", median(&served.decode_s) * 1e6, "us"),
        metric("serve.jobdone_bytes", median(&served.jobdone_bytes), "bytes"),
        metric("serve.busy_replies", served.busy as f64, "count"),
        metric("trace.overhead_frac", overhead, "fraction"),
    ]);
    println!("timings (median [quartiles], sample count):");
    print_timing("served latency", &served.latency_s, 1e3, "ms");
    print_timing("served overhead", &served.overhead_s, 1e6, "us");
    print_timing("StrongArm/ISS pair ratio", &log.iss_fraction, 1.0, "x");
    out
}

/// Starts an `rcpn-serve` over the artifact cache at `dir`, runs `f` on a
/// connection to it once it has answered `Hello`, and shuts it down.
/// Returns the seconds spent in `Server::bind` (artifact loads and model
/// warm-up) and `f`'s result.
fn with_server<T>(
    b: &mut Bench,
    dir: &Path,
    f: impl FnOnce(&mut Bench, &mut TcpStream) -> Result<T, String>,
) -> Result<(f64, T), String> {
    let o = b.tracer.begin(span::BIND, 0);
    let server =
        Server::bind(ServeConfig { cache_dir: Some(dir.to_path_buf()), ..Default::default() });
    let bind_s = b.tracer.end(o);
    let server = server.map_err(|e| format!("Server::bind: {e}"))?;
    let addr = server.local_addr();
    // Connect and send Hello before the accept loop starts: the kernel
    // completes the handshake on the bound listener, so the first accept
    // finds the request waiting instead of sleeping out a poll interval.
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = conn.set_nodelay(true);
    write_request(&mut conn, &Request::Hello).map_err(|e| format!("Hello: {e}"))?;
    std::thread::scope(|scope| {
        let server = scope.spawn(move || server.run());
        let out = match read_reply(&mut conn) {
            Ok(Reply::ServerInfo { .. }) => f(b, &mut conn).map(|v| (bind_s, v)),
            other => Err(format!("Hello answered with {other:?}")),
        };
        drop(conn);
        let stopped = stop(addr);
        match server.join() {
            Ok(Ok(())) => stopped.and(out),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    })
}

/// Asks the server at `addr` to shut down, on a connection of its own.
fn stop(addr: SocketAddr) -> Result<(), String> {
    let mut c = TcpStream::connect(addr).map_err(|e| format!("shutdown connect: {e}"))?;
    write_request(&mut c, &Request::Shutdown).map_err(|e| format!("Shutdown: {e}"))?;
    loop {
        match read_reply(&mut c) {
            Ok(Reply::ShuttingDown) => return Ok(()),
            Ok(_) => continue,
            Err(e) => return Err(format!("Shutdown reply: {e}")),
        }
    }
}

/// What the server answered to one submission.
enum Answer {
    Done { outcome: Box<JobOutcome>, encode_s: f64, decode_s: f64, bytes: usize },
    Busy,
    Failed(String),
}

/// Submits `s` to `model` and waits for its result, one job outstanding.
fn exchange(
    b: &mut Bench,
    conn: &mut TcpStream,
    model: ProcModel,
    s: &Subject,
    job: u64,
) -> Result<Answer, String> {
    let wire = |e: rcpn_serve::protocol::WireError| format!("wire: {e}");
    let o = b.tracer.begin(span::ENCODE, job);
    let frame = encode_request(&Request::Submit(JobSpec::for_program(
        job,
        model.label(),
        &s.program,
        MAX_CYCLES,
    )));
    let encode_s = b.tracer.end(o);
    write_frame(conn, &frame).map_err(wire)?;
    loop {
        let bytes = read_frame(conn).map_err(wire)?;
        let o = b.tracer.begin(span::DECODE_REPLY, job);
        let reply = decode_reply(&bytes);
        let decode_s = b.tracer.end(o);
        match reply.map_err(wire)? {
            Reply::Accepted { job_id } if job_id == job => continue,
            Reply::JobDone { job_id, outcome } if job_id == job => {
                return Ok(Answer::Done { outcome, encode_s, decode_s, bytes: bytes.len() + 4 })
            }
            Reply::Busy { job_id } if job_id == job => return Ok(Answer::Busy),
            Reply::JobFailed { job_id, error } if job_id == job => {
                return Ok(Answer::Failed(error))
            }
            other => return Err(format!("unexpected reply to job {job}: {other:?}")),
        }
    }
}

/// One round of the served schedule: every (program, model) pair as a
/// served job, followed by the in-process run of the same job (the
/// bit-identity check and the overhead baseline) and, with `with_ss`, a
/// SimpleScalar-Arm run whose side alternates by round.
#[allow(clippy::too_many_arguments)]
fn serve_round(
    b: &mut Bench,
    conn: &mut TcpStream,
    sims: &[CompiledSim],
    subjects: &[Subject],
    round: usize,
    log: &mut Log,
    with_ss: bool,
) -> Result<(), String> {
    for (pi, s) in subjects.iter().enumerate() {
        for (mi, sim) in sims.iter().enumerate() {
            let job = b.job_id();
            let ss_first = with_ss && (round + pi + mi) % 2 == 1;
            let ss_before = ss_first.then(|| run_ss(b, s, job));
            let o = b.tracer.begin(span::JOB, job);
            let answer = exchange(b, conn, sim.model(), s, job);
            let latency_s = b.tracer.end(o);
            let answer = answer?;
            let ss = if with_ss && !ss_first { Some(run_ss(b, s, job)) } else { ss_before };
            let twin = run_rcpn(b, sim, s, job);
            let iss = (sim.model() == ProcModel::StrongArm).then(|| run_iss(b, s, job));

            let label = format!("served {}", sim.model().figure_name());
            let keep = round > 0;
            match answer {
                Answer::Done { outcome, encode_s, decode_s, bytes } => {
                    let mut problems = exit_problems(outcome.result.exit, s.expected);
                    let digest = rcpn_digest(&outcome.result, &outcome.stats);
                    if digest != twin.digest || outcome.sched != twin.counters.sched {
                        problems.push("served result differs from the in-process run".to_string());
                    }
                    b.finish(&label, &s.name, Some(digest), problems);
                    if keep {
                        log.latency_s.push(latency_s);
                        log.overhead_s.push(latency_s - twin.instantiate_s - twin.run_s);
                        log.encode_s.push(encode_s);
                        log.decode_s.push(decode_s);
                        log.jobdone_bytes.push(bytes as f64);
                        if let Some(ss) = &ss {
                            let ss_speed = ss.cycles as f64 / (ss.new_s + ss.run_s);
                            log.speedups[mi]
                                .push(outcome.result.cycles as f64 / latency_s / ss_speed);
                        }
                    }
                }
                Answer::Busy => {
                    log.busy += 1;
                    b.finish(&label, &s.name, None, vec!["Busy".to_string()]);
                }
                Answer::Failed(e) => {
                    b.finish(&label, &s.name, None, vec![format!("JobFailed: {e}")])
                }
            }
            if keep {
                log.rcpn(mi, &twin);
                if let Some(ss) = &ss {
                    log.ss(ss);
                }
                if let Some(iss) = &iss {
                    log.iss(iss, &twin);
                }
            }
        }
    }
    Ok(())
}
