//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints its report; the last line of standard
//! output is the JSON result (`correct`, `attempted`, `failed`,
//! `metrics`). Exit code 2 on bad arguments, 1 when the serving machinery
//! itself breaks.

use std::path::PathBuf;
use std::process::ExitCode;

use rcpn_perfbench::run::Bench;
use rcpn_perfbench::workload::{self, Config, Kind, Metric};

const USAGE: &str = "usage: perfbench --workload paper-kernels|pointer-chase|serve-short-jobs \
                     --seed N --seconds S --trace 0|1";

/// Where scratch files and span dumps go, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench-out";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Config {
        kind,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        scratch: PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id())),
    })
}

fn json(b: &Bench, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        b.failed == 0 && b.attempted > 0,
        b.attempted,
        b.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let cfg = match parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (host threads {threads})",
        cfg.kind.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let mut b = Bench::new(cfg.trace);
    let result = workload::run(&mut b, &cfg);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("digests of simulated results (cycles, instructions, Stats):");
    // Served results are checked equal to their in-process twins.
    for ((sim, program), d) in b.digests().iter().filter(|((sim, _), _)| !sim.starts_with("served"))
    {
        println!("  {sim:<28} {program:<10} {d:016x}");
    }
    for f in b.failures() {
        println!("FAILED {f}");
    }
    if cfg.trace {
        println!("layer self time (traced rounds and replays; spans from the benchmark's calls):");
        println!("  {:<16} {:>8} {:>12} {:>12}", "layer", "spans", "total ms", "self ms");
        for (layer, (n, total, own)) in b.tracer.self_times() {
            println!(
                "  {layer:<16} {n:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.tsv", cfg.kind.name(), cfg.seed));
        match b.tracer.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!("metrics:");
    for m in &metrics {
        println!("  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "attempted {} failed {} failed_frac {}",
        b.attempted,
        b.failed,
        b.failed as f64 / b.attempted.max(1) as f64
    );
    println!("{}", json(&b, &metrics));
    ExitCode::SUCCESS
}
