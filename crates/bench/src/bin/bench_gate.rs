//! CI bench-regression gate: a short fig10 run compared against the
//! committed `BENCH_fig10.json` baseline.
//!
//! ```text
//! cargo run --release -p rcpn-bench --bin bench_gate -- \
//!     --baseline BENCH_fig10.json --out bench_fig10_fresh.json \
//!     --tolerance 0.35 --normalize
//! ```
//!
//! Measures every (simulator × kernel) pair of the fig10 matrix at a
//! reduced workload size, writes the fresh measurements as JSON lines in
//! the same house format as the baseline, and **fails (exit 1)** if any
//! pair regresses more than `--tolerance` against the baseline.
//!
//! Two comparison modes:
//!
//! * absolute (default): fresh cycles/sec vs the baseline's recorded
//!   cycles/sec. Meaningful when the two runs share hardware (a developer
//!   re-running on the reference machine).
//! * `--normalize` (what CI uses): each side's rates are first divided by
//!   its own SimpleScalar-Arm average from the *same* record, so the gate
//!   compares the RCPN engines' speed *relative to the interpretive
//!   baseline built from the same tree*. This cancels host-speed
//!   differences between the CI runner and the machine that recorded the
//!   baseline. The blind spot is deliberate and documented: a slowdown
//!   hitting the RCPN engines and SimpleScalar equally (shared `isa`/`mem`
//!   code, global codegen flags) normalizes away — the gate targets the
//!   RCPN hot loop, which SimpleScalar does not share.
//!
//! What the tolerance can and cannot catch: at 35% the gate trips on
//! gross hot-loop regressions — an accidental `two_list_everywhere`-style
//! fixpoint on the default path, a debug-assert left in release, a
//! per-token allocation. It can **not** detect the activity scheduler
//! silently degenerating into the exhaustive sweep (that delta is only a
//! few percent on these saturated kernels); the `place_skips > 0`
//! assertions in the test suite and the per-row skip counters in
//! `BENCH_sweep.json` are the detectors for that.
//!
//! Exit codes: 0 ok, 1 regression, 2 usage/IO/coverage error. Benches
//! missing from the baseline are reported un-gated, but if more than half
//! of the measured rows have no baseline entry the gate refuses to pass
//! (exit 2) — a silently shrunken gate is worse than a failing one. A
//! baseline fig10 row the matrix no longer measures is refused the same
//! way, before anything is measured: left in place it would sit in the
//! record forever, looking gated while gating nothing. The
//! record format written here must stay parseable by [`baseline_cps`];
//! the same format is produced by the vendored criterion shim's
//! `CRITERION_JSON` writer (`vendor/criterion/src/lib.rs`), which is what
//! generates the committed baseline.

use rcpn_bench::{compiled_sim, measure, measure_compiled, Measurement, Simulator};
use workloads::{Kernel, Workload};

/// The fig10 dispatch-ablation rows (superblock default vs per-op vs
/// closure interpreters). These measure the dispatch refactors, so —
/// unlike ordinary rows, which degrade to "not gated" when missing from
/// the baseline — losing *their* baseline coverage is a hard error.
const DISPATCH_ORACLES: [&str; 2] = ["RCPN-StrongArm-Closure/", "RCPN-StrongArm-PerOp/"];

/// One measured (simulator, kernel) pair.
struct Row {
    bench: String,
    cycles: u64,
    mean_ns: u128,
    min_ns: u128,
    samples: usize,
    /// Cycles per host second, from the best (minimum-time) sample.
    cps: f64,
}

fn main() {
    let mut baseline_path = "BENCH_fig10.json".to_string();
    let mut out_path: Option<String> = Some("bench_fig10_fresh.json".to_string());
    let mut tolerance = 0.35f64;
    let mut scale_div = 40usize;
    let mut samples = 3usize;
    let mut normalize = false;
    let mut history_path: Option<String> = Some("BENCH_history.jsonl".to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{a} needs {what}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--baseline" => baseline_path = next("a path").clone(),
            "--out" => out_path = Some(next("a path").clone()),
            "--no-out" => out_path = None,
            "--history" => history_path = Some(next("a path").clone()),
            "--no-history" => history_path = None,
            "--normalize" => normalize = true,
            "--tolerance" => {
                tolerance = next("a fraction").parse().unwrap_or_else(|_| {
                    eprintln!("--tolerance needs a number like 0.35");
                    std::process::exit(2);
                })
            }
            "--scale-div" => {
                scale_div = next("a divisor").parse().unwrap_or_else(|_| {
                    eprintln!("--scale-div needs an integer");
                    std::process::exit(2);
                })
            }
            "--samples" => {
                samples = next("a count").parse().unwrap_or_else(|_| {
                    eprintln!("--samples needs an integer");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; try --baseline PATH | --out PATH | --no-out | \
                     --history PATH | --no-history | --normalize | --tolerance F | \
                     --scale-div N | --samples N"
                );
                std::process::exit(2);
            }
        }
    }
    let samples = samples.max(1);

    let baseline = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {baseline_path}: {e}");
        std::process::exit(2);
    });

    let matrix: Vec<String> = Kernel::ALL
        .into_iter()
        .flat_map(|k| Simulator::FIG10.into_iter().map(move |sim| bench_name(sim, k)))
        .collect();
    let stale: Vec<&str> =
        baseline_benches(&baseline).filter(|b| !matrix.iter().any(|m| m == b)).collect();
    if !stale.is_empty() {
        eprintln!(
            "{} fig10 row(s) in {baseline_path} are not in the fig10 matrix: {} — delete them \
             from the baseline; refusing to pass",
            stale.len(),
            stale.join(", ")
        );
        std::process::exit(2);
    }

    let rows = run_matrix(scale_div, samples);

    if let Some(path) = &out_path {
        let mut out = String::new();
        for r in &rows {
            let mean_cps = r.cycles as f64 / (r.mean_ns as f64 / 1e9);
            out.push_str(&format!(
                "{{\"group\":\"fig10\",\"bench\":\"{}\",\"mean_ns\":{},\"min_ns\":{},\
                 \"samples\":{},\"throughput\":\"elements\",\"throughput_per_iter\":{},\
                 \"per_sec_mean\":{mean_cps:.1},\"per_sec_best\":{:.1}}}\n",
                r.bench, r.mean_ns, r.min_ns, r.samples, r.cycles, r.cps,
            ));
        }
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("fresh measurements recorded in {path}");
    }

    // Reference rates for --normalize: each side's SimpleScalar-Arm
    // average over the kernels both sides actually have.
    let ss_name = Simulator::Baseline.name();
    let (fresh_ref, base_ref) = if normalize {
        let mut f = Vec::new();
        let mut b = Vec::new();
        for r in rows.iter().filter(|r| r.bench.starts_with(ss_name)) {
            if let Some(base) = baseline_cps(&baseline, &r.bench) {
                f.push(r.cps);
                b.push(base);
            }
        }
        if f.is_empty() {
            // Fail closed: an explicitly requested normalization that
            // cannot normalize would silently degrade into a cross-host
            // absolute comparison — the exact failure mode --normalize
            // exists to prevent.
            eprintln!(
                "--normalize needs {ss_name} rows in both the fresh run and {baseline_path}, \
                 and found none in common — refusing to gate un-normalized"
            );
            std::process::exit(2);
        } else {
            (f.iter().sum::<f64>() / f.len() as f64, b.iter().sum::<f64>() / b.len() as f64)
        }
    } else {
        (1.0, 1.0)
    };

    let mut regressions = 0usize;
    let mut compared = 0usize;
    let mut ungated_dispatch: Vec<&str> = Vec::new();
    println!(
        "{:<38}{:>14}{:>14}{:>9}  gate (tolerance {:.0}%{})",
        "bench",
        "baseline c/s",
        "fresh c/s",
        "ratio",
        tolerance * 100.0,
        if normalize { ", normalized to SimpleScalar-Arm" } else { "" },
    );
    for r in &rows {
        let Some(base_cps) = baseline_cps(&baseline, &r.bench) else {
            if DISPATCH_ORACLES.iter().any(|n| r.bench.starts_with(n)) {
                ungated_dispatch.push(&r.bench);
            }
            println!(
                "{:<38}{:>14}{:>14.0}{:>9}  (no baseline entry — not gated)",
                r.bench, "-", r.cps, "-"
            );
            continue;
        };
        compared += 1;
        // Under --normalize both sides are scaled by their own
        // SimpleScalar reference, so `ratio` reads "relative speed vs
        // relative speed" and host throughput cancels.
        let ratio = (r.cps / fresh_ref) / (base_cps / base_ref);
        let fail = ratio < 1.0 - tolerance;
        if fail {
            regressions += 1;
        }
        println!(
            "{:<38}{:>14.0}{:>14.0}{:>8.2}x  {}",
            r.bench,
            base_cps,
            r.cps,
            ratio,
            if fail { "REGRESSION" } else { "ok" }
        );
    }
    if compared * 2 < rows.len() {
        eprintln!(
            "only {compared}/{} measured benches have baseline entries in {baseline_path} — \
             the gate's coverage has silently shrunk (format drift or stale baseline); \
             refusing to pass",
            rows.len()
        );
        std::process::exit(2);
    }
    if !ungated_dispatch.is_empty() {
        eprintln!(
            "dispatch-ablation rows lost baseline coverage in {baseline_path}: {} — \
             the superblock/per-op/closure comparison would go unmeasured; refusing to pass",
            ungated_dispatch.join(", ")
        );
        std::process::exit(2);
    }
    if regressions > 0 {
        eprintln!("{regressions} bench(es) regressed more than {:.0}%", tolerance * 100.0);
        std::process::exit(1);
    }
    if let Some(path) = &history_path {
        append_history(path, &rows);
    }
    println!("bench gate passed ({compared} benches within tolerance)");
}

/// Appends a one-line JSON record of a passing run — the UTC date, the
/// dispatch mode the default rows ran under, and each default
/// RCPN-StrongArm kernel's best cycles/sec — to `BENCH_history.jsonl`,
/// so perf drift across commits stays greppable without re-running old
/// trees. Best-effort: a failure to append warns but never fails the
/// gate.
fn append_history(path: &str, rows: &[Row]) {
    let prefix = format!("{}/", Simulator::RcpnStrongArm.name());
    let per: Vec<String> = rows
        .iter()
        .filter_map(|r| r.bench.strip_prefix(&prefix).map(|k| format!("\"{k}\":{:.1}", r.cps)))
        .collect();
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_date(secs);
    let line = format!(
        "{{\"date\":\"{y:04}-{m:02}-{d:02}\",\"dispatch\":\"superblocks\",\
         \"per_sec_best\":{{{}}}}}\n",
        per.join(",")
    );
    use std::io::Write;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    match appended {
        Ok(()) => println!("history appended to {path}"),
        Err(e) => eprintln!("warning: cannot append history to {path}: {e}"),
    }
}

/// Unix seconds to a (year, month, day) civil date — the workspace
/// vendors no date crate, so this is the standard days-from-epoch
/// conversion (Gregorian, era-based).
fn civil_date(secs: u64) -> (i64, u32, u32) {
    let z = (secs / 86_400) as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Measures the fig10 matrix ([`Simulator::FIG10`] × all six kernels) at
/// `bench_size / scale_div`, keeping the best of `samples` runs. Each
/// RCPN model is compiled once for the whole matrix (the compiled-model
/// seam); only simulation is ever timed.
fn run_matrix(scale_div: usize, samples: usize) -> Vec<Row> {
    let artifacts: Vec<_> = Simulator::FIG10.iter().map(|&sim| compiled_sim(sim)).collect();
    let mut rows = Vec::new();
    for kernel in Kernel::ALL {
        let size = (kernel.bench_size() / scale_div.max(1)).max(kernel.test_size());
        let w = Workload::build(kernel, size);
        for (sim, compiled) in Simulator::FIG10.into_iter().zip(&artifacts) {
            let run = || -> Measurement {
                match compiled {
                    Some(c) => measure_compiled(c, &w),
                    None => measure(sim, &w),
                }
            };
            let mut best: Option<Measurement> = None;
            let mut total_ns: u128 = 0;
            for _ in 0..samples {
                let m = run();
                total_ns += (m.seconds * 1e9) as u128;
                if best.is_none_or(|b| m.seconds < b.seconds) {
                    best = Some(m);
                }
            }
            let best = best.expect("samples >= 1");
            let min_ns = (best.seconds * 1e9) as u128;
            rows.push(Row {
                bench: bench_name(sim, kernel),
                cycles: best.cycles,
                mean_ns: total_ns / samples as u128,
                min_ns,
                samples,
                cps: best.cycles as f64 / best.seconds,
            });
        }
    }
    rows
}

/// The record name of one fig10 (simulator, kernel) pair.
fn bench_name(sim: Simulator, kernel: Kernel) -> String {
    format!("{}/{}", sim.name(), kernel.name())
}

/// The `"bench"` name of every fig10 row in a baseline record.
fn baseline_benches(baseline: &str) -> impl Iterator<Item = &str> {
    baseline.lines().filter(|l| l.contains("\"group\":\"fig10\"")).filter_map(|l| {
        let key = "\"bench\":\"";
        let rest = &l[l.find(key)? + key.len()..];
        Some(&rest[..rest.find('"')?])
    })
}

/// Extracts the cycles/sec rate for `bench` from the baseline's JSON
/// lines (house format; key-based hand-parsing — this workspace vendors
/// no serde, and looking fields up by key keeps reordering harmless).
/// Prefers `per_sec_best` (the min-time sample, robust to CI-runner
/// preemption outliers) and falls back to `per_sec_mean` for records
/// written before that field existed.
fn baseline_cps(baseline: &str, bench: &str) -> Option<f64> {
    let needle = format!("\"bench\":\"{bench}\"");
    let line =
        baseline.lines().find(|l| l.contains(&needle) && l.contains("\"group\":\"fig10\""))?;
    let field = |key: &str| -> Option<f64> {
        let start = line.find(key)? + key.len();
        let rest = &line[start..];
        let end = rest.find(['}', ','])?;
        rest[..end].trim().parse().ok()
    };
    field("\"per_sec_best\":").or_else(|| field("\"per_sec_mean\":"))
}
