//! Runs a real ELF binary on the generated cycle-accurate simulators.
//!
//! ```text
//! rcpn-run FILE.elf                          # all registry models
//! rcpn-run FILE.elf --model xscale           # one model
//! rcpn-run FILE.elf --cache .rcpn-cache      # reload compiled models from disk
//! rcpn-run FILE.elf --expect 55edf412        # exit checksum gate (exit 1 on mismatch)
//! rcpn-run FILE.elf --input data.bin         # bytes served to `swi #4` (GETC)
//! rcpn-run FILE.elf --max-cycles 100000000   # cycle budget (default 1e9)
//! ```
//!
//! The image goes through [`rcpn_loader::load_elf`] — same loader, same
//! derived memory layout as every harness — and each selected
//! [`ProcModel`] registry variant runs it to completion, printing the
//! architectural result, the engine [`Stats`](rcpn::stats::Stats) and the
//! scheduler [`SchedStats`](rcpn::stats::SchedStats). With `--cache`,
//! compiled models come from the artifact
//! cache, so repeat runs lower no spec.

use std::process::ExitCode;

use processors::sim::{CompiledSim, ProcModel};
use rcpn::artifact::ArtifactCache;
use rcpn_loader::{load_elf, LoadedImage};

struct Args {
    file: String,
    model: Option<String>,
    cache: Option<String>,
    input: Option<String>,
    expect: Option<u32>,
    max_cycles: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rcpn-run FILE.elf [--model LABEL|all] [--cache DIR] \
         [--input FILE] [--expect HEX] [--max-cycles N]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        file: String::new(),
        model: None,
        cache: None,
        input: None,
        expect: None,
        max_cycles: 1_000_000_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => args.model = Some(it.next().ok_or_else(usage)?),
            "--cache" => args.cache = Some(it.next().ok_or_else(usage)?),
            "--input" => args.input = Some(it.next().ok_or_else(usage)?),
            "--expect" => {
                let hex = it.next().ok_or_else(usage)?;
                let v = u32::from_str_radix(hex.trim_start_matches("0x"), 16).map_err(|e| {
                    eprintln!("rcpn-run: --expect {hex:?} is not a hex word: {e}");
                    ExitCode::from(2)
                })?;
                args.expect = Some(v);
            }
            "--max-cycles" => {
                let n = it.next().ok_or_else(usage)?;
                args.max_cycles = n.parse().map_err(|e| {
                    eprintln!("rcpn-run: --max-cycles {n:?}: {e}");
                    ExitCode::from(2)
                })?;
            }
            "--help" | "-h" => return Err(usage()),
            other if args.file.is_empty() && !other.starts_with('-') => args.file = other.into(),
            other => {
                eprintln!("rcpn-run: unexpected argument {other:?}");
                return Err(usage());
            }
        }
    }
    if args.file.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

fn select_models(arg: Option<&str>) -> Result<Vec<ProcModel>, ExitCode> {
    match arg {
        None | Some("all") => Ok(ProcModel::ALL.to_vec()),
        Some(label) => match ProcModel::ALL.into_iter().find(|m| m.label() == label) {
            Some(m) => Ok(vec![m]),
            None => {
                let known: Vec<&str> = ProcModel::ALL.iter().map(|m| m.label()).collect();
                eprintln!("rcpn-run: unknown model {label:?}; known: {}", known.join(", "));
                Err(ExitCode::from(2))
            }
        },
    }
}

fn describe(image: &LoadedImage) {
    let p = &image.program;
    println!(
        "image: base {:#x}  entry {:#x}  {} bytes  {} labels",
        p.base,
        p.entry,
        p.size_bytes(),
        p.labels.len()
    );
    for (i, s) in image.segments.iter().enumerate() {
        let perm = |bit: u32, c: char| if s.flags & bit != 0 { c } else { '-' };
        println!(
            "  PT_LOAD[{i}] vaddr {:#x} filesz {} memsz {} {}{}{}",
            s.vaddr,
            s.filesz,
            s.memsz,
            perm(rcpn_loader::elf::PF_R, 'r'),
            perm(rcpn_loader::elf::PF_W, 'w'),
            perm(rcpn_loader::elf::PF_X, 'x'),
        );
    }
    println!(
        "layout: mem {} KiB  stack top {:#x} (derived from the image)",
        image.layout.mem_bytes / 1024,
        image.layout.stack_top
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let bytes = match std::fs::read(&args.file) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("rcpn-run: {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let image = match load_elf(&bytes) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("rcpn-run: {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    describe(&image);
    let input = match &args.input {
        Some(path) => match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("rcpn-run: {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Vec::new(),
    };
    let models = match select_models(args.model.as_deref()) {
        Ok(m) => m,
        Err(code) => return code,
    };
    let cache = match &args.cache {
        Some(dir) => match ArtifactCache::open(dir) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("rcpn-run: cache {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let mut failed = false;
    for model in models {
        let config = model.default_config();
        let compiled = match &cache {
            Some(c) => match CompiledSim::load_or_compile(model, &config, c) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("rcpn-run: {}: {e}", model.label());
                    failed = true;
                    continue;
                }
            },
            None => CompiledSim::new(model, &config),
        };
        let mut sim = compiled.instantiate_image(&image);
        if !input.is_empty() {
            sim.set_input(input.clone());
        }
        let result = sim.run(args.max_cycles);
        let stats = sim.engine.stats();
        let sched = sim.sched();
        println!("--- {} ---", model.figure_name());
        match (&result.fault, result.exit) {
            (Some(fault), _) => {
                println!("FAULT: {fault}");
                failed = true;
            }
            (None, Some(exit)) => {
                println!(
                    "exit {exit:#010x}  cycles {}  instrs {}  cpi {:.3}",
                    result.cycles,
                    result.instrs,
                    result.cpi()
                );
                if let Some(want) = args.expect {
                    if exit == want {
                        println!("checksum matches --expect {want:#010x}");
                    } else {
                        println!("CHECKSUM MISMATCH: expected {want:#010x}, got {exit:#010x}");
                        failed = true;
                    }
                }
            }
            (None, None) => {
                println!("NO EXIT within {} cycles", args.max_cycles);
                failed = true;
            }
        }
        if !sim.output().is_empty() {
            println!("output: {} bytes", sim.output().len());
        }
        if sim.unknown_swis() > 0 {
            println!(
                "warning: {} system call(s) hit no implementation (unknown SWI) — \
                 results may be incomplete",
                sim.unknown_swis()
            );
        }
        println!(
            "stats: retired {}  flushed {}  stalls {}  guard-fails {}",
            stats.retired, stats.flushed, stats.stalls, stats.guard_fails
        );
        println!(
            "sched: place visits {} skips {}  superblocks {}  ops inlined {}",
            sched.place_visits, sched.place_skips, sched.superblocks_entered, sched.ops_inlined
        );
    }
    if let Some(c) = &cache {
        println!(
            "cache: {} hit(s), {} miss(es), {} bypass(es)",
            c.hits(),
            c.misses(),
            c.bypasses()
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
