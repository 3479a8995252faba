//! Regenerates the paper's tables and figures on this machine.
//!
//! ```text
//! cargo run -p rcpn-bench --release --bin figures -- all
//! cargo run -p rcpn-bench --release --bin figures -- fig10 --scale 0.2
//! cargo run -p rcpn-bench --release --bin figures -- fig10 --cache .rcpn-cache
//! ```
//!
//! Subcommands: `fig10` (simulation performance), `fig11` (CPI), `fig2`
//! (RCPN vs CPN model size), `ablations` (Section 4 optimizations),
//! `effort` (Section 5 model statistics), `all`. With `--cache DIR`,
//! `fig10` loads each RCPN model from the artifact cache instead of
//! lowering its spec (compiling and storing on a first run).

use processors::sim::{CaSim, ProcModel};
use rcpn::artifact::ArtifactCache;
use rcpn_bench::{
    ablation_configs, average, compiled_sim_cached, measure, measure_ablation, measure_compiled,
    suite, Simulator,
};
use workloads::{Kernel, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut cache_dir: Option<String> = None;
    let mut cmds: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it.next().and_then(|s| s.parse().ok()).expect("--scale needs a number");
            }
            "--cache" => {
                cache_dir = Some(it.next().expect("--cache needs a directory").clone());
            }
            c => cmds.push(c.to_string()),
        }
    }
    if cmds.is_empty() {
        cmds.push("all".to_string());
    }
    let cache = cache_dir.map(|d| ArtifactCache::open(d).expect("open artifact cache"));
    for c in &cmds {
        match c.as_str() {
            "fig10" => fig10(scale, cache.as_ref()),
            "fig11" => fig11(scale),
            "fig2" => fig2(),
            "ablations" => ablations(scale),
            "effort" => effort(),
            "all" => {
                fig2();
                effort();
                fig11(scale);
                ablations(scale);
                fig10(scale, cache.as_ref());
            }
            other => {
                eprintln!("unknown figure {other:?}; try fig10|fig11|fig2|ablations|effort|all");
                std::process::exit(2);
            }
        }
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn bench_names() -> Vec<&'static str> {
    Kernel::ALL.iter().map(|k| k.name()).chain(["Average"]).collect()
}

fn print_table(rows: &[(&str, Vec<f64>)], prec: usize) {
    print!("{:<22}", "");
    for n in bench_names() {
        print!("{n:>10}");
    }
    println!();
    for (label, values) in rows {
        let mut values = values.clone();
        values.push(average(&values));
        print!("{label:<22}");
        for v in values {
            print!("{v:>10.prec$}");
        }
        println!();
    }
}

/// Figure 10: simulation performance (million simulated cycles per host
/// second) of the baseline and every RCPN-generated simulator. With a
/// cache, each RCPN simulator is compiled (or reloaded) once per process
/// and shared across the kernel columns.
fn fig10(scale: f64, cache: Option<&ArtifactCache>) {
    header("Figure 10 — Simulation performance (Mcycles/s)");
    println!("(workload scale {scale}; paper: SimpleScalar ~0.6, RCPN-XScale ~8.2, RCPN-StrongArm ~12.2 on a P4/1.8GHz)");
    let ws = suite(scale);
    let mut rows = Vec::new();
    for sim in Simulator::FIG10 {
        let cached =
            cache.and_then(|c| compiled_sim_cached(sim, c).expect("artifact cache reload"));
        let values: Vec<f64> = ws
            .iter()
            .map(|w| match &cached {
                Some(compiled) => measure_compiled(compiled, w).mcps(),
                None => measure(sim, w).mcps(),
            })
            .collect();
        rows.push((sim.name(), values));
    }
    if let Some(c) = cache {
        println!(
            "artifact cache {}: {} hits, {} misses, {} bypasses",
            c.dir().display(),
            c.hits(),
            c.misses(),
            c.bypasses(),
        );
    }
    print_table(&rows, 2);
    let avg_of = |name: &str| {
        let (_, values) = rows.iter().find(|(n, _)| *n == name).expect("fig10 row exists");
        average(values)
    };
    let base = avg_of(Simulator::Baseline.name());
    print!("speedup vs baseline: ");
    for proc in ProcModel::ALL {
        print!("  {} {:.1}x", proc.figure_name(), avg_of(proc.figure_name()) / base);
    }
    println!("   (paper: ~14x / ~20x, \"order of magnitude\")");
    let sa = avg_of(Simulator::RcpnStrongArm.name());
    let sa_exh = avg_of(Simulator::RcpnStrongArmExhaustive.name());
    println!("activity-driven scheduler vs exhaustive sweep (StrongARM): {:.2}x", sa / sa_exh);
}

/// Figure 11: CPI of the baseline vs the RCPN StrongARM simulator.
fn fig11(scale: f64) {
    header("Figure 11 — Cycles per instruction (CPI)");
    println!("(paper: SimpleScalar avg ~1.8, RCPN-StrongArm avg ~2.0, ~10% apart)");
    let ws = suite(scale);
    let mut rows = Vec::new();
    for sim in [Simulator::Baseline, Simulator::RcpnStrongArm] {
        let values: Vec<f64> = ws.iter().map(|w| measure(sim, w).cpi()).collect();
        rows.push((sim.name(), values));
    }
    print_table(&rows, 2);
    let delta = 100.0 * (average(&rows[1].1) / average(&rows[0].1) - 1.0);
    println!("RCPN-StrongArm CPI is {delta:+.1}% vs baseline (paper: ~+10%)");
}

/// Figure 1/2: model complexity of RCPN vs the equivalent CPN.
fn fig2() {
    header("Figure 1/2 — RCPN vs CPN model size (Fig. 2 pipeline)");
    // The paper's Figure 2 pipeline: L1 feeds U4 (short) or U2->L2->U3.
    use rcpn::builder::ModelBuilder;
    use rcpn::ids::OpClassId;
    use rcpn::token::InstrData;

    #[derive(Debug)]
    struct Tok(OpClassId);
    impl InstrData for Tok {
        fn op_class(&self) -> OpClassId {
            self.0
        }
    }

    let mut b = ModelBuilder::<Tok, ()>::new();
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
    b.source("U1").to(p1).produce(move |_m, _fx| Some(Tok(long))).done();
    let model = b.build().expect("fig2 model");
    let cmp = rcpn::cpn::compare_sizes(&model).expect("structural model converts");
    println!("{:<14}{:>8}{:>13}{:>8}", "", "places", "transitions", "arcs");
    println!(
        "{:<14}{:>8}{:>13}{:>8}",
        "RCPN", cmp.rcpn_places, cmp.rcpn_transitions, cmp.rcpn_arcs
    );
    println!("{:<14}{:>8}{:>13}{:>8}", "CPN", cmp.cpn_places, cmp.cpn_transitions, cmp.cpn_arcs);
    println!(
        "CPN needs {:+} places (capacity/back-edge machinery) and {:+} arcs",
        cmp.cpn_places as i64 - cmp.rcpn_places as i64,
        cmp.cpn_arcs as i64 - cmp.rcpn_arcs as i64
    );
}

/// Section 4 ablations: each optimization toggled on the StrongARM model.
fn ablations(scale: f64) {
    header("Section 4 ablations — StrongARM simulator speed (Mcycles/s)");
    let ws: Vec<Workload> = [Kernel::Crc, Kernel::G721]
        .iter()
        .map(|&k| {
            let size = ((k.bench_size() as f64 * scale) as usize).max(k.test_size());
            Workload::build(k, size)
        })
        .collect();
    print!("{:<22}", "");
    for w in &ws {
        print!("{:>10}", w.kernel.name());
    }
    println!("{:>10}", "avg");
    for (name, cfg, dec) in ablation_configs() {
        let values: Vec<f64> =
            ws.iter().map(|w| measure_ablation(w, cfg.clone(), dec).mcps()).collect();
        print!("{name:<22}");
        for v in &values {
            print!("{v:>10.2}");
        }
        println!("{:>10.2}", average(&values));
    }
}

/// Section 5 model statistics (the machine-checkable part of the "model
/// effort" discussion: sub-net and class counts, net sizes).
fn effort() {
    header("Section 5 — model statistics");
    let w = Workload::build(Kernel::Crc, 64);
    for model in ProcModel::ALL {
        let name = model.figure_name();
        let sim = CaSim::with_config(model, &w.program, &model.default_config());
        let m = sim.engine.model();
        let a = m.analysis();
        println!(
            "{name:<16} sub-nets={} op-classes={} places={} transitions={} sources={} two-list={} (flow cycles {}, feedback {})",
            m.subnet_count(),
            m.op_class_count(),
            m.place_count(),
            m.transition_count(),
            m.source_count(),
            a.two_list_count(),
            a.flow_cycle_places(),
            a.feedback_places(),
        );
    }
    println!("(paper: six operation classes; six sub-nets in the StrongARM model;");
    println!(
        " development effort 1 man-day StrongARM / 3 man-days XScale is not machine-reproducible)"
    );
}
