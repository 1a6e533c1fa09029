//! A mobile ad hoc network demo of the current engine surface:
//!
//! 1. one quick-scale trial per protocol on the *same* mobility and
//!    traffic scripts, printing the paper's three metrics;
//! 2. one `dense`-family SRP trial run under the selected event engine,
//!    with the batched engine's summary cross-checked bit-for-bit when the
//!    parallel engine is chosen.
//!
//! ```sh
//! cargo run --release --example manet_demo
//! cargo run --release --example manet_demo -- --pause 300
//! cargo run --release --example manet_demo -- --nodes 400 \
//!     --engine parallel --workers 4
//! ```
//!
//! Flags (shared parser with `slrsim`): `--pause S` for the per-protocol
//! comparison; `--engine batched|parallel`, `--workers N`,
//! `--nodes N`, `--duration S` and `--seed N` for the dense engine demo.

use slr_runner::cli::{parse_cli, usage, CliAction};
use slr_runner::registry::{Family, SweepParam};
use slr_runner::scenario::{ProtocolKind, Scenario};
use slr_runner::sim::{EngineKind, Sim};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args, |_| 1) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if cli.action != CliAction::Run {
        eprintln!("{}", usage("manet_demo"));
        return;
    }
    let sweep = cli.sweep;
    let pause = match sweep.param {
        SweepParam::Pause => sweep.values[0],
        _ => 0,
    };

    println!("50 nodes, 15 CBR flows, 160 s, pause {pause} s — same scripts for every protocol\n");
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "proto", "delivery", "load", "latency(s)", "drops/node", "seqno"
    );
    for kind in ProtocolKind::all() {
        let scenario = Scenario::quick(kind, pause, sweep.seed, 0);
        let summary = Sim::new(scenario).run();
        println!(
            "{:<8} {:>10.3} {:>10.3} {:>12.4} {:>12.1} {:>10.2}",
            kind.name(),
            summary.delivery_ratio,
            summary.network_load,
            summary.latency,
            summary.mac_drops_per_node,
            summary.avg_seqno
        );
    }
    println!("\nExpected shape (paper §V): SRP best delivery & lowest load;");
    println!("AODV/LDR mid; DSR degrades with mobility; OLSR trades overhead for latency.");

    // Part 2: the dense family under the selected engine. Both engines
    // are bit-identical by contract; the demo proves it on the spot
    // whenever the parallel engine is picked.
    let nodes = sweep.override_nodes.unwrap_or(300) as u64;
    let engine_name = match sweep.engine {
        EngineKind::Batched => "batched".to_string(),
        EngineKind::Parallel => format!("parallel ({} workers)", sweep.workers),
    };
    let dense_scenario = || {
        let mut s = Family::Dense.scenario_at(
            ProtocolKind::Srp,
            sweep.seed,
            0,
            sweep.paper_scale,
            SweepParam::Nodes,
            nodes,
        );
        if let Some(d) = sweep.override_duration {
            s.end = slr_netsim::time::SimTime::from_secs(d);
        }
        s
    };
    println!(
        "\ndense family: {} mobile nodes, SRP, engine {engine_name}",
        nodes
    );
    let start = std::time::Instant::now();
    let summary = Sim::new(dense_scenario())
        .with_engine(sweep.engine)
        .with_workers(sweep.workers)
        .run();
    let wall = start.elapsed().as_secs_f64();
    println!(
        "  delivery {:.3}, load {:.3}, latency {:.4} s — {wall:.2} s wall clock",
        summary.delivery_ratio, summary.network_load, summary.latency
    );
    if sweep.engine != EngineKind::Batched {
        let baseline = Sim::new(dense_scenario())
            .with_engine(EngineKind::Batched)
            .run();
        assert_eq!(
            baseline, summary,
            "engine determinism contract violated: {engine_name} != batched"
        );
        println!("  cross-check: summary bit-identical to the batched engine ✓");
    }
}
