//! Regenerates Table I and Figures 3–7 from one sweep.
//!
//! ```sh
//! cargo run --release -p slr-bench --bin all_figures            # quick
//! cargo run --release -p slr-bench --bin all_figures -- --paper # full §V
//! ```

use slr_bench::Cli;
use slr_runner::experiment::{run_sweep, Metric};
use slr_runner::report::{render_figure, render_srp_diagnostics, render_table1, render_trend};
use slr_runner::scenario::ProtocolKind;

fn main() {
    let cli = Cli::parse();
    eprintln!("running sweep: {}", cli.describe());
    let t0 = std::time::Instant::now();
    let result = run_sweep(&ProtocolKind::all(), &cli.sweep);
    println!(
        "# SLR reproduction — all experiments ({})\n",
        cli.describe()
    );
    println!("{}", render_table1(&result));
    println!("Paper (±95% CI): SRP 0.830/0.905/0.927, LDR 0.766/4.364/1.172,");
    println!("AODV 0.741/4.996/2.769, DSR 0.500/5.394/5.725, OLSR 0.710/4.728/0.781\n");
    for (metric, title, paper_shape) in [
        (
            Metric::MacDrops,
            "Fig. 3 — Average MAC layer drops",
            "DSR worst (rising toward 350+ at pause 0), inversely proportional to its delivery ratio.",
        ),
        (
            Metric::DeliveryRatio,
            "Fig. 4 — Delivery ratio",
            "SRP highest at almost all pause times (~0.83 avg); DSR collapses with mobility.",
        ),
        (
            Metric::NetworkLoad,
            "Fig. 5 — Network load (semi-log in the paper)",
            "SRP ~0.2x the load of LDR/AODV/OLSR (0.9 vs 4.4-5.0).",
        ),
        (
            Metric::Latency,
            "Fig. 6 — Data latency (semi-log in the paper)",
            "OLSR and SRP lowest and statistically close; AODV and DSR much higher.",
        ),
        (
            Metric::AvgSeqno,
            "Fig. 7 — Average node sequence number",
            "AODV highest (up to ~140), LDR low, SRP identically zero in all 80 simulations.",
        ),
    ] {
        println!("{}", render_figure(&result, metric, title));
        println!("{}", render_trend(&result, metric));
        println!("Paper shape: {paper_shape}\n");
    }
    println!("{}", render_srp_diagnostics(&result));
    eprintln!("sweep completed in {:?}", t0.elapsed());
}
