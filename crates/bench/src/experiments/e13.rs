//! E13 — §2.3's architectural claim: a *combining* interconnection network
//! realizes the unit-cost PRAM; without combining, the algorithms' hot
//! cells serialize.
//!
//! The paper's Figure 1 architecture routes every memory access through "a
//! synchronous combining interconnection network" and promises the
//! complexity bounds "under the unit cost memory access assumption". E13
//! meters an unmodified algorithm run through the `rfsp-net` omega-network
//! cost model, with and without combining, and reports the per-tick
//! network latency — the hidden constant of the unit-cost assumption.

use rfsp_net::{NetworkMeter, OmegaNetwork};
use rfsp_pram::{NoFailures, RunLimits};

use crate::{fmt, print_table, run_write_all, Algo, TelemetrySink, WriteAllSpec};

fn metered(
    sink: &mut TelemetrySink,
    algo: Algo,
    n: usize,
    p: usize,
    combining: bool,
) -> rfsp_net::NetworkProfile {
    let net =
        if combining { OmegaNetwork::new(p) } else { OmegaNetwork::new(p).without_combining() };
    let net_name = if combining { "combining" } else { "plain" };
    let mut meter = NetworkMeter::new(NoFailures, net);
    let run = sink
        .observe(format!("{}-p{p}-{net_name}", algo.name()), algo.name(), n, p, |obs| {
            run_write_all(&WriteAllSpec::new(algo, n, p), |_| &mut meter, RunLimits::default(), obs)
        })
        .expect("E13 run failed");
    assert!(run.verified);
    meter.profile()
}

/// Run experiment E13.
pub fn run() {
    let mut sink = TelemetrySink::for_experiment("e13");
    let n = 2048usize;
    let mut rows = Vec::new();
    for p in [16usize, 64, 256] {
        for algo in [Algo::X, Algo::V] {
            let with = metered(&mut sink, algo, n, p, true);
            let without = metered(&mut sink, algo, n, p, false);
            let log2p = (p as f64).log2();
            rows.push(vec![
                algo.name().to_string(),
                p.to_string(),
                fmt(with.slowdown()),
                fmt(with.slowdown() / log2p),
                fmt(without.slowdown()),
                fmt(without.slowdown() / p as f64),
                fmt(with.combined as f64 / with.packets.max(1) as f64),
            ]);
        }
    }
    print_table(
        "E13 (§2.3, Figure 1) — per-tick network latency, Write-All N = 2048",
        &[
            "algo",
            "P",
            "cycles/tick (combining)",
            "…/log₂P",
            "cycles/tick (plain)",
            "…/P",
            "combined frac",
        ],
        &rows,
    );
    println!();
    println!(
        "Paper: with combining the unit-cost assumption costs only the \
         pipelined network depth (column 4 stays a small constant: \
         O(log P) per tick) — but without it, the algorithms' hot cells \
         (clock, round counter, tree root) serialize and the per-tick \
         latency grows like Θ(P) (column 6 approaches a constant). This is \
         why §2.3 specifies a *combining* network."
    );
    sink.finish();
}
