//! [`NetworkMeter`]: measure a run's network time without touching it.
//!
//! Wraps any [`Adversary`]. Each tick, before delegating the decision, it
//! reads every active processor's planned reads and writes off the
//! [`MachineView`] and routes them through an [`OmegaNetwork`] — reads as
//! one batch, writes as another, matching the two memory phases of an
//! update cycle. The wrapped adversary's decisions are forwarded
//! unchanged, so the measured execution is byte-identical to the unmetered
//! one.
//!
//! With [`NetworkMeter::with_layout`] the meter routes each packet to the
//! cell's **actual** memory bank under the machine's
//! [`MemoryLayout`] — the profile then comes from the same bank mapping
//! the machine charges its per-bank counters against. Without a layout
//! (or with [`MemoryLayout::Flat`]) the meter keeps the historical
//! word-interleaved approximation `bank = addr mod K`.
//!
//! [`metered_run`] is the supported entry point for profiling: it builds
//! and runs a real word machine with the meter installed, and every
//! failure surfaces as a [`PramError`] instead of aborting.

use rfsp_pram::{
    Adversary, CycleBudget, Decisions, Machine, MachineView, MemoryLayout, PramError, Program,
    RunReport,
};

use crate::omega::{OmegaNetwork, RouteStats};

/// Accumulated network-time profile of a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NetworkProfile {
    /// PRAM ticks observed.
    pub ticks: u64,
    /// Total network cycles across all ticks (read batches + write batches).
    pub network_cycles: u64,
    /// Worst single-tick network latency.
    pub worst_tick: u64,
    /// Total packets routed.
    pub packets: u64,
    /// Packets absorbed by combining.
    pub combined: u64,
}

impl NetworkProfile {
    /// Mean network cycles per PRAM tick — the factor the unit-cost
    /// assumption abstracts away.
    pub fn slowdown(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.network_cycles as f64 / self.ticks as f64
        }
    }
}

/// An adversary wrapper that meters network traffic.
#[derive(Clone, Debug)]
pub struct NetworkMeter<A> {
    inner: A,
    net: OmegaNetwork,
    layout: MemoryLayout,
    profile: NetworkProfile,
    // Reused per-tick packet buffers: metering stays allocation-free in
    // steady state, like the machine it observes.
    read_buf: Vec<(usize, usize)>,
    write_buf: Vec<(usize, usize)>,
}

impl<A: Adversary> NetworkMeter<A> {
    /// Meter `inner`'s run through `net` with the historical
    /// word-interleaved bank approximation (`bank = addr mod K`).
    pub fn new(inner: A, net: OmegaNetwork) -> Self {
        NetworkMeter {
            inner,
            net,
            layout: MemoryLayout::Flat,
            profile: NetworkProfile::default(),
            read_buf: Vec::new(),
            write_buf: Vec::new(),
        }
    }

    /// Route packets to each cell's actual bank under `layout` (pass the
    /// machine's layout). [`MemoryLayout::Flat`] keeps the `addr mod K`
    /// approximation — a flat memory has one real bank, which would fold
    /// the whole network onto a single port and measure nothing.
    pub fn with_layout(mut self, layout: MemoryLayout) -> Self {
        self.layout = layout;
        self
    }

    /// The profile so far.
    pub fn profile(&self) -> NetworkProfile {
        self.profile
    }

    /// Unwrap.
    pub fn into_inner(self) -> A {
        self.inner
    }

    fn absorb(&mut self, stats: RouteStats, tick_total: &mut u64) {
        self.profile.network_cycles += stats.network_cycles;
        self.profile.packets += stats.packets;
        self.profile.combined += stats.combined;
        *tick_total += stats.network_cycles;
    }

    fn route(&self, batch: &[(usize, usize)]) -> RouteStats {
        match self.layout {
            MemoryLayout::Flat => self.net.route(batch),
            layout @ MemoryLayout::Banked { .. } => {
                self.net.route_with(batch, |addr| layout.bank_of(addr))
            }
        }
    }
}

impl<A: Adversary> Adversary for NetworkMeter<A> {
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
        let mut reads = std::mem::take(&mut self.read_buf);
        let mut writes = std::mem::take(&mut self.write_buf);
        reads.clear();
        writes.clear();
        for (pid, t) in view.tentative.iter() {
            for &addr in t.reads {
                reads.push((pid.0, addr));
            }
            for &(addr, _) in t.writes {
                writes.push((pid.0, addr));
            }
        }
        let mut tick_total = 0;
        let r = self.route(&reads);
        self.absorb(r, &mut tick_total);
        let w = self.route(&writes);
        self.absorb(w, &mut tick_total);
        self.read_buf = reads;
        self.write_buf = writes;
        self.profile.ticks += 1;
        self.profile.worst_tick = self.profile.worst_tick.max(tick_total);
        self.inner.decide(view)
    }
}

/// Build a word [`Machine`] for `program` with memory laid out per
/// `layout`, run it to completion under `adversary` with every charged
/// access batch metered through `net`, and return the run report together
/// with the network profile.
///
/// The profile comes from the *real* execution — the meter observes the
/// exact tentative cycles the machine commits, with packets routed to the
/// banks the layout actually maps each cell to — not from a standalone
/// replay.
///
/// # Errors
///
/// Any [`PramError`] from machine construction (invalid processor count,
/// budget or layout) or from the run itself; nothing panics on the
/// metering path.
pub fn metered_run<P: Program, A: Adversary>(
    program: &P,
    processors: usize,
    budget: CycleBudget,
    layout: MemoryLayout,
    net: OmegaNetwork,
    adversary: A,
) -> Result<(RunReport, NetworkProfile), PramError> {
    let mut machine = Machine::with_layout(program, processors, budget, layout)?;
    let mut meter = NetworkMeter::new(adversary, net).with_layout(layout);
    let report = machine.run(&mut meter)?;
    Ok((report, meter.profile()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsp_core::{AlgoX, WriteAllTasks, XOptions};
    use rfsp_pram::{CycleBudget, LayoutBuilder, NoFailures};

    fn profile(p: usize, combining: bool) -> NetworkProfile {
        let n = 256;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, p, XOptions::default());
        let net =
            if combining { OmegaNetwork::new(p) } else { OmegaNetwork::new(p).without_combining() };
        let (report, profile) =
            metered_run(&algo, p, CycleBudget::PAPER, MemoryLayout::Flat, net, NoFailures)
                .expect("metered run failed");
        assert!(report.stats.completed_cycles > 0);
        profile
    }

    #[test]
    fn metering_does_not_change_the_run() {
        let n = 128;
        let p = 16;
        let work = |metered: bool| {
            let mut layout = LayoutBuilder::new();
            let tasks = WriteAllTasks::new(&mut layout, n);
            let algo = AlgoX::new(&mut layout, tasks, p, XOptions::default());
            let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
            if metered {
                let mut meter = NetworkMeter::new(NoFailures, OmegaNetwork::new(p));
                m.run(&mut meter).unwrap().stats
            } else {
                m.run(&mut NoFailures).unwrap().stats
            }
        };
        assert_eq!(work(true), work(false));
    }

    #[test]
    fn combining_beats_plain_on_tree_algorithms() {
        let with = profile(64, true);
        let without = profile(64, false);
        assert!(
            with.network_cycles < without.network_cycles,
            "combining {} vs plain {}",
            with.network_cycles,
            without.network_cycles
        );
        assert!(with.combined > 0);
    }

    #[test]
    fn slowdown_is_at_least_the_network_depth() {
        let p = profile(32, true);
        // Each tick has a read batch and a write batch, each >= log2(32)=5
        // cycles when nonempty.
        assert!(p.slowdown() >= 5.0, "slowdown {}", p.slowdown());
        assert!(p.worst_tick >= 10);
    }

    /// A banked machine's profile equals the flat profile when the bank
    /// mapping coincides with the `addr mod K` approximation, and the run
    /// statistics are identical either way.
    #[test]
    fn banked_layout_routes_to_real_banks() {
        let p = 16;
        let n = 256;
        let build = || {
            let mut layout = LayoutBuilder::new();
            let tasks = WriteAllTasks::new(&mut layout, n);
            AlgoX::new(&mut layout, tasks, p, XOptions::default())
        };
        let flat = build();
        let (flat_report, flat_profile) = metered_run(
            &flat,
            p,
            CycleBudget::PAPER,
            MemoryLayout::Flat,
            OmegaNetwork::new(p),
            NoFailures,
        )
        .unwrap();
        let banked = build();
        let (banked_report, banked_profile) = metered_run(
            &banked,
            p,
            CycleBudget::PAPER,
            MemoryLayout::banked(p),
            OmegaNetwork::new(p),
            NoFailures,
        )
        .unwrap();
        // Word-interleaved over K = ports is exactly the approximation.
        assert_eq!(flat_profile, banked_profile);
        assert_eq!(flat_report.stats, banked_report.stats);
        // A coarser banking (fewer banks than ports) concentrates traffic:
        // congestion can only grow or stay equal.
        let coarse = build();
        let (_, coarse_profile) = metered_run(
            &coarse,
            p,
            CycleBudget::PAPER,
            MemoryLayout::banked(2),
            OmegaNetwork::new(p),
            NoFailures,
        )
        .unwrap();
        assert!(coarse_profile.network_cycles >= banked_profile.network_cycles);
    }

    /// Satellite 3: a metering failure surfaces as a `PramError` instead
    /// of aborting — here, an invalid machine configuration.
    #[test]
    fn metered_run_propagates_errors() {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 8);
        let algo = AlgoX::new(&mut layout, tasks, 4, XOptions::default());
        let err = metered_run(
            &algo,
            0, // zero processors is an invalid configuration
            CycleBudget::PAPER,
            MemoryLayout::Flat,
            OmegaNetwork::new(4),
            NoFailures,
        )
        .unwrap_err();
        assert!(matches!(err, PramError::InvalidConfig { .. }), "{err:?}");
        let err = metered_run(
            &algo,
            4,
            CycleBudget::PAPER,
            MemoryLayout::Banked { banks: 0, interleave: 1 },
            OmegaNetwork::new(4),
            NoFailures,
        )
        .unwrap_err();
        assert!(matches!(err, PramError::InvalidConfig { .. }), "{err:?}");
    }
}
