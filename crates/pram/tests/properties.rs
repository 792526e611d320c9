//! Property tests for the machine substrate.

use proptest::prelude::*;
use rfsp_pram::{
    CycleBudget, FailPoint, FailureEvent, FailureKind, FailurePattern, LayoutBuilder, Machine,
    NoopObserver, Pid, Program, ReadSet, RunLimits, ScheduledAdversary, SharedMemory, Step, Word,
    WriteMode, WriteSet,
};

proptest! {
    /// LayoutBuilder hands out disjoint, densely packed regions in order.
    #[test]
    fn layout_regions_are_disjoint_and_dense(sizes in proptest::collection::vec(0usize..100, 0..32)) {
        let mut layout = LayoutBuilder::new();
        let regions: Vec<_> = sizes.iter().map(|&s| layout.alloc(s)).collect();
        let mut expected_base = 0;
        for (r, &s) in regions.iter().zip(&sizes) {
            prop_assert_eq!(r.base(), expected_base);
            prop_assert_eq!(r.len(), s);
            expected_base += s;
        }
        prop_assert_eq!(layout.total(), expected_base);
        // No two non-empty regions share an address.
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                for k in 0..a.len() {
                    prop_assert!(!b.contains(a.at(k)));
                }
            }
        }
    }

    /// Patterns constructed from arbitrary ordered events round-trip
    /// through the accessors.
    #[test]
    fn failure_pattern_accessors(raw in proptest::collection::vec((0usize..64, 0u64..100, any::<bool>()), 0..64)) {
        let mut events: Vec<FailureEvent> = raw
            .into_iter()
            .map(|(pid, time, restart)| FailureEvent {
                kind: if restart {
                    FailureKind::Restart
                } else {
                    FailureKind::Failure { point: FailPoint::BeforeWrites }
                },
                pid,
                time,
            })
            .collect();
        events.sort_by_key(|e| e.time);
        let pattern: FailurePattern = events.iter().copied().collect();
        prop_assert_eq!(pattern.size(), events.len());
        prop_assert_eq!(pattern.failure_count() + pattern.restart_count(), events.len());
        prop_assert_eq!(pattern.events(), &events[..]);
    }
}

/// A worker program where each processor repeatedly increments its own
/// cell until every cell reaches a target — simple enough that any legal
/// fault schedule leaves it correct.
struct Grind {
    n: usize,
    target: Word,
}

impl Program for Grind {
    type Private = ();
    fn shared_size(&self) -> usize {
        self.n
    }
    fn on_start(&self, _pid: Pid) {}
    fn plan(&self, pid: Pid, _st: &(), values: &[Word], reads: &mut ReadSet) {
        if values.is_empty() {
            reads.push(pid.0 % self.n);
        }
    }
    fn execute(&self, pid: Pid, _st: &mut (), values: &[Word], writes: &mut WriteSet) -> Step {
        if values[0] < self.target {
            writes.push(pid.0 % self.n, values[0] + 1);
        }
        Step::Continue
    }
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        (0..self.n).all(|i| mem.peek(i) >= self.target)
    }
}

/// Build a *legal* pre-committed fault schedule from raw fuzz input:
/// alternating fails/restarts respecting per-processor liveness, with
/// processor 0 immune and everyone revived at the end so the computation
/// can finish (cells are per-processor, so a permanently dead processor
/// would leave its cell short forever).
fn legal_schedule(p: usize, raw: Vec<(usize, bool)>) -> FailurePattern {
    let mut alive = vec![true; p];
    let mut pattern = FailurePattern::new();
    let raw_len = raw.len();
    for (t, (pid_raw, restart)) in raw.into_iter().enumerate() {
        let pid = pid_raw % p;
        if pid == 0 {
            continue; // keep processor 0 immune for liveness
        }
        if alive[pid] && !restart {
            alive[pid] = false;
            pattern.push(FailureEvent {
                kind: FailureKind::Failure { point: FailPoint::BeforeWrites },
                pid,
                time: t as u64,
            });
        } else if !alive[pid] && restart {
            alive[pid] = true;
            pattern.push(FailureEvent { kind: FailureKind::Restart, pid, time: t as u64 + 1 });
        }
    }
    let heal_time = raw_len as u64 + 2;
    for (pid, &is_alive) in alive.iter().enumerate() {
        if !is_alive {
            pattern.push(FailureEvent { kind: FailureKind::Restart, pid, time: heal_time });
        }
    }
    pattern
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Any *legal* pre-committed fault schedule (generated with its own
    /// liveness tracking, processor 0 immune) runs to completion with the
    /// correct result under every write mode that admits concurrency.
    #[test]
    fn any_legal_offline_schedule_is_survivable(
        p in 1usize..20,
        target in 1u64..6,
        raw in proptest::collection::vec((1usize..20, any::<bool>()), 0..60),
        mode_arbitrary in any::<bool>(),
    ) {
        let pattern = legal_schedule(p, raw);
        let prog = Grind { n: p, target };
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        if mode_arbitrary {
            m.set_write_mode(WriteMode::Arbitrary);
        }
        let mut adv = ScheduledAdversary::new(pattern);
        let report = m
            .run_observed(&mut adv, RunLimits { max_cycles: 1_000_000 }, &mut NoopObserver)
            .unwrap();
        for i in 0..p {
            prop_assert!(m.memory().peek(i) >= target);
        }
        // Accounting sanity.
        prop_assert!(report.stats.s_prime()
            <= report.stats.completed_work() + report.stats.pattern_size());
    }
}
