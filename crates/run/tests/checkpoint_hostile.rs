//! Hostile input against the session checkpoint decoder: every truncation
//! of a real checkpoint, single-bit flips and random garbage must end in
//! `Ok` or a typed error, never a panic — both in
//! [`SessionCheckpoint::load`] and, when that accepts the bytes, in the
//! policy engine's and the machine's restore on freshly built ones.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use rfsp_core::{AlgoX, WriteAllTasks, XOptions};
use rfsp_pram::{CycleBudget, LayoutBuilder, Machine, NoopObserver, PolicyEngine};
use rfsp_run::{
    build_adversary, ExecMode, PauseFlow, RunConfig, RunSession, SessionCheckpoint, SessionEnd,
};

fn config(dir: &Path) -> RunConfig {
    RunConfig {
        algo: "x".into(),
        n: 64,
        p: 8,
        adversary: "random".into(),
        rate: 0.2,
        restart_rate: 0.6,
        seed: 5,
        every: 4,
        checkpoint: Some(dir.join("ck.json").display().to_string()),
        events: Some(dir.join("events.jsonl").display().to_string()),
        ..RunConfig::default()
    }
}

/// SplitMix64: a deterministic stream for the flips and the garbage.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn hostile_session_checkpoints_are_errors_not_panics() {
    let dir = std::env::temp_dir().join(format!("rfsp-run-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = config(&dir);
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, cfg.n as usize);
    let prog = AlgoX::new(&mut layout, tasks, cfg.p as usize, XOptions::default());
    let build = || Machine::new(&prog, cfg.p as usize, CycleBudget::PAPER);

    // A real checkpoint, taken mid-run under random faults.
    let mut session = RunSession::new(cfg.clone(), ExecMode::Sequential, Box::new(build)).unwrap();
    let end =
        session.run(&mut |cycle| cycle >= 24, &mut |_| PauseFlow::Stop, &mut NoopObserver).unwrap();
    assert!(matches!(end, SessionEnd::Stopped { .. }), "the run ended before its checkpoint");
    let path = cfg.checkpoint.clone().unwrap();
    let good = std::fs::read(&path).unwrap();
    let ck = SessionCheckpoint::load(&path).unwrap();
    assert!(ck.machine.pattern.size() > 0, "the checkpoint holds no failure events");

    let hostile = dir.join("hostile.json");
    let hostile_s = hostile.to_str().unwrap();
    let (mut accepted, mut refused) = (0, 0);
    let mut try_bytes = |case: &str, bytes: &[u8]| {
        std::fs::write(&hostile, bytes).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(ck) = SessionCheckpoint::load(hostile_s) else { return false };
            let mut engine = PolicyEngine::new(cfg.policy_kind());
            let _ = engine.restore_state(&ck.machine.policy);
            let mut machine = build().unwrap();
            let mut adversary = build_adversary(&cfg).unwrap();
            let _ = machine.restore_checkpoint(&ck.machine, &mut *adversary);
            true
        }));
        match outcome {
            Ok(true) => accepted += 1,
            Ok(false) => refused += 1,
            Err(_) => panic!("{case}: the decoder or restore panicked"),
        }
    };

    for len in 0..good.len() {
        try_bytes(&format!("truncated to {len} bytes"), &good[..len]);
    }
    let mut mix = Mix(0x5eed);
    for i in 0..400 {
        let mut bytes = good.clone();
        let bit = mix.below(8 * bytes.len());
        bytes[bit / 8] ^= 1 << (bit % 8);
        try_bytes(&format!("flip {i} (bit {bit})"), &bytes);
    }
    const JSONISH: &[u8] = b"{}[],:\"0123456789-.eE truefalsnul\\";
    for i in 0..200 {
        let len = mix.below(2 * good.len());
        let bytes: Vec<u8> = if i % 2 == 0 {
            (0..len).map(|_| mix.next() as u8).collect()
        } else {
            (0..len).map(|_| JSONISH[mix.below(JSONISH.len())]).collect()
        };
        try_bytes(&format!("garbage {i} ({len} bytes)"), &bytes);
    }
    // Truncations refuse the file whole; some flips land where the
    // decoders cannot tell (a digit of a counter), and restore takes them.
    assert!(refused > good.len(), "only {refused} refusals");
    assert!(accepted > 0, "no flip was accepted; the restore leg never ran");
    std::fs::remove_dir_all(&dir).unwrap();
}
