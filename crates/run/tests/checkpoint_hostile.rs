//! Hostile input against the run layer's decoders: every truncation of a
//! real input, single-bit flips and random garbage must end in `Ok` or a
//! typed error, never a panic. The inputs are a session checkpoint
//! ([`SessionCheckpoint::load`], then the policy engine's and the
//! machine's restore on freshly built ones), a recorded failure-pattern
//! file ([`pattern_io::decode`], then [`ScheduledAdversary::try_new`] and
//! a short run) and a daemon `Submit` line ([`read_request`], then
//! [`RunConfig::validate`], and for a config it accepts the instance's
//! setup and its adversary).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use rfsp_core::{AlgoX, WriteAllTasks, XOptions};
use rfsp_pram::{
    CycleBudget, LayoutBuilder, Machine, NoopObserver, PolicyEngine, RunLimits, ScheduledAdversary,
};
use rfsp_run::{
    build_adversary, pattern_io, read_request, write_line, ExecMode, PauseFlow, Request, RunConfig,
    RunSession, SessionCheckpoint, SessionEnd,
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

/// Feed `check` every truncation of `good`, 400 single-bit flips of it and
/// 200 garbage inputs (half random bytes, half drawn from `alphabet`),
/// each under `catch_unwind`. `check` returns whether the decoder accepted
/// the input; returns the (accepted, refused) counts.
fn hostile(good: &[u8], alphabet: &[u8], check: impl Fn(&[u8]) -> bool) -> (usize, usize) {
    let (mut accepted, mut refused) = (0, 0);
    let mut try_bytes =
        |case: &str, bytes: &[u8]| match catch_unwind(AssertUnwindSafe(|| check(bytes))) {
            Ok(true) => accepted += 1,
            Ok(false) => refused += 1,
            Err(_) => panic!("{case}: the decoder or what follows it panicked"),
        };
    for len in 0..good.len() {
        try_bytes(&format!("truncated to {len} bytes"), &good[..len]);
    }
    let mut mix = Mix(0x5eed);
    for i in 0..400 {
        let mut bytes = good.to_vec();
        let bit = mix.below(8 * bytes.len());
        bytes[bit / 8] ^= 1 << (bit % 8);
        try_bytes(&format!("flip {i} (bit {bit})"), &bytes);
    }
    for i in 0..200 {
        let len = mix.below(2 * good.len());
        let bytes: Vec<u8> = if i % 2 == 0 {
            (0..len).map(|_| mix.next() as u8).collect()
        } else {
            (0..len).map(|_| alphabet[mix.below(alphabet.len())]).collect()
        };
        try_bytes(&format!("garbage {i} ({len} bytes)"), &bytes);
    }
    (accepted, refused)
}

const JSONISH: &[u8] = b"{}[],:\"0123456789-.eE truefalsnul\\";

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
    let setup = cfg.spec().unwrap().setup();

    // A real checkpoint, taken mid-run under random faults.
    let mut session = RunSession::new(cfg.clone(), ExecMode::Sequential, Box::new(build)).unwrap();
    let end =
        session.run(&mut |cycle| cycle >= 24, &mut |_| PauseFlow::Stop, &mut NoopObserver).unwrap();
    assert!(matches!(end, SessionEnd::Stopped { .. }), "the run ended before its checkpoint");
    let path = cfg.checkpoint.clone().unwrap();
    let good = std::fs::read(&path).unwrap();
    let ck = SessionCheckpoint::load(&path).unwrap();
    assert!(ck.machine.pattern.size() > 0, "the checkpoint holds no failure events");

    let hostile_path = dir.join("hostile.json");
    let hostile_s = hostile_path.to_str().unwrap();
    let (accepted, refused) = hostile(&good, JSONISH, |bytes| {
        std::fs::write(&hostile_path, bytes).unwrap();
        let Ok(ck) = SessionCheckpoint::load(hostile_s) else { return false };
        let mut engine = PolicyEngine::new(cfg.policy_kind());
        let _ = engine.restore_state(&ck.machine.policy);
        let mut machine = build().unwrap();
        let mut adversary = build_adversary(&cfg, &setup).unwrap();
        let _ = machine.restore_checkpoint(&ck.machine, &mut *adversary);
        true
    });
    // Truncations refuse the file whole; some flips land where the
    // decoders cannot tell (a digit of a counter), and restore takes them.
    assert!(refused > good.len(), "only {refused} refusals");
    assert!(accepted > 0, "no flip was accepted; the restore leg never ran");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hostile_pattern_files_are_errors_not_panics() {
    let (n, p) = (64, 8);
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let prog = AlgoX::new(&mut layout, tasks, p, XOptions::default());
    let build = || Machine::new(&prog, p, CycleBudget::PAPER).unwrap();

    // A real recorded pattern, from a run under random faults.
    let cfg = RunConfig { adversary: "random".into(), rate: 0.2, ..RunConfig::default() };
    let mut adversary = build_adversary(&cfg, &cfg.spec().unwrap().setup()).unwrap();
    let report = build().run(&mut adversary).unwrap();
    assert!(report.pattern.size() > 4, "the run recorded too few failure events");
    let good = pattern_io::encode(&report.pattern).into_bytes();

    // A pattern that decodes must be a legal schedule or a typed error,
    // and one that is legal must drive a short run to `Ok` or a typed
    // error (a processor it names may not exist on this machine).
    let (accepted, refused) = hostile(&good, b"FR #0123456789-:\nbefore-readswritsaft", |bytes| {
        let Ok(pattern) = pattern_io::decode(&String::from_utf8_lossy(bytes)) else { return false };
        let Ok(mut adversary) = ScheduledAdversary::try_new(pattern) else { return false };
        let _ =
            build().run_observed(&mut adversary, RunLimits { max_cycles: 500 }, &mut NoopObserver);
        true
    });
    assert!(accepted > 0 && refused > 0, "{accepted} accepted, {refused} refused");
}

/// A config `validate` accepts derives its setup and builds its adversary
/// without a panic: `validate` refuses whatever a constructor would.
#[test]
fn hostile_submit_lines_are_errors_not_panics() {
    let config = RunConfig {
        algo: "vx".into(),
        adversary: "stalking".into(),
        n: 4096,
        p: 16,
        target: Some(4000),
        fault_budget: Some(90),
        ..RunConfig::default()
    };
    let mut good = Vec::new();
    write_line(&mut good, &Request::Submit { config }).unwrap();

    let valid = std::cell::Cell::new(0);
    let (accepted, refused) =
        hostile(&good, JSONISH, |bytes| match read_request(&mut &bytes[..]) {
            Ok(Some(Request::Submit { config })) => {
                if config.validate().is_ok() {
                    // Every kind, not only the one the line names.
                    for kind in rfsp_run::ADVERSARIES {
                        let config = RunConfig { adversary: kind.to_string(), ..config.clone() };
                        if config.validate().is_ok() {
                            let setup = config.spec().unwrap().setup();
                            let _ = build_adversary(&config, &setup);
                        }
                    }
                    valid.set(valid.get() + 1);
                }
                true
            }
            Ok(_) => true,
            Err(_) => false,
        });
    assert!(accepted > 0 && refused > good.len(), "{accepted} accepted, {refused} refused");
    assert!(valid.get() > 0, "no hostile line passed validate; the constructors never ran");
}
