//! # rfsp-adversary — the paper's adversaries, executable
//!
//! Every lower bound and bad-case argument in Kanellakis & Shvartsman
//! (PODC 1991) is *constructive*: it names an on-line adversary strategy.
//! This crate implements each one against the
//! [`Adversary`](rfsp_pram::Adversary) interface so the benchmark harness
//! can measure exactly the executions the proofs describe:
//!
//! * [`Thrashing`] — Example 2.2: allow reads, fail everyone but one
//!   before the writes, restart, repeat. Forces `S' = Ω(P·N)` and
//!   motivates completed-work accounting.
//! * [`Pigeonhole`] — Theorem 3.1: revive everyone, find the half of the
//!   unvisited cells with the fewest assigned processors, fail exactly
//!   those writers. Forces `Ω(N log N)` completed work on *any* Write-All
//!   algorithm.
//! * [`XKiller`] — Theorem 4.8: let processor 0 sweep the leaves in
//!   postorder while everyone else is made to re-traverse the tree and is
//!   frozen at each leaf it reaches. Forces `S = Ω(N^{log 3})` on
//!   algorithm X with `P = N`.
//! * [`Stalking`] — §5: pick one leaf and fail every processor that
//!   touches it (optionally restarting them). Devastates randomized
//!   coupon-clipping; deterministic X shrugs it off.
//! * [`RandomFaults`] — i.i.d. failures/restarts with configurable rates
//!   and an event budget, the workhorse for the Theorem 4.3 `M`-sweeps.
//! * [`BurstyFaults`] — two-state Markov-modulated failures (calm/burst
//!   hidden mode chain): the clustered-crash regime the adaptive
//!   checkpoint policy is measured against.
//! * [`OfflineRandom`] — a pre-committed (non-adaptive) random schedule:
//!   §5's *off-line* adversary, against which the randomized algorithm is
//!   efficient.
//! * [`Budgeted`] — wrap any adversary with a hard `|F| ≤ M` budget.

pub mod budget;
pub mod bursty;
pub mod offline;
pub mod pigeonhole;
pub mod random;
pub mod stalking;
pub mod thrashing;
pub mod xkiller;

pub use budget::Budgeted;
pub use bursty::BurstyFaults;
pub use offline::{offline_random_pattern, OfflineRandom};
pub use pigeonhole::Pigeonhole;
pub use random::RandomFaults;
pub use stalking::{Stalking, StalkingMode};
pub use thrashing::Thrashing;
pub use xkiller::XKiller;
