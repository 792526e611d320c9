//! The Write-All program dispatch: one table from an algorithm name to
//! its program, below the session so every run path — the one-shot CLI
//! commands, the crash-safe session, the daemon, the experiments and the
//! soak harness — builds its program the same way.

use rfsp_core::{
    AccOptions, AlgoAcc, AlgoV, AlgoW, AlgoX, AlgoXInPlace, HeapTree, Interleaved, WriteAllTasks,
    XLayout, XOptions,
};
use rfsp_pram::{CycleBudget, LayoutBuilder, MemoryLayout, Program};
use serde::{Deserialize, Serialize};

use crate::RunError;

/// Which Write-All algorithm to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    /// Algorithm X (local traversal).
    X,
    /// Algorithm V (phase-synchronized).
    V,
    /// Algorithm W (the [KS 89] baseline with enumeration).
    W,
    /// Interleaved V+X (Theorem 4.9).
    Interleaved,
    /// Algorithm X in place (Remark 7; power-of-two sizes only).
    XInPlace,
    /// Randomized ACC with this seed (§5 baseline).
    Acc(u64),
}

impl Algo {
    /// The names [`Algo::parse`] accepts, one per algorithm (each alias
    /// aside).
    pub const NAMES: &'static [&'static str] = &["x", "v", "w", "vx", "x-inplace", "acc"];

    /// The algorithm a [`RunConfig::algo`](crate::RunConfig::algo) names:
    /// one of [`Algo::NAMES`], or the aliases `interleaved` (for `vx`)
    /// and `inplace` (for `x-inplace`). `acc` runs with seed 0.
    ///
    /// # Errors
    ///
    /// An unknown name, with the names that would have been accepted.
    pub fn parse(name: &str) -> Result<Algo, RunError> {
        Ok(match name {
            "x" => Algo::X,
            "v" => Algo::V,
            "w" => Algo::W,
            "vx" | "interleaved" => Algo::Interleaved,
            "x-inplace" | "inplace" => Algo::XInPlace,
            "acc" => Algo::Acc(0),
            other => {
                return Err(RunError(format!(
                    "unknown algorithm '{other}' (expected one of: {})",
                    Algo::NAMES.join(", ")
                )))
            }
        })
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::X => "X",
            Algo::V => "V",
            Algo::W => "W",
            Algo::Interleaved => "V+X",
            Algo::XInPlace => "X-inplace",
            Algo::Acc(_) => "ACC",
        }
    }
}

/// One Write-All run: the instance and every machine knob the run recipe
/// forwards. All knobs except the instance and the X options are
/// behavior-invariant — every layout produces a bit-identical run.
#[derive(Clone, Copy, Debug)]
pub struct WriteAllSpec {
    /// The algorithm.
    pub algo: Algo,
    /// Instance size `N`.
    pub n: usize,
    /// Processor count `P`.
    pub p: usize,
    /// The shared-memory layout: per-bank counters (and any attached
    /// network meter) reflect a real bank mapping.
    pub layout: MemoryLayout,
    /// Algorithm X's options (the Remark 5 ablation); must stay at the
    /// default for every other algorithm.
    pub x_options: XOptions,
}

impl WriteAllSpec {
    /// `algo` on `n` cells and `p` processors, every knob at its default:
    /// flat memory and default X options.
    pub fn new(algo: Algo, n: usize, p: usize) -> Self {
        WriteAllSpec { algo, n, p, layout: MemoryLayout::Flat, x_options: XOptions::default() }
    }

    /// The instance's [`WriteAllSetup`], through the dispatch: building a
    /// program lays out its regions and allocates nothing, so this is
    /// cheap enough to call wherever an adversary is built.
    ///
    /// # Panics
    ///
    /// As [`with_write_all_program`], and where the algorithm's
    /// constructor refuses the instance (a config that passed
    /// [`RunConfig::validate`](crate::RunConfig::validate) never is).
    pub fn setup(&self) -> WriteAllSetup {
        struct Setup;

        impl WriteAllVisitor for Setup {
            type Out = WriteAllSetup;

            fn visit<P>(self, _prog: &P, setup: &WriteAllSetup, _budget: CycleBudget) -> Self::Out
            where
                P: Program,
                P::Private: Serialize + Deserialize,
            {
                setup.clone()
            }
        }

        with_write_all_program(self, Setup)
    }
}

/// A computation generic over the *concrete* Write-All program type.
///
/// `rfsp_bench::run_write_all` erases the program behind a fixed run
/// recipe; anything needing the extra capabilities of the machine's
/// crash-safety surface —
/// [`Pram::save_checkpoint`](rfsp_pram::Pram::save_checkpoint) /
/// [`Pram::restore_checkpoint`](rfsp_pram::Pram::restore_checkpoint)
/// (which require `P::Private: Serialize + Deserialize`), a
/// panic-isolating [`Pram::run_with`](rfsp_pram::Pram::run_with), or
/// multiple machines over one program — implements this trait instead and
/// lets [`with_write_all_program`] construct the program.
pub trait WriteAllVisitor {
    /// What the visit produces.
    type Out;

    /// Run against the concrete program. `budget` is the cycle budget the
    /// algorithm requires (the paper's 4-read/2-write budget for all but
    /// the interleaved algorithm).
    fn visit<P>(self, prog: &P, setup: &WriteAllSetup, budget: CycleBudget) -> Self::Out
    where
        P: Program,
        P::Private: Serialize + Deserialize;
}

/// Build the Write-All program `spec` names — from its algorithm, instance
/// size, processor count and X options — and hand it to `visitor`.
///
/// # Panics
///
/// If `spec` sets non-default X options for an algorithm other than X.
pub fn with_write_all_program<V: WriteAllVisitor>(spec: &WriteAllSpec, visitor: V) -> V::Out {
    let (n, p) = (spec.n, spec.p);
    assert!(
        matches!(spec.algo, Algo::X) || spec.x_options == XOptions::default(),
        "X options apply to algorithm X only"
    );
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    match spec.algo {
        Algo::X => {
            let prog = AlgoX::new(&mut layout, tasks, p, spec.x_options);
            let setup =
                WriteAllSetup { tasks, x_layout: Some(*prog.layout()), tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
        Algo::V => {
            let prog = AlgoV::new(&mut layout, tasks, p);
            let setup = WriteAllSetup { tasks, x_layout: None, tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
        Algo::W => {
            let prog = AlgoW::new(&mut layout, tasks, p);
            let setup = WriteAllSetup { tasks, x_layout: None, tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
        Algo::Interleaved => {
            let prog = Interleaved::new(&mut layout, tasks, p);
            let setup = WriteAllSetup {
                tasks,
                x_layout: Some(*prog.x_half().layout()),
                tree: Some(prog.x_half().tree()),
            };
            let budget = prog.required_budget();
            visitor.visit(&prog, &setup, budget)
        }
        Algo::XInPlace => {
            let prog = AlgoXInPlace::new(&mut layout, tasks, p);
            let setup = WriteAllSetup { tasks, x_layout: None, tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
        Algo::Acc(seed) => {
            let prog = AlgoAcc::new(&mut layout, tasks, AccOptions { seed });
            let setup = WriteAllSetup { tasks, x_layout: None, tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
    }
}

/// What a region-aware adversary constructor gets to see.
#[derive(Clone, Debug)]
pub struct WriteAllSetup {
    /// The Write-All instance (exposes the array region).
    pub tasks: WriteAllTasks,
    /// Algorithm X's layout, when the algorithm is X-based.
    pub x_layout: Option<XLayout>,
    /// The progress-tree shape, when the algorithm has one.
    pub tree: Option<HeapTree>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_to_their_algorithms() {
        for (name, algo) in [
            ("x", Algo::X),
            ("v", Algo::V),
            ("w", Algo::W),
            ("vx", Algo::Interleaved),
            ("interleaved", Algo::Interleaved),
            ("x-inplace", Algo::XInPlace),
            ("inplace", Algo::XInPlace),
            ("acc", Algo::Acc(0)),
        ] {
            assert_eq!(Algo::parse(name), Ok(algo), "{name}");
        }
        let err = Algo::parse("zzz").unwrap_err();
        assert_eq!(err.0, "unknown algorithm 'zzz' (expected one of: x, v, w, vx, x-inplace, acc)");
    }

    #[test]
    fn setup_exposes_the_x_layout_of_x_based_algorithms_only() {
        for name in Algo::NAMES {
            let algo = Algo::parse(name).unwrap();
            let setup = WriteAllSpec::new(algo, 16, 4).setup();
            assert_eq!(setup.tasks.x().len(), 16, "{name}");
            let x_based = matches!(algo, Algo::X | Algo::Interleaved);
            assert_eq!(setup.x_layout.is_some(), x_based, "{name}");
            assert!(setup.tree.is_some(), "{name}");
        }
    }
}
