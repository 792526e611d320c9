//! [`RunHost`] — the machine-shape abstraction the session layer runs on.
//!
//! A [`RunSession`](crate::RunSession) does not care whether it is driving
//! the word-model [`Machine`] or the §3 [`SnapshotMachine`]; it needs a
//! handful of capabilities — run a [`RunSpec`] with a pause hook,
//! checkpoint, restore — expressed here over `&mut dyn Adversary`, which
//! the machines' `?Sized` entry points accept directly.

use rfsp_pram::snapshot::SnapshotMachine;
use rfsp_pram::{
    Adversary, Checkpoint, Machine, Observer, PramError, Program, RunControl, RunSpec, RunStatus,
    SharedMemory, SnapshotProgram,
};
use serde::{Deserialize, Serialize};

/// What the session layer needs from a machine.
pub trait RunHost {
    /// Run `spec` until completion or until `control` pauses at a tick
    /// boundary: [`Machine::run_with`] or [`SnapshotMachine::run_with`].
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    fn host_run(
        &mut self,
        spec: RunSpec<'_>,
        adversary: &mut dyn Adversary,
        observer: &mut dyn Observer,
        control: &mut dyn FnMut(u64) -> RunControl,
    ) -> Result<RunStatus, PramError>;

    /// Snapshot machine + adversary state at a tick boundary.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    fn host_save_checkpoint(&self, adversary: &dyn Adversary) -> Result<Checkpoint, PramError>;

    /// Rehydrate machine + adversary from a checkpoint.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    fn host_restore_checkpoint(
        &mut self,
        ck: &Checkpoint,
        adversary: &mut dyn Adversary,
    ) -> Result<(), PramError>;

    /// Current tick number.
    fn host_cycle(&self) -> u64;

    /// The shared memory (for postcondition checks).
    fn host_memory(&self) -> &SharedMemory;
}

impl<'p, P> RunHost for Machine<'p, P>
where
    P: Program + Sync,
    P::Private: Send + Serialize + Deserialize,
{
    fn host_run(
        &mut self,
        spec: RunSpec<'_>,
        adversary: &mut dyn Adversary,
        observer: &mut dyn Observer,
        control: &mut dyn FnMut(u64) -> RunControl,
    ) -> Result<RunStatus, PramError> {
        self.run_with(spec, adversary, observer, control)
    }

    fn host_save_checkpoint(&self, adversary: &dyn Adversary) -> Result<Checkpoint, PramError> {
        self.save_checkpoint(adversary)
    }

    fn host_restore_checkpoint(
        &mut self,
        ck: &Checkpoint,
        adversary: &mut dyn Adversary,
    ) -> Result<(), PramError> {
        self.restore_checkpoint(ck, adversary)
    }

    fn host_cycle(&self) -> u64 {
        self.cycle()
    }

    fn host_memory(&self) -> &SharedMemory {
        self.memory()
    }
}

impl<'p, P> RunHost for SnapshotMachine<'p, P>
where
    P: SnapshotProgram,
    P::Private: Serialize + Deserialize,
{
    fn host_run(
        &mut self,
        spec: RunSpec<'_>,
        adversary: &mut dyn Adversary,
        observer: &mut dyn Observer,
        control: &mut dyn FnMut(u64) -> RunControl,
    ) -> Result<RunStatus, PramError> {
        self.run_with(spec, adversary, observer, control)
    }

    fn host_save_checkpoint(&self, adversary: &dyn Adversary) -> Result<Checkpoint, PramError> {
        self.save_checkpoint(adversary)
    }

    fn host_restore_checkpoint(
        &mut self,
        ck: &Checkpoint,
        adversary: &mut dyn Adversary,
    ) -> Result<(), PramError> {
        self.restore_checkpoint(ck, adversary)
    }

    fn host_cycle(&self) -> u64 {
        self.cycle()
    }

    fn host_memory(&self) -> &SharedMemory {
        self.memory()
    }
}
