//! Threads-as-ranks simulated collectives runtime.
//!
//! The paper runs on RCCL over Slingshot/Infinity Fabric; this crate supplies
//! the same collective API over OS threads. Each simulated GPU rank is one
//! thread; ranks exchange *real* data through per-(src, dst) mailboxes
//! (`mailbox.rs`: a queue, a spin-then-park receiver and a world-wide abort
//! flag), so all routing, dropping, RBD and SSMB logic executes with genuine
//! message passing and is validated end to end.
//!
//! Superimposed on the real execution is a **simulated clock**: every
//! collective prices itself with the [`xmoe_topology::CostModel`] using the
//! actual byte counts, and advances every participant's [`SimClock`] to
//! `max(participants' clocks) + collective_time`. Clock values are
//! piggybacked on the data messages, so the simulated timeline is
//! deterministic and identical across ranks regardless of OS scheduling.
//!
//! Entry point: [`SimCluster::run`] spawns one thread per rank and hands each
//! a [`RankCtx`] with the world [`Communicator`]. Sub-communicators come from
//! [`Communicator::split`].

pub mod clock;
pub mod comm;
/// The hang guard the integration suites use, for unit tests that spawn ranks.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;
mod mailbox;
pub mod runtime;
pub mod trace;

pub use clock::SimClock;
pub use comm::{CommError, Communicator, P2pStash, PendingOp, TrafficStats};
pub use runtime::{RankCtx, SimCluster};
pub use trace::{RankTrace, RecoveryStats, Span, StageStat, StepReport};
// Fault-injection types live in the topology crate (the plan shapes link
// costs) but are re-exported here because the communicator is their main
// consumer.
pub use xmoe_topology::{FaultEvent, FaultPlan, LinkTier};
