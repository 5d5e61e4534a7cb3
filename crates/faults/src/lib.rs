//! Deterministic fault injection and automated recovery for HALO.
//!
//! An implant that only works when nothing goes wrong is a prototype.
//! This crate chaos-tests the modeled device end to end, from radio
//! bit-flips to fleet-wide brownouts, with every injection seeded and
//! replayable bit-for-bit:
//!
//! * [`plan`] — [`FaultPlan`] generates a declarative, seeded schedule
//!   of device faults (FIFO bit flips and overflow pressure, transient
//!   PE output corruption, NoC link degradation, rogue MMIO switch
//!   words), brownout windows, and a radio loss model from one seed.
//! * [`channel`] — [`PlanChannel`] turns the radio loss model into an
//!   [`ArqChannel`](halo_core::ArqChannel) for the core ARQ link:
//!   sequence numbers, CRC-16, bounded retransmission with exponential
//!   backoff.
//! * [`checkpoint`] — [`Checkpoint`] snapshots a run mid-flight on the
//!   binary-stable trace-log format and restores it byte-identically.
//! * [`degraded`] — [`DegradedSupervisor`] swaps to a registered
//!   low-power fallback pipeline when a brownout shrinks the budget,
//!   and restores the primary when the envelope recovers.
//! * [`harness`] — [`ChaosSession`] drives one device through a plan,
//!   applies the matching recovery per fault class, and renders the
//!   strict verdict: recovered (byte-identical to a fault-free
//!   reference), degraded (marked), or dead (never acceptable).
//!
//! This crate alone decides when a fault fires. The device half — the
//! one call that applies faults
//! ([`HaloSystem::inject_faults`](halo_core::HaloSystem::inject_faults)),
//! the typed integrity errors, and the `EventKind::Fault` telemetry —
//! lives in `halo-core`/`halo-telemetry` and costs the streaming runtime
//! nothing. Fleet-scale campaigns live in `halo-fleet`.

pub mod channel;
pub mod checkpoint;
pub mod degraded;
pub mod harness;
pub mod plan;

pub use channel::PlanChannel;
pub use checkpoint::Checkpoint;
pub use degraded::{DegradedSupervisor, SupervisorAction};
pub use harness::{ChaosConfig, ChaosReport, ChaosSession, Outcome, RecoveryEvent};
pub use plan::{BrownoutWindow, FaultPlan, FaultPlanConfig, RadioPlan, ScheduledFault};
