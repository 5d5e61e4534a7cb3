//! Fleet observatory: many HALO devices served by one observer.
//!
//! A clinical deployment is never one implant. A trial site runs dozens
//! to hundreds of concurrent patient sessions, each an independent
//! [`halo_core::HaloSystem`] with its own pipeline, seed, and safety
//! envelope — and the interesting operational questions are *fleet*
//! questions: what is the aggregate p99 frame latency, which three
//! sessions are in the worst shape, and what exactly happened inside the
//! one that tripped its watchdog?
//!
//! This crate answers them with four pieces:
//!
//! * [`session`] — [`SessionSpec`] describes one patient session
//!   (pipeline, seed, channel count, stream length); [`FleetSession`]
//!   builds it into a fully instrumented system (per-session
//!   [`Recorder`](halo_telemetry::Recorder) + `HealthMonitor` +
//!   escalation-only `Tracer`) fed incrementally through
//!   [`HaloSystem::push_block`](halo_core::HaloSystem::push_block).
//! * [`scheduler`] — a striped work-stealing scheduler interleaves
//!   batches from all sessions across worker threads, so N sessions make
//!   progress concurrently instead of serially.
//! * [`registry`] — completed sessions land in a sharded
//!   [`FleetRegistry`]; [`FleetRollup::from_reports`] reads each one's
//!   telemetry once and merges their counters, log-bucket latency
//!   histograms, power totals, and cycle profiles;
//!   [`registry::render_exposition`] renders that rollup as one
//!   Prometheus text exposition with `session`/`pipeline` labels plus
//!   pre-aggregated `halo_fleet_*` families.
//! * [`triage`] + [`exemplar`] — [`triage::render_triage`] ranks the
//!   same rollup's top-K worst sessions into a fleet post-mortem JSON
//!   that embeds the offending sessions' flight-recorder dumps verbatim; the
//!   [`exemplar::Elector`] deterministically elects ~1-in-N sessions per
//!   window for exemplar tracing so span-tree coverage scales with the
//!   fleet instead of with per-session overhead.
//! * [`campaign`] — seeded fleet-wide chaos: [`run_campaign`] drives N
//!   [`halo_faults::ChaosSession`]s concurrently and
//!   [`render_campaign`] rolls the verdicts into a bit-replayable
//!   triage document with per-session outcomes and fleet totals of
//!   detected faults and in-place repairs.
//!
//! Everything is std-only and deterministic: the same fleet seed
//! produces byte-identical expositions regardless of worker count.
//!
//! # Example
//!
//! ```
//! use halo_fleet::{FleetConfig, SessionSpec};
//!
//! let config = FleetConfig::default().threads(2).batch_frames(32);
//! let specs = SessionSpec::mixed(8, &config);
//! let registry = halo_fleet::run(specs, &config).unwrap();
//! let reports = registry.into_reports();
//! assert_eq!(reports.len(), 8);
//! let exposition = halo_fleet::registry::render_exposition(&reports);
//! assert!(exposition.contains("halo_fleet_frames_total"));
//! ```

pub mod campaign;
pub mod exemplar;
pub mod registry;
pub mod scheduler;
pub mod session;
pub mod triage;

pub use campaign::{
    render_campaign, run_campaign, CampaignConfig, CampaignSessionReport, CampaignTotals,
};
pub use exemplar::{Elector, ExemplarConfig, ExemplarTrace};
pub use registry::{fleet_profile, FleetRegistry, FleetRollup, SessionDigest};
pub use scheduler::{run, FleetRunStats};
pub use session::{FleetConfig, FleetSession, SessionReport, SessionSpec};
