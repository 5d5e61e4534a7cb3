//! HALO — Hardware Architecture for LOw-power brain-computer interfaces.
//!
//! A from-scratch Rust reproduction of *Hardware-Software Co-Design for
//! Brain-Computer Interfaces* (ISCA 2020): a general-purpose implantable
//! BCI architecture built as a heterogeneous array of processing elements
//! on a circuit-switched NoC, orchestrated by a RISC-V micro-controller,
//! under a 15 mW implant budget.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`signal`] — synthetic extracellular electrophysiology (the
//!   evaluation substrate standing in for the paper's non-human-primate
//!   recordings).
//! * [`kernels`] — every Table III kernel: FFT, XCOR, BBF, SVM, NEO, DWT,
//!   THR, GATE, LZ, LIC, MA, RC, AES, plus the composed LZ4/LZMA/DWTMA
//!   codecs with full decoders.
//! * [`pe`] — the processing-element framework: typed token streams, FIFO
//!   adapters, clock domains, one PE wrapper per kernel, the interleaver.
//! * [`noc`] — the programmable circuit-switched interconnect.
//! * [`riscv`] — the RV32IM(C) micro-controller simulator and assembler.
//! * [`power`] — the power/area model anchored at the paper's Table IV.
//! * [`core`] — the assembled system: eight task pipelines, the streaming
//!   runtime, controller firmware, metrics, and budget-checked power
//!   reports.
//! * [`telemetry`] — observability: per-PE counters, NoC/power timelines,
//!   and Chrome-trace export (see `docs/observability.md`).
//! * [`fleet`] — the fleet observatory: many concurrent patient sessions
//!   on a work-stealing scheduler, with merged Prometheus rollups, health
//!   triage, cross-session exemplar tracing, and seeded chaos campaigns.
//! * [`faults`] — deterministic fault injection and automated recovery:
//!   seeded fault plans, the lossy-radio ARQ channel, in-place fabric
//!   repair, degraded-mode supervision, and the chaos harness (see
//!   `docs/robustness.md`).
//!
//! # Quick start
//!
//! ```
//! use halo::core::{HaloConfig, HaloSystem, Task};
//! use halo::signal::{RecordingConfig, RegionProfile};
//!
//! let config = HaloConfig::new().channels(4);
//! let mut system = HaloSystem::new(Task::CompressLzma, config).unwrap();
//! let recording = RecordingConfig::new(RegionProfile::arm())
//!     .channels(4)
//!     .duration_ms(30)
//!     .generate(1);
//! let metrics = system.process(&recording).unwrap();
//! println!(
//!     "ratio {:.2}, {:.2} mW",
//!     metrics.compression_ratio().unwrap_or(1.0),
//!     system.power_report(&metrics).processing_mw()
//! );
//! ```

pub use halo_core as core;
pub use halo_faults as faults;
pub use halo_fleet as fleet;
pub use halo_kernels as kernels;
pub use halo_noc as noc;
pub use halo_pe as pe;
pub use halo_power as power;
pub use halo_riscv as riscv;
pub use halo_signal as signal;
pub use halo_telemetry as telemetry;
