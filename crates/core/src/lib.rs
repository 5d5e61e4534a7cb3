//! HALO: a general-purpose, ultra-low-power architecture for implantable
//! brain-computer interfaces.
//!
//! This crate assembles the substrates — kernels, processing elements, the
//! circuit-switched NoC, the RISC-V micro-controller, and the power model —
//! into the system of the ISCA 2020 paper:
//!
//! * [`Task`] — the eight runtime-selectable BCI tasks of Figure 2
//!   (spike detection via NEO or DWT, compression via LZ4 / LZMA / DWTMA,
//!   movement intent, seizure prediction, raw encryption).
//! * [`HaloConfig`] — the doctor/technician-tunable parameters of Table
//!   III (LZ history, block size, interleave depth, DWT depth, FFT
//!   geometry, SVM weights, thresholds, AES key), defaulting to the §V-A
//!   design point: 96 channels × 30 kHz × 16 bit ≈ 46 Mbps.
//! * [`Pipeline`] / [`Runtime`] — a task's PE graph on the circuit-switched
//!   fabric and the streaming engine that pushes ADC frames through it.
//! * [`Controller`] — the RV32 micro-controller: actual firmware programs
//!   the interconnect switches through MMIO and issues closed-loop
//!   stimulation commands.
//! * [`HaloSystem`] — the device: configure a task, stream a recording,
//!   collect [`TaskMetrics`] and a [`PowerReport`] checked against the
//!   15 mW / 12 mW budgets.
//! * [`DistributedBci`] — the §VII extension: a seizure detector at one
//!   brain sub-center alerting a stimulation unit at another over a
//!   low-bandwidth RF link.
//!
//! # Example
//!
//! ```
//! use halo_core::{HaloConfig, HaloSystem, Task};
//! use halo_signal::{RecordingConfig, RegionProfile};
//!
//! let config = HaloConfig::new().channels(4);
//! let mut system = HaloSystem::new(Task::SpikeDetectNeo, config).unwrap();
//! let recording = RecordingConfig::new(RegionProfile::arm())
//!     .channels(4)
//!     .duration_ms(40)
//!     .generate(7);
//! let metrics = system.process(&recording).unwrap();
//! assert!(metrics.radio_bytes < recording.to_bytes_le().len() as u64);
//! let power = system.power_report(&metrics);
//! assert!(power.within_budget());
//! ```

pub mod arq;
pub mod config;
pub mod controller;
pub mod distributed;
pub mod metrics;
pub mod pipeline;
pub mod power;
pub mod runtime;
pub mod system;
pub mod task;
pub mod tasks;
pub mod trace;

pub use arq::{
    ArqChannel, ArqConfig, ArqCounters, ArqError, ArqLink, ChannelVerdict, LossyChannel,
    PerfectChannel,
};
pub use config::HaloConfig;
pub use controller::{Controller, StimCommand};
pub use distributed::{
    AlertLink, DistributedBci, DistributedMetrics, RemoteStimEvent, StimulationUnit,
    MAX_STIM_CHANNELS,
};
pub use metrics::{PeActivity, TaskMetrics};
pub use pipeline::{Pipeline, PipelineError};
pub use power::PowerReport;
pub use runtime::{Adapter, Runtime, RuntimeError, SlotTotals, SourceRoute};
pub use system::{HaloSystem, SystemError};
pub use task::Task;
pub use trace::{capture, replay, ReplayError};
