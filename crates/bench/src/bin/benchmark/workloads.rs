//! The four workloads: inputs made from the seed, bring-up, one round,
//! and the output checks every round is held to.
//!
//! Every workload is a closed loop with one caller and no think time.
//! Device workloads push 1 ms chunks through `HaloSystem::push_block` on
//! one thread; the fleet workload hands 64 sessions to the library's
//! scheduler on `min(2, nproc)` workers.

use std::sync::Arc;
use std::time::Instant;

use halo_core::tasks::{seizure, spike};
use halo_core::{HaloConfig, HaloSystem, SystemError, Task, TaskMetrics};
use halo_fleet::registry::{fleet_profile, render_exposition, FleetRegistry};
use halo_fleet::scheduler::{run_sessions, FleetRunStats};
use halo_fleet::session::train_shared_svm;
use halo_fleet::triage::render_triage;
use halo_fleet::{FleetConfig, FleetSession, SessionReport, SessionSpec};
use halo_kernels::{Aes128, DwtmaCodec, Lz4Codec, LzmaCodec};
use halo_signal::{Recording, RecordingConfig, RegionProfile};
use halo_telemetry::{HealthConfig, HealthMonitor, NullSink, Recorder, Tracer};

use crate::stats::{median, Spans};

/// Frames in one pushed chunk: 1 ms at 30 kHz.
pub const CHUNK_FRAMES: usize = 30;

/// Bring-ups timed per round when one takes under a millisecond.
const SHORT_SETUP_REPEATS: usize = 25;

/// Sessions in the fleet workload.
const FLEET_SESSIONS: usize = 64;

/// Frames each fleet session streams (0.5 s).
const FLEET_FRAMES: usize = 15_000;

/// Sessions ranked by the fleet triage report.
pub const TRIAGE_K: usize = 8;

/// One pipeline run of a device workload.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Pipeline key used in metric names (`lz4`, `seizure`, ...).
    pub key: &'static str,
    /// The pipeline.
    pub task: Task,
    /// Index into [`Device::recordings`].
    pub rec: usize,
}

/// The metric-name key of a pipeline.
fn key(task: Task) -> &'static str {
    match task {
        Task::SpikeDetectNeo => "neo",
        Task::SpikeDetectDwt => "dwt",
        Task::CompressLz4 => "lz4",
        Task::CompressLzma => "lzma",
        Task::CompressDwtma => "dwtma",
        Task::MovementIntent => "move",
        Task::SeizurePrediction => "seizure",
        Task::EncryptRaw => "aes",
    }
}

/// What a bring-up must learn before the devices can be configured.
#[derive(Debug)]
enum Calibration {
    None,
    /// Spike thresholds from a spike-free baseline recording.
    SpikeThresholds(Recording),
    /// A seizure SVM trained on a held-out labeled recording.
    Svm(Recording),
    /// The fleet's shared seizure SVM.
    FleetSvm(Box<FleetConfig>),
}

/// A set of pipeline runs over pre-generated recordings.
#[derive(Debug)]
pub struct Device {
    /// Recordings the streams read, generated before timing.
    pub recordings: Vec<Recording>,
    /// Pipeline runs of one round, in order.
    pub streams: Vec<Stream>,
    /// Configuration before calibration.
    pub base: HaloConfig,
    calibration: Calibration,
    /// Whether devices carry their deployed instrumentation: a health
    /// watchdog (record policy) and a 1-in-64 sampled tracer.
    deployed: bool,
    seed: u64,
}

/// The fleet workload: 64 mixed sessions on the library's scheduler.
#[derive(Debug)]
struct Fleet {
    config: FleetConfig,
    specs: Vec<SessionSpec>,
}

/// A workload ready to run.
#[derive(Debug)]
pub struct Workload {
    /// The pipelines a round streams on one thread — or, for the fleet,
    /// its eight pipelines as bare devices over the first eight sessions'
    /// recordings, which only the per-layer decomposition runs.
    pub device: Device,
    /// The fleet's sessions, for the fleet workload.
    fleet: Option<Fleet>,
}

/// What one round did.
#[derive(Default)]
pub struct Round {
    /// Bring-up time (calibration plus device construction).
    pub setup_ns: u64,
    /// Host time spent streaming (and, for the fleet, reporting).
    pub host_ns: u64,
    /// Signal streamed, in seconds.
    pub signal_s: f64,
    /// Output digest per operation (pipeline run or session); `None` for
    /// one that failed.
    pub digests: Vec<Option<u64>>,
    /// What each device stream produced, `None` for one that failed.
    pub outputs: Vec<Option<Output>>,
    /// Failed operations and output checks, described.
    pub problems: Vec<String>,
    /// Fleet session reports, id order.
    pub reports: Vec<SessionReport>,
    /// Fleet scheduler statistics.
    pub fleet_stats: Option<FleetRunStats>,
    /// The fleet exposition rendered this round.
    pub exposition: String,
}

/// The modeled outputs of one device stream.
#[derive(Debug, Clone, Copy)]
pub struct Output {
    /// `PowerReport::device_mw()` of the run.
    pub device_mw: f64,
    /// Raw input bytes.
    pub input_bytes: u64,
    /// Bytes handed to the radio.
    pub radio_bytes: u64,
}

fn recording(profile: RegionProfile, channels: usize, frames: usize) -> RecordingConfig {
    RecordingConfig::new(profile)
        .channels(channels)
        .samples(frames)
}

impl Workload {
    /// Generates the inputs of workload `name` from `seed`. `threads` is
    /// the fleet's worker count.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`crate::manifest::WORKLOADS`].
    pub fn new(name: &str, seed: u64, threads: usize) -> Workload {
        let config = HaloConfig::new();
        let ch = config.channels;
        let ms = |n: usize| n * config.sample_rate_hz as usize / 1000;
        let window = config.feature_window_frames();
        let device = |recordings, streams: &[(Task, usize)], calibration, deployed| Device {
            recordings,
            streams: streams
                .iter()
                .map(|&(task, rec)| Stream {
                    key: key(task),
                    task,
                    rec,
                })
                .collect(),
            base: config.clone(),
            calibration,
            deployed,
            seed,
        };
        let device = match name {
            // Arm and leg vary compressibility; every codec runs on both.
            "compress-96ch" => device(
                vec![
                    recording(RegionProfile::arm(), ch, ms(500)).generate(seed),
                    recording(RegionProfile::leg(), ch, ms(500)).generate(seed ^ 0x1e6),
                ],
                &[
                    (Task::CompressLz4, 0),
                    (Task::CompressLz4, 1),
                    (Task::CompressLzma, 0),
                    (Task::CompressLzma, 1),
                    (Task::CompressDwtma, 0),
                    (Task::CompressDwtma, 1),
                ],
                Calibration::None,
                false,
            ),
            "stream-96ch" => device(
                vec![recording(RegionProfile::arm(), ch, ms(1000)).generate(seed)],
                &[
                    (Task::SpikeDetectNeo, 0),
                    (Task::SpikeDetectDwt, 0),
                    (Task::EncryptRaw, 0),
                ],
                Calibration::SpikeThresholds(
                    recording(RegionProfile::arm().without_spikes(), ch, ms(50))
                        .generate(seed ^ 0xba5e),
                ),
                false,
            ),
            // Eight feature windows with a seizure in windows 4-6; the SVM
            // is trained on a recording of another seed.
            "closedloop-96ch" => device(
                vec![recording(RegionProfile::arm(), ch, 8 * window)
                    .seizure_at(4 * window, 7 * window)
                    .generate(seed)],
                &[(Task::SeizurePrediction, 0), (Task::MovementIntent, 0)],
                Calibration::Svm(
                    recording(RegionProfile::arm(), ch, 6 * window)
                        .seizure_at(2 * window, 4 * window)
                        .generate(seed ^ 0x7a1e),
                ),
                true,
            ),
            "fleet-8ch" => {
                let (fleet, probe) = Fleet::new(seed, threads);
                return Workload {
                    device: probe,
                    fleet: Some(fleet),
                };
            }
            other => panic!("unknown workload {other}"),
        };
        Workload {
            device,
            fleet: None,
        }
    }

    /// Whether this is the fleet workload.
    pub fn is_fleet(&self) -> bool {
        self.fleet.is_some()
    }

    /// Runs one round: bring-up, then every operation once.
    pub fn round(&self, spans: &mut Spans, chunk_ns: &mut Vec<f64>) -> Round {
        match &self.fleet {
            Some(f) => f.round(spans, f.config.threads),
            None => self.device.round(spans, chunk_ns, false),
        }
    }

    /// Runs the untimed verification round and checks its outputs; on
    /// success returns the round, whose digests every timed round must
    /// reproduce.
    pub fn verify(&self) -> Result<Round, String> {
        let round = match &self.fleet {
            Some(f) => f.verify(),
            None => self
                .device
                .round(&mut Spans::new(false), &mut Vec::new(), true),
        };
        match round.problems.first() {
            Some(p) => Err(p.clone()),
            None => Ok(round),
        }
    }
}

impl Device {
    /// The configuration of each stream after calibration.
    ///
    /// # Errors
    ///
    /// Returns the calibration's error.
    pub fn calibrated_configs(&self) -> Result<Vec<HaloConfig>, SystemError> {
        let base = &self.base;
        let (mut thresholds, mut svm) = (None, None);
        match &self.calibration {
            Calibration::None => {}
            Calibration::SpikeThresholds(baseline) => {
                let threshold = |task| spike::calibrate_threshold(task, base, baseline, 1.5);
                thresholds = Some((
                    threshold(Task::SpikeDetectNeo)?,
                    threshold(Task::SpikeDetectDwt)?,
                ));
            }
            Calibration::Svm(train) => svm = Some(seizure::train(base, &[train])?),
            Calibration::FleetSvm(fleet) => svm = Some(train_shared_svm(fleet)?),
        }
        Ok(self
            .streams
            .iter()
            .map(|s| match (s.task, thresholds, &svm) {
                (Task::SpikeDetectNeo, Some((neo, _)), _) => base.clone().spike_threshold(neo),
                (Task::SpikeDetectDwt, Some((_, dwt)), _) => base.clone().spike_threshold(dwt),
                (Task::SeizurePrediction, _, Some(svm)) => base.clone().with_svm(svm.clone()),
                _ => base.clone(),
            })
            .collect())
    }

    /// Calibrates and builds one device per stream, as deployed.
    fn bring_up(
        &self,
        spans: &mut Spans,
    ) -> Result<(Vec<HaloConfig>, Vec<HaloSystem>), SystemError> {
        let (configs, _) = spans.time("calibrate", || self.calibrated_configs());
        let configs = configs?;
        let mut systems = Vec::with_capacity(self.streams.len());
        for (stream, config) in self.streams.iter().zip(&configs) {
            let (sys, _) = spans.time("system.new", || {
                HaloSystem::new(stream.task, config.clone())
            });
            let mut sys = sys?;
            if self.deployed {
                let recorder =
                    Arc::new(Recorder::new(4096).with_sample_rate_hz(config.sample_rate_hz));
                sys.attach_health(Arc::new(HealthMonitor::new(
                    recorder,
                    HealthConfig::default(),
                )));
                sys.attach_tracing(Arc::new(Tracer::new(self.seed, 64)));
            }
            systems.push(sys);
        }
        Ok((configs, systems))
    }

    /// One round; with `check`, every stream's output is also checked
    /// (before its metrics are dropped) and failures land in
    /// [`Round::problems`].
    fn round(&self, spans: &mut Spans, chunk_ns: &mut Vec<f64>, check: bool) -> Round {
        let mut round = Round::default();
        let t = spans.begin("bring_up");
        let devices = self.bring_up(spans);
        let mut setup_ns = vec![spans.end(t) as f64];
        // A sub-millisecond bring-up is at the mercy of one page fault:
        // repeat it and keep the median.
        while setup_ns[0] < 1e6 && setup_ns.len() < SHORT_SETUP_REPEATS {
            let t = Instant::now();
            drop(self.bring_up(&mut Spans::new(false)));
            setup_ns.push(t.elapsed().as_nanos() as f64);
        }
        round.setup_ns = median(&setup_ns) as u64;
        let (configs, systems) = match devices {
            Ok(devices) => devices,
            Err(e) => {
                round.digests = vec![None; self.streams.len()];
                round.problems.push(format!("bring-up failed: {e}"));
                return round;
            }
        };
        for ((stream, config), mut sys) in self.streams.iter().zip(&configs).zip(systems) {
            let rec = &self.recordings[stream.rec];
            round.signal_s += rec.samples_per_channel() as f64 / rec.sample_rate() as f64;
            let t = spans.begin(stream.key);
            let mut result = Ok(());
            for chunk in rec.samples().chunks(CHUNK_FRAMES * rec.channels()) {
                let c = spans.begin("push_block");
                result = sys.push_block(std::hint::black_box(chunk));
                let ns = spans.end(c);
                chunk_ns.push(ns as f64);
                round.host_ns += ns;
                if result.is_err() {
                    break;
                }
            }
            let f = spans.begin("finalize");
            let metrics = result.and_then(|()| sys.finalize());
            round.host_ns += spans.end(f);
            if let Some(tracer) = sys.tracer() {
                release(tracer);
            }
            let what = format!("{} on recording {}", stream.task, stream.rec);
            let out = match metrics {
                Ok(m) => {
                    let (power, _) = spans.time("power_report", || sys.power_report(&m));
                    if check && !self.output_ok(stream, config, &m) {
                        round.problems.push(format!("{what}: output check failed"));
                    }
                    round.digests.push(Some(digest(&m)));
                    Some(Output {
                        device_mw: power.device_mw(),
                        input_bytes: m.input_bytes,
                        radio_bytes: m.radio_bytes,
                    })
                }
                Err(e) => {
                    round.problems.push(format!("{what}: {e}"));
                    round.digests.push(None);
                    None
                }
            };
            spans.end(t);
            round.outputs.push(out);
        }
        round
    }

    /// Whether one stream's output is right for its input.
    fn output_ok(&self, stream: &Stream, config: &HaloConfig, m: &TaskMetrics) -> bool {
        let rec = &self.recordings[stream.rec];
        let expected = || interleaved(rec, config.interleave_depth);
        match stream.task {
            Task::CompressLz4 => Lz4Codec::new(config.lz_history).is_ok_and(|c| {
                c.with_block_size(config.block_bytes)
                    .decompress(&m.radio_stream)
                    .is_ok_and(|d| d.into_iter().eq(expected()))
            }),
            Task::CompressLzma => LzmaCodec::new(config.lz_history).is_ok_and(|c| {
                c.with_block_size(config.block_bytes)
                    .decompress(&m.radio_stream)
                    .is_ok_and(|d| d.into_iter().eq(expected()))
            }),
            Task::CompressDwtma => DwtmaCodec::new(config.dwt_levels_compress).is_ok_and(|c| {
                c.with_block_samples(config.block_bytes / 2)
                    .decompress(&m.radio_stream)
                    .is_ok_and(|d| d.into_iter().flat_map(i16::to_le_bytes).eq(expected()))
            }),
            Task::EncryptRaw => {
                let plain = Aes128::new(config.aes_key).decrypt_ecb(&m.radio_stream);
                let raw = rec.samples().iter().flat_map(|s| s.to_le_bytes());
                plain.len() >= 2 * rec.samples().len()
                    && plain.into_iter().zip(raw).all(|(p, r)| p == r)
            }
            Task::SpikeDetectNeo | Task::SpikeDetectDwt => {
                m.radio_bytes > 0 && m.radio_bytes < m.input_bytes
            }
            // Stimulation must land while the seizure is detectable:
            // decisions close at window ends, so windows 4-6 of the
            // seizure report between frames 4w and 8w.
            Task::SeizurePrediction => {
                let w = config.feature_window_frames() as u64;
                m.stim_events
                    .iter()
                    .any(|e| (4 * w..8 * w).contains(&e.frame))
            }
            Task::MovementIntent => m.frames == rec.samples_per_channel() as u64,
        }
    }
}

impl Fleet {
    /// The fleet and its decomposition probe.
    fn new(seed: u64, threads: usize) -> (Fleet, Device) {
        let config = FleetConfig::default()
            .seed(seed)
            .frames_per_session(FLEET_FRAMES)
            .threads(threads);
        let specs = SessionSpec::mixed(FLEET_SESSIONS, &config);
        // The first eight sessions cover the eight pipelines; regenerate
        // their recordings exactly as `FleetSession::build` does.
        let base = HaloConfig::small_test(config.channels).channels(config.channels);
        let window = base.feature_window_frames();
        let probe_specs = &specs[..Task::all().len()];
        let recordings = probe_specs
            .iter()
            .map(|spec| {
                let mut rec = recording(RegionProfile::arm(), spec.channels, spec.frames);
                if spec.task.uses_stimulation() && spec.frames > 4 * window {
                    rec = rec.seizure_at(2 * window, spec.frames / 2);
                }
                rec.generate(spec.patient_seed)
            })
            .collect();
        let streams = probe_specs
            .iter()
            .enumerate()
            .map(|(rec, spec)| Stream {
                key: key(spec.task),
                task: spec.task,
                rec,
            })
            .collect();
        let probe = Device {
            recordings,
            streams,
            base,
            calibration: Calibration::FleetSvm(Box::new(config.clone())),
            deployed: false,
            seed,
        };
        (Fleet { config, specs }, probe)
    }

    fn round(&self, spans: &mut Spans, threads: usize) -> Round {
        let mut round = Round::default();
        let config = self.config.clone().threads(threads);
        let t = spans.begin("bring_up");
        let sessions: Result<Vec<FleetSession>, SystemError> = (|| {
            let (svm, _) = spans.time("train_shared_svm", || train_shared_svm(&config));
            let svm = svm?;
            self.specs
                .iter()
                .map(|spec| {
                    spans
                        .time("fleet.build", || {
                            FleetSession::build(spec.clone(), &config, Some(&svm))
                        })
                        .0
                })
                .collect()
        })();
        round.setup_ns = spans.end(t);
        let sessions = match sessions {
            Ok(sessions) => sessions,
            Err(e) => {
                round.digests = vec![None; self.specs.len()];
                round.problems.push(format!("fleet bring-up failed: {e}"));
                return round;
            }
        };
        let t = spans.begin("fleet");
        let registry = FleetRegistry::new(config.shards);
        let (stats, _) = spans.time("run_sessions", || {
            run_sessions(sessions, &config, &registry)
        });
        let reports = registry.into_reports();
        let (exposition, _) = spans.time("render_exposition", || render_exposition(&reports));
        let (triage, _) = spans.time("render_triage", || render_triage(&reports, TRIAGE_K));
        let (profile, _) = spans.time("fleet_profile", || fleet_profile(&reports));
        round.host_ns = spans.end(t);
        std::hint::black_box((&triage, &profile));
        for r in &reports {
            release(&r.tracer);
        }
        round.signal_s = reports.iter().map(|r| r.frames_pushed as f64).sum::<f64>()
            / config.sample_rate_hz as f64;
        round.digests = reports
            .iter()
            .map(|r| r.metrics.as_ref().filter(|_| r.completed()).map(digest))
            .collect();
        round.fleet_stats = Some(stats);
        round.exposition = exposition;
        round.reports = reports;
        round
    }

    /// A single-worker round whose sessions must all complete, and whose
    /// exposition a round on the configured workers must reproduce.
    fn verify(&self) -> Round {
        let mut round = self.round(&mut Spans::new(false), 1);
        for r in round.reports.iter().filter(|r| !r.completed()) {
            round.problems.push(format!(
                "fleet session {} did not complete: {:?}",
                r.spec.id, r.error
            ));
        }
        if round.reports.len() != self.specs.len() {
            round.problems.push(format!(
                "{} of {} sessions reported",
                round.reports.len(),
                self.specs.len()
            ));
        }
        round.reports.clear();
        if self.config.threads != 1
            && self
                .round(&mut Spans::new(false), self.config.threads)
                .exposition
                != round.exposition
        {
            round.problems.push(format!(
                "fleet exposition differs between 1 and {} threads",
                self.config.threads
            ));
        }
        round
    }
}

/// Breaks the reference cycle between an instrumented device's tracer and
/// its watchdog, once the device is done: the tracer streams spans into
/// the watchdog's sink chain, and the watchdog holds the tracer to
/// escalate it, so neither is ever freed. Left alone, every round would
/// leak its instruments and grow the process by tens of MB per second on
/// `fleet-8ch`, touching fresh pages whose cost follows the host's load.
fn release(tracer: &Tracer) {
    tracer.set_sink(Arc::new(NullSink));
}

/// The interleaver's output order: depth-sample runs, channel by channel,
/// as little-endian bytes.
pub fn interleaved(rec: &Recording, depth: usize) -> impl Iterator<Item = u8> + '_ {
    let n = rec.samples_per_channel();
    (0..n).step_by(depth).flat_map(move |t| {
        (0..rec.channels()).flat_map(move |c| {
            (t..(t + depth).min(n)).flat_map(move |tt| rec.frame(tt)[c].to_le_bytes())
        })
    })
}

/// FNV-1a over a run's functional outputs: the radio stream, the
/// detector flags and the stimulation frames.
fn digest(m: &TaskMetrics) -> u64 {
    let mut h = Fnv::default();
    h.bytes(&m.frames.to_le_bytes());
    h.bytes(&m.radio_stream);
    for &(frame, flag) in &m.detections {
        h.bytes(&frame.to_le_bytes());
        h.bytes(&[flag as u8]);
    }
    for e in &m.stim_events {
        h.bytes(&e.frame.to_le_bytes());
    }
    h.0
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
