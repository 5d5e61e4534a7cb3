//! Distributed multi-HALO deployments (§VII).
//!
//! "We envision the need for multiple HALO devices on different brain
//! sub-centers, with one device determining the onset of a seizure, and
//! another device used to stimulate tissue on another brain region,
//! thereby mitigating … the spread of seizures across sub-centers."
//!
//! This module implements that two-device topology: a *detector* device
//! running the seizure-prediction pipeline at one site, a *stimulation
//! unit* at another, and a low-bandwidth RF alert link between them. Both
//! devices carry their own 15 mW budget; the link budget rides on the
//! detector (it transmits) with negligible receive cost at the
//! stimulator.

use crate::arq::{ArqChannel, ArqConfig, ArqCounters, ArqError, ArqLink, LossyChannel};
use crate::config::HaloConfig;
use crate::controller::{Controller, ControllerError, StimCommand};
use crate::metrics::TaskMetrics;
use crate::power::PowerReport;
use crate::system::{HaloSystem, SystemError};
use crate::task::Task;
use halo_power::{stimulation_power_mw, RadioModel};
use halo_signal::Recording;

/// The inter-device alert link. Alerts ride the core ARQ layer
/// ([`ArqLink`]): sequence numbers, CRC-16, bounded retransmission with
/// exponential backoff — a transmission loss retransmits (counted in
/// [`DistributedMetrics`]), and an *unrecoverable* loss surfaces as
/// [`SystemError::AlertLoss`] instead of vanishing silently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertLink {
    /// Radio energy per bit (same 200 pJ/bit class as the exfiltration
    /// radio).
    pub energy_pj_per_bit: f64,
    /// One-way latency in milliseconds (RF wake-up plus decode).
    pub latency_ms: f64,
    /// Bytes per alert message (site id, sequence, command).
    pub alert_bytes: usize,
    /// Probability (per mille) that a transmission is lost in flight.
    pub loss_permille: u32,
    /// Seed of the deterministic loss process.
    pub seed: u64,
    /// ARQ tuning (retransmit timeout, retry budget, queue bounds).
    pub arq: ArqConfig,
}

impl Default for AlertLink {
    fn default() -> Self {
        Self {
            energy_pj_per_bit: 200.0,
            latency_ms: 5.0,
            alert_bytes: 8,
            loss_permille: 0,
            seed: 0x41E7,
            arq: ArqConfig::default(),
        }
    }
}

/// Most electrodes one stimulation engine drives (§V-A).
pub const MAX_STIM_CHANNELS: usize = 16;

/// The remote device: an RF receiver, a micro-controller, and the
/// stimulation engine — no recording pipeline.
#[derive(Debug)]
pub struct StimulationUnit {
    controller: Controller,
    stim_channels: usize,
    alerts_handled: u64,
}

impl StimulationUnit {
    /// Creates a unit driving `stim_channels` electrodes
    /// (≤ [`MAX_STIM_CHANNELS`]).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::StimChannels`] if `stim_channels` exceeds
    /// the electrode limit — rejected here so a mis-sized [`HaloConfig`]
    /// surfaces at construction instead of panicking inside the
    /// stimulation firmware on the first alert.
    pub fn new(stim_channels: usize) -> Result<Self, SystemError> {
        if stim_channels > MAX_STIM_CHANNELS {
            return Err(SystemError::StimChannels {
                got: stim_channels,
                max: MAX_STIM_CHANNELS,
            });
        }
        Ok(Self {
            controller: Controller::new(),
            stim_channels,
            alerts_handled: 0,
        })
    }

    /// Handles one alert: run the stimulation firmware.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError`] if the firmware faults.
    pub fn handle_alert(&mut self) -> Result<Vec<StimCommand>, ControllerError> {
        self.alerts_handled += 1;
        self.controller.stimulate(self.stim_channels, 500)
    }

    /// Alerts handled so far.
    pub fn alerts_handled(&self) -> u64 {
        self.alerts_handled
    }

    /// Steady-state device power: idle controller + chronic stimulation
    /// allowance (receive-side radio cost is negligible at alert rates).
    pub fn power_mw(&self) -> f64 {
        let a = halo_power::controller_anchor();
        let control = (a.logic_leak_mw + a.mem_leak_mw)
            + (a.logic_dyn_mw + a.mem_dyn_mw) * crate::power::CONTROLLER_STEADY_ACTIVITY;
        control + stimulation_power_mw(self.stim_channels)
    }
}

/// One cross-device stimulation event.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteStimEvent {
    /// Frame at which the detector fired.
    pub detect_frame: u64,
    /// Wall-clock stimulation time relative to the detection, ms (link
    /// latency plus firmware).
    pub latency_ms: f64,
    /// Commands executed at the remote site.
    pub commands: Vec<StimCommand>,
}

/// Metrics of a distributed run.
#[derive(Debug)]
pub struct DistributedMetrics {
    /// The detector device's own metrics.
    pub detector: TaskMetrics,
    /// Cross-device stimulation events.
    pub remote_stims: Vec<RemoteStimEvent>,
    /// Alert payload bytes sent over the inter-device link.
    pub link_bytes: u64,
    /// Alerts offered to the link.
    pub alerts_sent: u64,
    /// Alerts delivered to the remote site (after any retransmission).
    pub alerts_delivered: u64,
    /// Transmissions presumed lost in flight and recovered by
    /// retransmission — every drop is counted, never silent.
    pub link_drops: u64,
    /// Full ARQ counters of the alert link.
    pub arq: ArqCounters,
    /// Bytes on the wire including ARQ framing and every retransmission
    /// attempt (feeds the detector's radio-power accounting).
    pub wire_bytes: u64,
}

/// A two-site deployment: seizure detector at site A, stimulation unit at
/// site B.
pub struct DistributedBci {
    detector: HaloSystem,
    stimulator: StimulationUnit,
    link: AlertLink,
}

impl std::fmt::Debug for DistributedBci {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedBci")
            .field("link", &self.link)
            .finish_non_exhaustive()
    }
}

impl DistributedBci {
    /// Builds the deployment. The detector runs seizure prediction with
    /// `config` (which should carry trained SVM weights); local
    /// stimulation is disabled — stimulation happens at the remote site.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if the detector device fails to configure.
    pub fn new(mut config: HaloConfig, link: AlertLink) -> Result<Self, SystemError> {
        let stim_channels = config.stim_channels;
        // The detector site does not stimulate; zero its local allowance.
        config.stim_channels = 0;
        let stimulator = StimulationUnit::new(stim_channels)?;
        let detector = HaloSystem::new(Task::SeizurePrediction, config)?;
        Ok(Self {
            detector,
            stimulator,
            link,
        })
    }

    /// Streams a recording at the detector site; every (de-bounced)
    /// positive detection sends an alert across the ARQ-protected link
    /// and stimulates at the remote site on delivery.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] on streaming or firmware failure, and
    /// [`SystemError::AlertLoss`] if any alert is lost beyond the ARQ
    /// layer's ability to recover it.
    pub fn process(&mut self, recording: &Recording) -> Result<DistributedMetrics, SystemError> {
        // The alert link loses a seeded fraction of data frames and acks
        // and delivers the rest in the frame they were sent.
        let channel = LossyChannel::new(self.link.seed, self.link.loss_permille, 0, 0);
        self.process_over(recording, channel)
    }

    /// [`DistributedBci::process`] over a caller-supplied transmission
    /// medium — chaos tests inject drop/reorder channels here.
    ///
    /// # Errors
    ///
    /// As [`DistributedBci::process`].
    pub fn process_over<C: ArqChannel>(
        &mut self,
        recording: &Recording,
        channel: C,
    ) -> Result<DistributedMetrics, SystemError> {
        let detector = self.detector.process(recording)?;
        let config = self.detector.config();
        let window = config.feature_window_frames() as u64;
        let warmup = (config.warmup_windows as u64) * window;
        let ms_per_frame = 1000.0 / config.sample_rate_hz as f64;
        let payload_len = self.link.alert_bytes.max(8);
        let mut link = ArqLink::new(self.link.arq, channel);
        let mut remote_stims = Vec::new();
        let mut link_bytes = 0u64;
        let mut alerts_sent = 0u64;
        let mut lost = 0u64;
        let mut last: Option<u64> = None;
        for &(frame, flag) in &detector.detections {
            if !flag || frame <= warmup {
                continue;
            }
            if last.is_some_and(|l| frame.saturating_sub(l) < window) {
                continue;
            }
            last = Some(frame);
            alerts_sent += 1;
            link_bytes += self.link.alert_bytes as u64;
            let mut payload = vec![0u8; payload_len];
            payload[..8].copy_from_slice(&frame.to_le_bytes());
            match link.offer(frame, payload) {
                Ok(_) => {}
                // The bounded send queue is saturated: this alert is
                // unrecoverable. Counted and surfaced, never silent.
                Err(ArqError::QueueFull { .. }) => lost += 1,
            }
            // Deliveries land at the earliest one frame after transmit;
            // tick there so a clean alert arrives with sub-ms latency
            // instead of waiting for the next detection window.
            link.tick(frame + 1);
            self.land_alerts(&mut link, frame + 1, ms_per_frame, &mut remote_stims)?;
        }
        let end = link.flush(detector.frames.max(last.unwrap_or(0)));
        self.land_alerts(&mut link, end, ms_per_frame, &mut remote_stims)?;
        lost += link.take_gave_up().len() as u64;
        if lost > 0 {
            return Err(SystemError::AlertLoss { lost });
        }
        let counters = link.counters();
        Ok(DistributedMetrics {
            detector,
            alerts_delivered: remote_stims.len() as u64,
            remote_stims,
            link_bytes,
            alerts_sent,
            link_drops: counters.retries,
            arq: counters,
            wire_bytes: link.wire_bytes(),
        })
    }

    /// Lands delivered alerts at the remote site: each one runs the
    /// stimulation firmware. Retransmitted alerts carry their extra
    /// link-round-trip frames in the reported latency.
    fn land_alerts<C: ArqChannel>(
        &mut self,
        link: &mut ArqLink<C>,
        now: u64,
        ms_per_frame: f64,
        remote_stims: &mut Vec<RemoteStimEvent>,
    ) -> Result<(), SystemError> {
        for (_seq, payload) in link.take_delivered() {
            let mut frame_bytes = [0u8; 8];
            frame_bytes.copy_from_slice(&payload[..8]);
            let detect_frame = u64::from_le_bytes(frame_bytes);
            let commands = self
                .stimulator
                .handle_alert()
                .map_err(SystemError::Controller)?;
            // Firmware time at 25 MHz is microseconds; the link dominates.
            remote_stims.push(RemoteStimEvent {
                detect_frame,
                latency_ms: self.link.latency_ms
                    + now.saturating_sub(detect_frame) as f64 * ms_per_frame,
                commands,
            });
        }
        Ok(())
    }

    /// Power of the detector device (its own report plus alert-link
    /// transmission, including ARQ framing and retransmissions).
    pub fn detector_power(&self, metrics: &DistributedMetrics) -> PowerReport {
        let mut report = self.detector.power_report(&metrics.detector);
        let link_rate = if metrics.detector.duration_s > 0.0 {
            metrics.wire_bytes as f64 * 8.0 / metrics.detector.duration_s
        } else {
            0.0
        };
        report.radio_mw += RadioModel::new(self.link.energy_pj_per_bit).power_mw(link_rate);
        report
    }

    /// Steady-state power of the remote stimulation unit.
    pub fn stimulator_power_mw(&self) -> f64 {
        self.stimulator.power_mw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::seizure;
    use halo_signal::{RecordingConfig, RegionProfile};

    fn trained_config(channels: usize) -> HaloConfig {
        let config = HaloConfig::small_test(channels).channels(channels);
        let window = config.feature_window_frames();
        let a = RecordingConfig::new(RegionProfile::arm())
            .channels(channels)
            .duration_ms(600)
            .seizure_at(5 * window, 12 * window)
            .generate(71);
        let b = RecordingConfig::new(RegionProfile::arm())
            .channels(channels)
            .duration_ms(600)
            .seizure_at(9 * window, 15 * window)
            .generate(72);
        let svm = seizure::train(&config, &[&a, &b]).expect("training");
        config.with_svm(svm)
    }

    /// Regression: a stimulation unit sized beyond the 16-electrode
    /// limit used to panic inside the stimulation firmware on the first
    /// alert; construction must reject it instead.
    #[test]
    fn oversized_stim_unit_rejected() {
        assert!(matches!(
            StimulationUnit::new(MAX_STIM_CHANNELS + 1),
            Err(SystemError::StimChannels { got: 17, max: 16 })
        ));
        assert!(StimulationUnit::new(MAX_STIM_CHANNELS).is_ok());
    }

    #[test]
    fn detector_site_alerts_remote_stimulator() {
        let channels = 4;
        let config = trained_config(channels);
        let window = config.feature_window_frames();
        let mut bci = DistributedBci::new(config, AlertLink::default()).unwrap();
        let rec = RecordingConfig::new(RegionProfile::arm())
            .channels(channels)
            .duration_ms(600)
            .seizure_at(7 * window, 14 * window)
            .generate(73);
        let metrics = bci.process(&rec).unwrap();
        assert!(
            !metrics.remote_stims.is_empty(),
            "remote site never stimulated"
        );
        assert_eq!(metrics.link_bytes, metrics.remote_stims.len() as u64 * 8);
        for ev in &metrics.remote_stims {
            assert_eq!(ev.commands.len(), 16);
            assert!(ev.latency_ms <= 10.0, "closed loop too slow");
        }
        // Detector site performed no local stimulation.
        assert!(metrics.detector.stim_events.is_empty());
    }

    #[test]
    fn both_devices_fit_their_budgets() {
        let channels = 4;
        let config = trained_config(channels);
        let mut bci = DistributedBci::new(config, AlertLink::default()).unwrap();
        let rec = RecordingConfig::new(RegionProfile::arm())
            .channels(channels)
            .duration_ms(400)
            .generate(74);
        let metrics = bci.process(&rec).unwrap();
        let det = bci.detector_power(&metrics);
        assert!(det.within_budget(), "detector: {det}");
        assert!(
            bci.stimulator_power_mw() < 12.0,
            "stimulator: {:.2} mW",
            bci.stimulator_power_mw()
        );
    }
}
