//! Multi-channel recording synthesis.

use crate::adc::AdcModel;
use crate::episodes::{Episode, EpisodeKind};
use crate::noise::{GaussianNoise, PinkNoise};
use crate::region::RegionProfile;
use crate::rng::SimRng;
use crate::spikes::{PoissonTrain, SpikeTemplate};
use crate::SAMPLE_RATE_HZ;

/// Configuration for synthesizing a [`Recording`].
///
/// Built with a fluent API and consumed by [`RecordingConfig::generate`].
/// Episodes (seizure, movement) are scheduled explicitly so tests and
/// experiments know the ground truth.
///
/// # Example
///
/// ```
/// use halo_signal::{RecordingConfig, RegionProfile};
/// let rec = RecordingConfig::new(RegionProfile::leg())
///     .channels(8)
///     .duration_ms(50)
///     .movement_at(600, 1200)
///     .generate(1);
/// assert_eq!(rec.episodes().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RecordingConfig {
    profile: RegionProfile,
    channels: usize,
    samples: usize,
    sample_rate: u32,
    adc: AdcModel,
    episodes: Vec<Episode>,
}

/// In-place cascade of two one-pole low-pass stages at `fc_hz`.
fn two_pole_lowpass(trace: &mut [f64], fc_hz: f64, fs: f64) {
    let alpha = 1.0 - (-std::f64::consts::TAU * fc_hz / fs).exp();
    // Initialize to the first sample so recordings do not open with a
    // filter-settling ramp.
    let first = trace.first().copied().unwrap_or(0.0);
    let mut y1 = first;
    let mut y2 = first;
    for v in trace.iter_mut() {
        y1 += alpha * (*v - y1);
        y2 += alpha * (y1 - y2);
        *v = y2;
    }
}

impl RecordingConfig {
    /// Starts a configuration for the given region with the paper's default
    /// geometry (96 channels, 30 kHz, 100 ms).
    pub fn new(profile: RegionProfile) -> Self {
        Self {
            profile,
            channels: crate::CHANNELS,
            samples: SAMPLE_RATE_HZ as usize / 10,
            sample_rate: SAMPLE_RATE_HZ,
            adc: AdcModel::default(),
            episodes: Vec::new(),
        }
    }

    /// Sets the number of channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn channels(mut self, channels: usize) -> Self {
        assert!(channels > 0, "need at least one channel");
        self.channels = channels;
        self
    }

    /// Sets the recording length in milliseconds.
    pub fn duration_ms(mut self, ms: usize) -> Self {
        self.samples = ms * self.sample_rate as usize / 1000;
        self
    }

    /// Sets the recording length directly in samples per channel.
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Overrides the sample rate (default 30 kHz).
    pub fn sample_rate(mut self, hz: u32) -> Self {
        assert!(hz > 0, "sample rate must be positive");
        self.sample_rate = hz;
        self
    }

    /// Overrides the ADC model.
    pub fn adc(mut self, adc: AdcModel) -> Self {
        self.adc = adc;
        self
    }

    /// Schedules a seizure episode over samples `[start, end)`.
    pub fn seizure_at(mut self, start: usize, end: usize) -> Self {
        self.episodes
            .push(Episode::new(EpisodeKind::Seizure, start, end));
        self
    }

    /// Schedules a movement episode over samples `[start, end)`.
    pub fn movement_at(mut self, start: usize, end: usize) -> Self {
        self.episodes
            .push(Episode::new(EpisodeKind::Movement, start, end));
        self
    }

    /// Synthesizes the recording deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Recording {
        let n = self.samples;
        let channels = self.channels;
        let p = &self.profile;
        let fs = self.sample_rate as f64;
        let mut rng = SimRng::new(seed);

        // Shared components (cross-channel correlation).
        let mut shared_lfp = PinkNoise::new(p.lfp_amplitude_uv, seed ^ 0xA11CE);
        let shared_lfp: Vec<f64> = (0..n).map(|_| shared_lfp.next_sample()).collect();
        // Ictal rhythm: a shared ~4 Hz spike-and-wave discharge with a
        // harmonic, far larger than background.
        let ictal_hz = 4.0;
        let ictal_amp = 6.0 * p.lfp_amplitude_uv;

        let mut data = vec![0i16; n * channels];
        let mut spike_truth = Vec::with_capacity(channels);

        for c in 0..channels {
            let ch_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(c as u64 + 1);
            let mut own_lfp = PinkNoise::new(
                p.lfp_amplitude_uv * (1.0 - p.shared_lfp_fraction),
                ch_seed ^ 0xBEEF,
            );
            let mut thermal = GaussianNoise::new(p.noise_sigma_uv, ch_seed ^ 0xFACE);
            let beta_phase: f64 = rng.range_f64(0.0, std::f64::consts::TAU);
            let mains_phase: f64 = rng.range_f64(0.0, std::f64::consts::TAU);

            // Per-channel analog trace before spikes.
            let mut trace: Vec<f64> = Vec::with_capacity(n);
            for (t, &shared) in shared_lfp.iter().enumerate().take(n) {
                let time = t as f64 / fs;
                let mut v = shared * p.shared_lfp_fraction + own_lfp.next_sample();
                // Beta rhythm, suppressed during movement episodes
                // (event-related desynchronization, Toro et al. [108]).
                let beta_gain = self.beta_gain(t);
                v += p.beta_amplitude_uv
                    * beta_gain
                    * (std::f64::consts::TAU * p.beta_hz * time + beta_phase).sin();
                // Ictal discharge during seizures, phase-shared across
                // channels (high synchrony is what XCOR detects).
                if self.in_episode(t, EpisodeKind::Seizure) {
                    let w = std::f64::consts::TAU * ictal_hz * time;
                    v += ictal_amp * (w.sin() + 0.5 * (2.0 * w).sin());
                }
                v += p.mains_amplitude_uv
                    * (std::f64::consts::TAU * 60.0 * time + mains_phase).sin();
                trace.push(v);
            }

            // Local field potentials roll off steeply above a few hundred
            // hertz; band-limit the synthesized LFP mix accordingly
            // (second-order roll-off from 300 Hz) before adding broadband
            // components.
            two_pole_lowpass(&mut trace, 300.0, fs);

            // Broadband thermal/amplifier noise (headstage-referred; the
            // modeled wireless headstage specifies ~2 uV rms).
            for v in trace.iter_mut() {
                *v += thermal.next_sample();
            }

            // Anti-aliasing low-pass of the analog front-end: recording
            // amplifiers band-limit the signal (second-order roll-off from
            // ~2 kHz here) well below the 15 kHz Nyquist rate, which is
            // also what makes the 30 kHz stream compressible (§VI-C/D
            // depend on this oversampling).
            two_pole_lowpass(&mut trace, 2_000.0, fs);

            // Units on this channel.
            let unit_count = p.units_per_channel.round() as usize;
            let mut onsets: Vec<usize> = Vec::new();
            for u in 0..unit_count {
                let amp = p.spike_amplitude_uv * rng.range_f64(0.6, 1.4);
                let template = SpikeTemplate::new(amp, (self.sample_rate as usize * 12) / 10_000);
                // Seizures roughly triple firing; movement raises it ~60%.
                let base_rate = p.mean_rate_hz * rng.range_f64(0.5, 1.5);
                let mut train =
                    PoissonTrain::new(base_rate, self.sample_rate, ch_seed ^ (u as u64) << 8);
                for onset in train.spike_times(n) {
                    let boost = if self.in_episode(onset, EpisodeKind::Seizure) {
                        3.0
                    } else if self.in_episode(onset, EpisodeKind::Movement) {
                        1.6
                    } else {
                        1.0
                    };
                    // Thin the train probabilistically for boost < max by
                    // keeping a spike with probability boost/3.
                    if rng.range_f64(0.0, 3.0) <= boost {
                        for (i, w) in template.waveform().iter().enumerate() {
                            if let Some(slot) = trace.get_mut(onset + i) {
                                *slot += w;
                            }
                        }
                        onsets.push(onset);
                    }
                }
            }
            onsets.sort_unstable();
            onsets.dedup();
            spike_truth.push(onsets);

            for t in 0..n {
                data[t * channels + c] = self.adc.quantize(trace[t]);
            }
        }

        Recording {
            channels,
            sample_rate: self.sample_rate,
            data,
            episodes: self.episodes.clone(),
            spike_truth,
            region: p.name,
        }
    }

    fn in_episode(&self, t: usize, kind: EpisodeKind) -> bool {
        self.episodes
            .iter()
            .any(|e| e.kind() == kind && e.contains(t))
    }

    /// Beta-rhythm gain at sample `t`: 1.0 at rest, ramping down to 0.15
    /// inside movement episodes over a 15 ms transition.
    fn beta_gain(&self, t: usize) -> f64 {
        const SUPPRESSED: f64 = 0.15;
        let ramp = (self.sample_rate as usize * 15) / 1000;
        let mut gain = 1.0f64;
        for e in self
            .episodes
            .iter()
            .filter(|e| e.kind() == EpisodeKind::Movement)
        {
            if e.contains(t) {
                let into = t - e.start();
                let frac = (into as f64 / ramp as f64).min(1.0);
                gain = gain.min(1.0 + frac * (SUPPRESSED - 1.0));
            }
        }
        gain
    }
}

/// A synthesized multi-channel recording with ground-truth labels.
///
/// Samples are stored frame-major (`data[t * channels + c]`), matching the
/// interleaved order in which an ADC bank would deliver them to HALO.
#[derive(Debug, Clone)]
pub struct Recording {
    channels: usize,
    sample_rate: u32,
    data: Vec<i16>,
    episodes: Vec<Episode>,
    spike_truth: Vec<Vec<usize>>,
    region: &'static str,
}

impl Recording {
    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Sampling rate in Hz.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Region name this recording was synthesized from.
    pub fn region(&self) -> &'static str {
        self.region
    }

    /// Samples per channel.
    pub fn samples_per_channel(&self) -> usize {
        self.data.len().checked_div(self.channels).unwrap_or(0)
    }

    /// Recording duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        self.samples_per_channel() as f64 * 1000.0 / self.sample_rate as f64
    }

    /// The raw frame-major sample buffer (`[t * channels + c]`).
    pub fn samples(&self) -> &[i16] {
        &self.data
    }

    /// One frame (all channels at time `t`).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn frame(&self, t: usize) -> &[i16] {
        &self.data[t * self.channels..(t + 1) * self.channels]
    }

    /// Copies out a single channel's samples.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.channels()`.
    pub fn channel(&self, c: usize) -> Vec<i16> {
        assert!(c < self.channels, "channel {c} out of range");
        (0..self.samples_per_channel())
            .map(|t| self.data[t * self.channels + c])
            .collect()
    }

    /// Serializes the interleaved stream as little-endian bytes — the wire
    /// format the compression and encryption pipelines consume.
    pub fn to_bytes_le(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() * 2);
        for s in &self.data {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// Ground-truth episodes.
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// Ground-truth spike onsets per channel.
    pub fn spike_truth(&self) -> &[Vec<usize>] {
        &self.spike_truth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(profile: RegionProfile) -> RecordingConfig {
        RecordingConfig::new(profile).channels(4).duration_ms(100)
    }

    #[test]
    fn geometry_is_respected() {
        let r = small(RegionProfile::arm()).generate(3);
        assert_eq!(r.channels(), 4);
        assert_eq!(r.samples_per_channel(), 3000);
        assert_eq!(r.samples().len(), 12_000);
        assert_eq!(r.frame(0).len(), 4);
        assert!((r.duration_ms() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small(RegionProfile::arm()).generate(7);
        let b = small(RegionProfile::arm()).generate(7);
        assert_eq!(a.samples(), b.samples());
        let c = small(RegionProfile::arm()).generate(8);
        assert_ne!(a.samples(), c.samples());
    }

    #[test]
    fn channel_extraction_matches_frames() {
        let r = small(RegionProfile::leg()).generate(5);
        let ch2 = r.channel(2);
        for (t, &s) in ch2.iter().enumerate() {
            assert_eq!(s, r.frame(t)[2]);
        }
    }

    #[test]
    fn seizure_raises_amplitude() {
        let r = small(RegionProfile::arm())
            .seizure_at(1500, 3000)
            .generate(11);
        let ch = r.channel(0);
        let rms = |s: &[i16]| {
            (s.iter().map(|&x| (x as f64).powi(2)).sum::<f64>() / s.len() as f64).sqrt()
        };
        let baseline = rms(&ch[0..1500]);
        let ictal = rms(&ch[1500..3000]);
        assert!(
            ictal > 2.0 * baseline,
            "ictal rms {ictal} vs baseline {baseline}"
        );
    }

    #[test]
    fn movement_suppresses_beta_power() {
        // Use the quiescent profile plus explicit beta so the effect is clean.
        let mut p = RegionProfile::quiescent();
        p.beta_amplitude_uv = 40.0;
        let r = RecordingConfig::new(p)
            .channels(1)
            .duration_ms(200)
            .movement_at(3000, 6000)
            .generate(13);
        let ch = r.channel(0);
        // Band power proxy: variance (beta dominates the quiescent profile).
        let var = |s: &[i16]| {
            let m = s.iter().map(|&x| x as f64).sum::<f64>() / s.len() as f64;
            s.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / s.len() as f64
        };
        let rest = var(&ch[0..3000]);
        let moving = var(&ch[3600..6000]); // past the ramp
        assert!(
            moving < rest / 4.0,
            "movement variance {moving} vs rest {rest}"
        );
    }

    #[test]
    fn spike_truth_populated_for_active_regions() {
        let r = small(RegionProfile::arm()).generate(17);
        let total: usize = r.spike_truth().iter().map(Vec::len).sum();
        assert!(total > 0, "arm region should fire");
    }

    #[test]
    fn bytes_round_trip() {
        let r = small(RegionProfile::leg()).generate(19);
        let bytes = r.to_bytes_le();
        assert_eq!(bytes.len(), r.samples().len() * 2);
        let first = i16::from_le_bytes([bytes[0], bytes[1]]);
        assert_eq!(first, r.samples()[0]);
    }
}
