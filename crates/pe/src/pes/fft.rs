//! FFT processing element.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{PeKind, ProcessingElement};
use halo_kernels::{ChannelBlock, Fft};

/// The FFT PE: per-channel transform windows over a frame-interleaved
/// stream, emitting one band-power value per (selected channel × band) per
/// window.
///
/// Configurability is what lets movement intent and seizure prediction
/// share the PE (§IV-A): the point count (up to 1024), the band list, the
/// channel subset, and an input decimation factor (the input adapter
/// averages `decimate` consecutive samples, conditioning slow rhythms like
/// the 14–25 Hz beta band into the transform's resolvable range — a 30 kHz
/// window of 1024 raw samples spans only 34 ms, far too short to resolve
/// beta).
#[derive(Debug)]
pub struct FftPe {
    fft: Fft,
    effective_rate_hz: f64,
    bands: Vec<(f64, f64)>,
    channels: usize,
    decimate: usize,
    // Per-channel decimation accumulators and window buffers; `None` for
    // unselected channels.
    lanes: Vec<Option<Lane>>,
    frame_pos: usize,
    out: Fifo,
    // Reusable SoA pivot for the batched push path.
    scratch: ChannelBlock,
}

#[derive(Debug, Clone, Default)]
struct Lane {
    acc: i64,
    acc_n: usize,
    window: Vec<i16>,
}

impl FftPe {
    /// Creates a single-channel FFT PE without decimation.
    pub fn new(fft: Fft, sample_rate_hz: u32, bands: Vec<(f64, f64)>) -> Self {
        Self::with_channels(fft, sample_rate_hz, bands, 1, &[0], 1)
    }

    /// Creates an FFT PE over `channels` interleaved channels, transforming
    /// the selected subset with `decimate`-fold input averaging.
    ///
    /// # Panics
    ///
    /// Panics if `bands` or `select` is empty, the sample rate or
    /// `decimate` is zero, `channels` is zero, or a selected channel is out
    /// of range.
    pub fn with_channels(
        fft: Fft,
        sample_rate_hz: u32,
        bands: Vec<(f64, f64)>,
        channels: usize,
        select: &[u8],
        decimate: usize,
    ) -> Self {
        assert!(!bands.is_empty(), "need at least one band");
        assert!(sample_rate_hz > 0, "sample rate must be positive");
        assert!(channels > 0, "need at least one channel");
        assert!(!select.is_empty(), "select at least one channel");
        assert!(decimate > 0, "decimation factor must be positive");
        let mut lanes: Vec<Option<Lane>> = vec![None; channels];
        for &c in select {
            assert!((c as usize) < channels, "selected channel {c} out of range");
            lanes[c as usize] = Some(Lane::default());
        }
        Self {
            fft,
            effective_rate_hz: sample_rate_hz as f64 / decimate as f64,
            bands,
            channels,
            decimate,
            lanes,
            frame_pos: 0,
            out: Fifo::new(),
            scratch: ChannelBlock::new(),
        }
    }

    /// Configured transform size.
    pub fn points(&self) -> usize {
        self.fft.points()
    }

    /// Configured bands.
    pub fn bands(&self) -> &[(f64, f64)] {
        &self.bands
    }

    /// Window duration covered by one transform, in input frames.
    pub fn window_frames(&self) -> usize {
        self.fft.points() * self.decimate
    }

    /// Number of values emitted per completed window (selected channels ×
    /// bands).
    pub fn values_per_window(&self) -> usize {
        self.lanes.iter().flatten().count() * self.bands.len()
    }

    fn push_sample(&mut self, s: i16) {
        let c = self.frame_pos;
        self.frame_pos = (self.frame_pos + 1) % self.channels;
        let decimate = self.decimate;
        let points = self.fft.points();
        let Some(lane) = &mut self.lanes[c] else {
            return;
        };
        lane.acc += s as i64;
        lane.acc_n += 1;
        if lane.acc_n == decimate {
            let avg = (lane.acc / decimate as i64) as i16;
            lane.acc = 0;
            lane.acc_n = 0;
            lane.window.push(avg);
            if lane.window.len() == points {
                let window = std::mem::take(&mut lane.window);
                let spectrum = self.fft.power_spectrum(&window);
                let rate = self.effective_rate_hz as u32;
                for &(lo, hi) in &self.bands {
                    let p = self.fft.band_power(&spectrum, rate, lo, hi);
                    self.out.push(Token::Value(p as i64));
                }
            }
        }
    }

    /// Samples per lane until the next transform fires. Every selected
    /// lane advances in lockstep (one sample per frame, same decimation,
    /// same window length), so the first lane speaks for all of them.
    fn samples_until_emit(&self) -> Option<usize> {
        let lane = self.lanes.iter().flatten().next()?;
        Some((self.fft.points() - lane.window.len()) * self.decimate - lane.acc_n)
    }

    /// Transforms every selected lane's (full) window and emits band
    /// powers in channel order — exactly the order the scalar path
    /// produces, because lockstepped lanes complete within one frame and
    /// the frame visits channels in index order.
    fn emit_all_lanes(&mut self) {
        let windows: Vec<Vec<i16>> = self
            .lanes
            .iter_mut()
            .flatten()
            .map(|lane| std::mem::take(&mut lane.window))
            .collect();
        let refs: Vec<&[i16]> = windows.iter().map(|w| w.as_slice()).collect();
        let spectra = self.fft.power_spectrum_lanes(&refs);
        let rate = self.effective_rate_hz as u32;
        for spectrum in &spectra {
            for &(lo, hi) in &self.bands {
                let p = self.fft.band_power(spectrum, rate, lo, hi);
                self.out.push(Token::Value(p as i64));
            }
        }
    }
}

impl ProcessingElement for FftPe {
    fn kind(&self) -> PeKind {
        PeKind::Fft
    }

    fn input_ports(&self) -> &[InterfaceKind] {
        &[InterfaceKind::Samples]
    }

    fn output_kind(&self) -> InterfaceKind {
        InterfaceKind::Values
    }

    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError> {
        self.check_port(port, &token)?;
        match token {
            Token::Sample(s) => self.push_sample(s),
            Token::BlockEnd { .. } => self.out.push(token),
            _ => unreachable!("validated by check_port"),
        }
        Ok(())
    }

    fn quiet_frames(&self, frame_samples: usize) -> u64 {
        if frame_samples != self.channels || self.frame_pos != 0 {
            return 0;
        }
        match self.samples_until_emit() {
            // The emission frame itself is not quiet.
            Some(remaining) => (remaining as u64).saturating_sub(1),
            // No selected lanes: nothing ever emits.
            None => u64::MAX,
        }
    }

    fn push_samples(&mut self, port: usize, samples: &[i16]) -> Result<(), PeError> {
        self.check_port(port, &Token::Sample(0))?;
        // The SoA path needs whole frames starting at channel 0; anything
        // else goes through the scalar adapter.
        if self.frame_pos != 0 || !samples.len().is_multiple_of(self.channels) {
            for &s in samples {
                self.push_sample(s);
            }
            return Ok(());
        }
        let frames = samples.len() / self.channels;
        self.scratch.fill_from_interleaved(samples, self.channels);
        let mut f = 0;
        while f < frames {
            let Some(remaining) = self.samples_until_emit() else {
                // Nothing selected: the stream is swallowed whole.
                break;
            };
            let run = remaining.min(frames - f);
            let decimate = self.decimate;
            for (c, lane) in self.lanes.iter_mut().enumerate() {
                let Some(lane) = lane else { continue };
                let row = &self.scratch.channel(c)[f..f + run];
                // Finish the partial decimation accumulator first, then
                // stream whole groups; identical i64 summation order to
                // the per-sample path.
                let mut taken = 0;
                if lane.acc_n > 0 {
                    let need = decimate - lane.acc_n;
                    taken = need.min(row.len());
                    for &s in &row[..taken] {
                        lane.acc += s as i64;
                    }
                    lane.acc_n += taken;
                    if lane.acc_n == decimate {
                        lane.window.push((lane.acc / decimate as i64) as i16);
                        lane.acc = 0;
                        lane.acc_n = 0;
                    }
                }
                let mut groups = row[taken..].chunks_exact(decimate);
                for g in &mut groups {
                    let sum: i64 = g.iter().map(|&s| s as i64).sum();
                    lane.window.push((sum / decimate as i64) as i16);
                }
                for &s in groups.remainder() {
                    lane.acc += s as i64;
                    lane.acc_n += 1;
                }
            }
            f += run;
            if run == remaining {
                self.emit_all_lanes();
            }
        }
        Ok(())
    }

    fn flush(&mut self) {
        // Partial windows cannot be transformed; drop them.
        for lane in self.lanes.iter_mut().flatten() {
            lane.window.clear();
            lane.acc = 0;
            lane.acc_n = 0;
        }
        self.frame_pos = 0;
    }

    fn output_fifo(&self) -> &Fifo {
        &self.out
    }

    fn output_fifo_mut(&mut self) -> &mut Fifo {
        &mut self.out
    }

    fn memory_bytes(&self) -> usize {
        let selected = self.lanes.iter().flatten().count();
        // Per-channel windows + twiddle ROM + working re/im arrays.
        selected * self.fft.points() * 2 + self.fft.points() / 2 * 4 + self.fft.points() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_values(pe: &mut FftPe) -> Vec<i64> {
        std::iter::from_fn(|| pe.pull())
            .filter_map(|t| match t {
                Token::Value(v) => Some(v),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn emits_band_powers_per_window() {
        let fft = Fft::new(64).unwrap();
        let mut pe = FftPe::new(fft, 1000, vec![(0.0, 100.0), (100.0, 500.0)]);
        for t in 0..64 {
            let x = (8000.0 * (std::f64::consts::TAU * 50.0 * t as f64 / 1000.0).sin()) as i16;
            pe.push(0, Token::Sample(x)).unwrap();
        }
        let v = drain_values(&mut pe);
        assert_eq!(v.len(), 2);
        assert!(v[0] > 5 * v[1], "50 Hz tone: low {} high {}", v[0], v[1]);
    }

    #[test]
    fn decimation_brings_slow_rhythms_into_range() {
        // A 20 Hz "beta" tone at 30 kHz: with 32x decimation and 256
        // points, the window spans 273 ms and the band is resolvable.
        let fft = Fft::new(256).unwrap();
        let mut pe =
            FftPe::with_channels(fft, 30_000, vec![(14.0, 25.0), (40.0, 120.0)], 1, &[0], 32);
        for t in 0..256 * 32 {
            let x = (6000.0 * (std::f64::consts::TAU * 20.0 * t as f64 / 30_000.0).sin()) as i16;
            pe.push(0, Token::Sample(x)).unwrap();
        }
        let v = drain_values(&mut pe);
        assert_eq!(v.len(), 2);
        assert!(
            v[0] > 10 * v[1].max(1),
            "beta {} vs high band {}",
            v[0],
            v[1]
        );
    }

    #[test]
    fn channel_selection_and_window_counting() {
        // 4-channel stream, channels 1 and 3 selected, 8-point FFT.
        let fft = Fft::new(8).unwrap();
        let mut pe = FftPe::with_channels(fft, 1000, vec![(0.0, 500.0)], 4, &[1, 3], 1);
        assert_eq!(pe.values_per_window(), 2);
        assert_eq!(pe.window_frames(), 8);
        for t in 0..8 {
            for c in 0..4i16 {
                pe.push(0, Token::Sample((t as i16) * 10 + c)).unwrap();
            }
        }
        assert_eq!(drain_values(&mut pe).len(), 2);
    }

    #[test]
    fn partial_window_produces_nothing() {
        let fft = Fft::new(64).unwrap();
        let mut pe = FftPe::new(fft, 1000, vec![(0.0, 500.0)]);
        for _ in 0..63 {
            pe.push(0, Token::Sample(100)).unwrap();
        }
        assert_eq!(pe.pull(), None);
        pe.flush();
        assert_eq!(pe.pull(), None);
    }

    #[test]
    #[should_panic(expected = "at least one band")]
    fn rejects_empty_bands() {
        let _ = FftPe::new(Fft::new(64).unwrap(), 1000, vec![]);
    }
}
