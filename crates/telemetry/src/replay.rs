//! Binary-stable trace-log capture and deterministic replay verification.
//!
//! A [`TraceLog`] freezes everything a run consumed (task, config
//! fingerprint, fabric programming words, raw input samples) alongside
//! everything it produced (radio bytes, MCU detection flags, stimulation
//! commands). [`TraceLog::write`] emits hand-rolled JSON with hex-encoded
//! byte payloads — the same document always serializes to the same bytes,
//! so logs can be diffed and checksummed — and [`TraceLog::read`] parses it
//! back via [`crate::json::parse`].
//!
//! The simulator side (`halo-core`) re-drives the captured samples and
//! fabric programming through a fresh runtime; [`Replayer::verify`] then
//! compares the fresh outputs byte-for-byte against the captured ones,
//! turning every captured post-mortem into a reproducible test case.

use crate::json::{self, Value};

/// One captured closed-loop stimulation response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StimRecord {
    /// Sample frame of the detection that triggered stimulation.
    pub frame: u64,
    /// Controller response latency converted to sample frames.
    pub latency_frames: u64,
    /// Number of stim channel commands issued.
    pub commands: u32,
}

/// A captured run: inputs + fabric programming + reference outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// Task label (`Task::label()`), e.g. `"SeizurePred"`.
    pub task: String,
    /// Fingerprint of the full `HaloConfig` the run used. Replay refuses a
    /// config whose fingerprint differs — bit-identity is only meaningful
    /// for the same parameters.
    pub config_fingerprint: u64,
    /// Channel count of the input stream.
    pub channels: u32,
    /// ADC sample rate in Hz.
    pub sample_rate_hz: u32,
    /// Encoded switch programming words, in route order (the fabric image
    /// the run executed with).
    pub switch_words: Vec<u32>,
    /// Raw frame-major input samples.
    pub samples: Vec<i16>,
    /// Reference radio uplink stream.
    pub radio: Vec<u8>,
    /// Reference MCU detection flags `(frame, flag)`.
    pub mcu_flags: Vec<(u64, bool)>,
    /// Reference stimulation responses.
    pub stim: Vec<StimRecord>,
}

/// Format version written into every log.
pub const TRACE_LOG_VERSION: u64 = 1;

fn hex_of_bytes(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xF) as usize] as char);
    }
    out
}

fn bytes_of_hex(hex: &str) -> Result<Vec<u8>, String> {
    let raw = hex.as_bytes();
    if !raw.len().is_multiple_of(2) {
        return Err("odd-length hex payload".to_string());
    }
    let nibble = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(format!("bad hex byte {c:?}")),
        }
    };
    let mut out = Vec::with_capacity(raw.len() / 2);
    for pair in raw.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an unsigned integer"))
}

fn field_u32(v: &Value, key: &str) -> Result<u32, String> {
    u32::try_from(field_u64(v, key)?).map_err(|_| format!("field {key:?} does not fit in 32 bits"))
}

impl TraceLog {
    /// Serializes to binary-stable JSON (same log ⇒ same bytes).
    pub fn write(&self) -> String {
        let sample_bytes: Vec<u8> = self.samples.iter().flat_map(|s| s.to_le_bytes()).collect();
        let mut out = String::with_capacity(128 + sample_bytes.len() * 2 + self.radio.len() * 2);
        // The fingerprint travels as a hex string: a u64 does not survive
        // a round trip through a JSON f64 number above 2^53.
        out.push_str(&format!(
            "{{\"halo_trace_log\":{TRACE_LOG_VERSION},\"task\":{},\"config_fingerprint\":\"{:016x}\",\"channels\":{},\"sample_rate_hz\":{}",
            json::string(&self.task),
            self.config_fingerprint,
            self.channels,
            self.sample_rate_hz,
        ));
        out.push_str(",\"switch_words\":[");
        for (i, w) in self.switch_words.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&w.to_string());
        }
        out.push_str("],\"samples\":\"");
        out.push_str(&hex_of_bytes(&sample_bytes));
        out.push_str("\",\"radio\":\"");
        out.push_str(&hex_of_bytes(&self.radio));
        out.push_str("\",\"mcu_flags\":[");
        for (i, (frame, flag)) in self.mcu_flags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{}]", frame, u8::from(*flag)));
        }
        out.push_str("],\"stim\":[");
        for (i, s) in self.stim.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"frame\":{},\"latency_frames\":{},\"commands\":{}}}",
                s.frame, s.latency_frames, s.commands
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses a document produced by [`TraceLog::write`].
    pub fn read(input: &str) -> Result<TraceLog, String> {
        let doc = json::parse(input)?;
        let version = field_u64(&doc, "halo_trace_log")?;
        if version != TRACE_LOG_VERSION {
            return Err(format!(
                "unsupported trace log version {version} (want {TRACE_LOG_VERSION})"
            ));
        }
        let task = field(&doc, "task")?
            .as_str()
            .ok_or("task is not a string")?
            .to_string();
        let config_fingerprint = u64::from_str_radix(
            field(&doc, "config_fingerprint")?
                .as_str()
                .ok_or("config_fingerprint is not a string")?,
            16,
        )
        .map_err(|e| format!("bad config_fingerprint: {e}"))?;
        let channels = field_u32(&doc, "channels")?;
        let sample_rate_hz = field_u32(&doc, "sample_rate_hz")?;
        let switch_words = field(&doc, "switch_words")?
            .as_array()
            .ok_or("switch_words is not an array")?
            .iter()
            .map(|w| {
                w.as_u64()
                    .filter(|w| *w <= u32::MAX as u64)
                    .map(|w| w as u32)
                    .ok_or_else(|| "bad switch word".to_string())
            })
            .collect::<Result<Vec<u32>, String>>()?;
        let sample_bytes =
            bytes_of_hex(field(&doc, "samples")?.as_str().ok_or("samples not hex")?)?;
        if !sample_bytes.len().is_multiple_of(2) {
            return Err("samples payload is not i16-aligned".to_string());
        }
        let samples = sample_bytes
            .chunks_exact(2)
            .map(|p| i16::from_le_bytes([p[0], p[1]]))
            .collect();
        let radio = bytes_of_hex(field(&doc, "radio")?.as_str().ok_or("radio not hex")?)?;
        let mcu_flags = field(&doc, "mcu_flags")?
            .as_array()
            .ok_or("mcu_flags is not an array")?
            .iter()
            .map(|entry| {
                let pair = entry.as_array().filter(|p| p.len() == 2);
                let pair = pair.ok_or_else(|| "bad mcu flag entry".to_string())?;
                let frame = pair[0].as_u64().ok_or("bad flag frame")?;
                let flag = pair[1].as_u64().ok_or("bad flag value")? != 0;
                Ok((frame, flag))
            })
            .collect::<Result<Vec<(u64, bool)>, String>>()?;
        let stim = field(&doc, "stim")?
            .as_array()
            .ok_or("stim is not an array")?
            .iter()
            .map(|entry| {
                Ok(StimRecord {
                    frame: field_u64(entry, "frame")?,
                    latency_frames: field_u64(entry, "latency_frames")?,
                    commands: field_u32(entry, "commands")?,
                })
            })
            .collect::<Result<Vec<StimRecord>, String>>()?;
        Ok(TraceLog {
            task,
            config_fingerprint,
            channels,
            sample_rate_hz,
            switch_words,
            samples,
            radio,
            mcu_flags,
            stim,
        })
    }
}

/// Outcome of comparing a replayed run against the captured reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Radio uplink bytes matched exactly.
    pub radio_identical: bool,
    /// MCU detection flags matched exactly.
    pub flags_identical: bool,
    /// Stimulation responses matched exactly.
    pub stim_identical: bool,
    /// Byte offset of the first radio divergence, if any.
    pub first_radio_divergence: Option<usize>,
    /// Reference radio length vs replayed length.
    pub radio_len: (usize, usize),
}

impl ReplayReport {
    /// Every captured output was reproduced bit-identically.
    pub fn identical(&self) -> bool {
        self.radio_identical && self.flags_identical && self.stim_identical
    }
}

impl std::fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.identical() {
            write!(
                f,
                "replay identical: radio {} bytes, flags ok, stim ok",
                self.radio_len.0
            )
        } else {
            write!(
                f,
                "replay DIVERGED: radio {} (first divergence {:?}, lens {:?}), flags {}, stim {}",
                if self.radio_identical {
                    "ok"
                } else {
                    "mismatch"
                },
                self.first_radio_divergence,
                self.radio_len,
                if self.flags_identical {
                    "ok"
                } else {
                    "mismatch"
                },
                if self.stim_identical {
                    "ok"
                } else {
                    "mismatch"
                },
            )
        }
    }
}

/// Compares replayed outputs against a captured [`TraceLog`].
#[derive(Debug, Clone)]
pub struct Replayer {
    log: TraceLog,
}

impl Replayer {
    /// Wraps a captured log.
    pub fn new(log: TraceLog) -> Self {
        Self { log }
    }

    /// The captured log.
    pub fn log(&self) -> &TraceLog {
        &self.log
    }

    /// Verifies freshly produced outputs against the capture.
    pub fn verify(
        &self,
        radio: &[u8],
        mcu_flags: &[(u64, bool)],
        stim: &[StimRecord],
    ) -> ReplayReport {
        let first_radio_divergence = self
            .log
            .radio
            .iter()
            .zip(radio.iter())
            .position(|(a, b)| a != b)
            .or_else(|| {
                if self.log.radio.len() != radio.len() {
                    Some(self.log.radio.len().min(radio.len()))
                } else {
                    None
                }
            });
        ReplayReport {
            radio_identical: first_radio_divergence.is_none(),
            flags_identical: self.log.mcu_flags == mcu_flags,
            stim_identical: self.log.stim == stim,
            first_radio_divergence,
            radio_len: (self.log.radio.len(), radio.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TraceLog {
        TraceLog {
            task: "SeizurePred".to_string(),
            config_fingerprint: 0xDEAD_BEEF_1234,
            channels: 8,
            sample_rate_hz: 30_000,
            switch_words: vec![0x8000_0102, 0x8000_0203],
            samples: vec![-1, 0, 1, 32767, -32768, 42],
            radio: vec![0x00, 0xFF, 0x7A],
            mcu_flags: vec![(100, false), (2048, true)],
            stim: vec![StimRecord {
                frame: 2048,
                latency_frames: 7,
                commands: 2,
            }],
        }
    }

    #[test]
    fn log_round_trips_bit_identically() {
        let log = sample_log();
        let text = log.write();
        crate::json::validate(&text).unwrap();
        let back = TraceLog::read(&text).unwrap();
        assert_eq!(back, log);
        // Binary stability: serialize -> parse -> serialize is a fixpoint.
        assert_eq!(back.write(), text);
    }

    #[test]
    fn read_rejects_malformed_logs() {
        assert!(TraceLog::read("{}").is_err());
        assert!(TraceLog::read("{\"halo_trace_log\":99}").is_err());
        let mut text = sample_log().write();
        text = text.replace("\"radio\":\"00ff7a\"", "\"radio\":\"00ff7\"");
        assert!(TraceLog::read(&text).is_err());
    }

    #[test]
    fn verify_detects_divergence() {
        let log = sample_log();
        let replayer = Replayer::new(log.clone());
        assert!(replayer
            .verify(&log.radio, &log.mcu_flags, &log.stim)
            .identical());

        let mut bad = log.radio.clone();
        bad[1] ^= 0x01;
        let report = replayer.verify(&bad, &log.mcu_flags, &log.stim);
        assert!(!report.identical());
        assert_eq!(report.first_radio_divergence, Some(1));

        let report = replayer.verify(&log.radio[..2], &log.mcu_flags, &log.stim);
        assert!(!report.radio_identical);
        assert_eq!(report.first_radio_divergence, Some(2));

        let report = replayer.verify(&log.radio, &[], &log.stim);
        assert!(!report.flags_identical);
    }
}
