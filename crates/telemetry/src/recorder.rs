//! The [`Recorder`] sink: atomic counters plus a bounded event ring.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::histogram::{HistogramSummary, LogHistogram};
use crate::sink::{Counter, Event, EventKind, Scope, TelemetrySink};
use crate::MAX_PES;

/// Per-PE atomic counter block.
#[derive(Debug, Default)]
struct PeCounters {
    busy_cycles: AtomicU64,
    stall_cycles: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    fifo_high_water: AtomicU64,
    fifo_peak_depth: AtomicU64,
}

/// Latency histograms, all behind one mutex — latency samples arrive once
/// per sampling window (hundreds of frames), never on the per-frame hot
/// path, so contention is negligible.
#[derive(Debug)]
struct LatencyStore {
    /// End-to-end frame latency per pipeline, keyed by the label of the
    /// most recent `Marker` event (pipelines announce themselves with a
    /// marker when telemetry is attached or the fabric is reconfigured).
    pipelines: Vec<(&'static str, LogHistogram)>,
    /// Label samples are currently attributed to.
    current: &'static str,
    /// Per-PE window service time, allocated lazily per slot.
    pe_service: Vec<Option<LogHistogram>>,
}

impl LatencyStore {
    fn new() -> Self {
        Self {
            pipelines: Vec::new(),
            current: "pipeline",
            pe_service: (0..MAX_PES).map(|_| None).collect(),
        }
    }

    fn record(&mut self, scope: Scope, nanos: u64) {
        self.record_batch(scope, std::slice::from_ref(&nanos));
    }

    fn record_batch(&mut self, scope: Scope, samples: &[u64]) {
        let hist = match scope {
            Scope::System => {
                let label = self.current;
                match self.pipelines.iter_mut().position(|(l, _)| *l == label) {
                    Some(i) => &mut self.pipelines[i].1,
                    None => {
                        self.pipelines.push((label, LogHistogram::new()));
                        &mut self.pipelines.last_mut().unwrap().1
                    }
                }
            }
            Scope::Pe(slot) => match self.pe_service.get_mut(slot as usize) {
                Some(entry) => entry.get_or_insert_with(LogHistogram::new),
                None => return,
            },
            _ => return,
        };
        for &nanos in samples {
            hist.record(nanos);
        }
    }
}

/// Per-link atomic counter block (flat `MAX_PES x MAX_PES` matrix).
#[derive(Debug, Default)]
struct LinkCounters {
    bytes: AtomicU64,
    transfers: AtomicU64,
}

#[derive(Debug, Default)]
struct GlobalCounters {
    controller_cycles: AtomicU64,
    controller_instructions: AtomicU64,
    switch_programs: AtomicU64,
    switch_words: AtomicU64,
    stim_pulses: AtomicU64,
    radio_bytes: AtomicU64,
    frames: AtomicU64,
}

/// Bounded ring of [`Event`]s. When full, the oldest event is overwritten
/// and `dropped` is incremented, so bursts never grow memory unboundedly
/// while the tail of the timeline is always retained.
#[derive(Debug)]
struct EventRing {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the next write position.
    head: usize,
    dropped: u64,
}

impl EventRing {
    fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, event: Event) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// The newest `n` events in arrival order (oldest first).
    fn tail(&self, n: usize) -> Vec<Event> {
        let len = self.buf.len();
        // Until the ring wraps `head == len`, so the oldest event is at 0.
        (len - n.min(len)..len)
            .map(|i| self.buf[(self.head + i) % len].clone())
            .collect()
    }
}

/// Immutable copy of one PE's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeSnapshot {
    pub slot: u8,
    pub name: &'static str,
    pub busy_cycles: u64,
    pub stall_cycles: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub fifo_high_water: u64,
    /// Peak end-of-window FIFO occupancy (sustained backpressure), tokens.
    pub fifo_peak_depth: u64,
    /// Window service-time digest (nanoseconds), empty if never sampled.
    pub service: HistogramSummary,
}

impl PeSnapshot {
    /// Whether any counter is non-zero (the PE saw traffic).
    pub fn is_active(&self) -> bool {
        self.busy_cycles != 0
            || self.stall_cycles != 0
            || self.bytes_in != 0
            || self.bytes_out != 0
            || self.fifo_high_water != 0
            || self.fifo_peak_depth != 0
    }
}

/// End-to-end frame-latency digest for one pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineLatency {
    /// Marker label the samples were recorded under.
    pub label: &'static str,
    /// Frame-latency digest in nanoseconds.
    pub latency: HistogramSummary,
}

/// Immutable copy of one NoC link's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSnapshot {
    pub from: u8,
    pub to: u8,
    pub bytes: u64,
    pub transfers: u64,
}

/// Point-in-time copy of every counter a [`Recorder`] holds.
#[derive(Debug, Clone, Default)]
pub struct RecorderSnapshot {
    /// One entry per declared or active PE slot, ordered by slot.
    pub pes: Vec<PeSnapshot>,
    /// One entry per link that carried at least one transfer.
    pub links: Vec<LinkSnapshot>,
    pub controller_cycles: u64,
    pub controller_instructions: u64,
    pub switch_programs: u64,
    pub switch_words: u64,
    pub stim_pulses: u64,
    pub radio_bytes: u64,
    pub frames: u64,
    /// Events overwritten because the ring was full.
    pub dropped_events: u64,
    /// End-to-end frame-latency digests, one per pipeline that recorded
    /// at least one sample, in first-seen order.
    pub pipelines: Vec<PipelineLatency>,
}

impl RecorderSnapshot {
    /// Total bytes crossing the NoC, summed over links.
    pub fn noc_bytes(&self) -> u64 {
        self.links.iter().map(|l| l.bytes).sum()
    }

    /// Total transfers crossing the NoC, summed over links.
    pub fn noc_transfers(&self) -> u64 {
        self.links.iter().map(|l| l.transfers).sum()
    }
}

/// A [`TelemetrySink`] that actually records: lock-free counters for the
/// hot path, a mutex-guarded bounded ring for the (much rarer) events.
///
/// Counter updates use relaxed atomics — the recorder offers per-counter
/// totals, not cross-counter consistency, which is all the exporters need.
#[derive(Debug)]
pub struct Recorder {
    pes: [PeCounters; MAX_PES],
    links: Vec<LinkCounters>,
    globals: GlobalCounters,
    names: Mutex<[Option<&'static str>; MAX_PES]>,
    ring: Mutex<EventRing>,
    latency: Mutex<LatencyStore>,
    sample_rate_hz: u32,
}

impl Recorder {
    /// A recorder whose event ring holds at most `event_capacity` entries.
    pub fn new(event_capacity: usize) -> Self {
        Self {
            pes: std::array::from_fn(|_| PeCounters::default()),
            links: (0..MAX_PES * MAX_PES)
                .map(|_| LinkCounters::default())
                .collect(),
            globals: GlobalCounters::default(),
            names: Mutex::new([None; MAX_PES]),
            ring: Mutex::new(EventRing::new(event_capacity)),
            latency: Mutex::new(LatencyStore::new()),
            sample_rate_hz: 30_000,
        }
    }

    /// Set the sample rate used to convert frame indices to wall time in
    /// exporters (defaults to the paper's 30 kHz).
    pub fn with_sample_rate_hz(mut self, hz: u32) -> Self {
        self.sample_rate_hz = hz.max(1);
        self
    }

    pub fn sample_rate_hz(&self) -> u32 {
        self.sample_rate_hz
    }

    /// Event-ring capacity this recorder was built with.
    pub fn event_capacity(&self) -> usize {
        self.ring.lock().unwrap().capacity
    }

    /// All retained events, sorted by frame (ties keep insertion order —
    /// producers may emit events out of order, e.g. a closed-loop scan
    /// that timestamps detections after the streaming run finishes).
    pub fn events(&self) -> Vec<Event> {
        let mut events = self.ring.lock().unwrap().tail(usize::MAX);
        events.sort_by_key(|e| e.frame);
        events
    }

    /// The newest `n` retained events in arrival order — the flight
    /// recorder's tail that post-mortems embed.
    pub fn recent_events(&self, n: usize) -> Vec<Event> {
        self.ring.lock().unwrap().tail(n)
    }

    /// Events dropped because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.ring.lock().unwrap().dropped
    }

    /// Per-pipeline end-to-end frame-latency histograms (cloned), in
    /// first-seen order. Exporters use the full histograms; snapshots carry
    /// only the digests.
    pub fn pipeline_histograms(&self) -> Vec<(&'static str, LogHistogram)> {
        self.latency.lock().unwrap().pipelines.clone()
    }

    /// Window service-time histogram of one PE slot (cloned), if any
    /// sample was ever recorded for it.
    pub fn pe_service_histogram(&self, slot: u8) -> Option<LogHistogram> {
        self.latency
            .lock()
            .unwrap()
            .pe_service
            .get(slot as usize)?
            .clone()
    }

    /// Copy every counter out. Cheap enough to call per window.
    pub fn snapshot(&self) -> RecorderSnapshot {
        let names = *self.names.lock().unwrap();
        let lat = self.latency.lock().unwrap();
        let mut pes = Vec::new();
        for (slot, c) in self.pes.iter().enumerate() {
            let snap = PeSnapshot {
                slot: slot as u8,
                name: names[slot].unwrap_or("?"),
                busy_cycles: c.busy_cycles.load(Ordering::Relaxed),
                stall_cycles: c.stall_cycles.load(Ordering::Relaxed),
                bytes_in: c.bytes_in.load(Ordering::Relaxed),
                bytes_out: c.bytes_out.load(Ordering::Relaxed),
                fifo_high_water: c.fifo_high_water.load(Ordering::Relaxed),
                fifo_peak_depth: c.fifo_peak_depth.load(Ordering::Relaxed),
                service: lat.pe_service[slot]
                    .as_ref()
                    .map(|h| h.summary())
                    .unwrap_or_default(),
            };
            if snap.is_active() || names[slot].is_some() {
                pes.push(snap);
            }
        }
        let pipelines = lat
            .pipelines
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(label, h)| PipelineLatency {
                label,
                latency: h.summary(),
            })
            .collect();
        drop(lat);
        let mut links = Vec::new();
        for from in 0..MAX_PES {
            for to in 0..MAX_PES {
                let c = &self.links[from * MAX_PES + to];
                let transfers = c.transfers.load(Ordering::Relaxed);
                if transfers != 0 {
                    links.push(LinkSnapshot {
                        from: from as u8,
                        to: to as u8,
                        bytes: c.bytes.load(Ordering::Relaxed),
                        transfers,
                    });
                }
            }
        }
        let ring = self.ring.lock().unwrap();
        RecorderSnapshot {
            pes,
            links,
            controller_cycles: self.globals.controller_cycles.load(Ordering::Relaxed),
            controller_instructions: self.globals.controller_instructions.load(Ordering::Relaxed),
            switch_programs: self.globals.switch_programs.load(Ordering::Relaxed),
            switch_words: self.globals.switch_words.load(Ordering::Relaxed),
            stim_pulses: self.globals.stim_pulses.load(Ordering::Relaxed),
            radio_bytes: self.globals.radio_bytes.load(Ordering::Relaxed),
            frames: self.globals.frames.load(Ordering::Relaxed),
            dropped_events: ring.dropped,
            pipelines,
        }
    }

    fn pe_counter(&self, slot: u8, counter: Counter) -> Option<&AtomicU64> {
        let c = self.pes.get(slot as usize)?;
        Some(match counter {
            Counter::BusyCycles => &c.busy_cycles,
            Counter::StallCycles => &c.stall_cycles,
            Counter::BytesIn => &c.bytes_in,
            Counter::BytesOut => &c.bytes_out,
            Counter::FifoHighWater => &c.fifo_high_water,
            Counter::FifoPeakDepth => &c.fifo_peak_depth,
            _ => return None,
        })
    }

    fn target(&self, scope: Scope, counter: Counter) -> Option<&AtomicU64> {
        match scope {
            Scope::Pe(slot) => self.pe_counter(slot, counter),
            Scope::Link { from, to } => {
                let (from, to) = (from as usize, to as usize);
                if from >= MAX_PES || to >= MAX_PES {
                    return None;
                }
                let c = &self.links[from * MAX_PES + to];
                Some(match counter {
                    Counter::BytesOut => &c.bytes,
                    Counter::TokensOut => &c.transfers,
                    _ => return None,
                })
            }
            Scope::Controller => Some(match counter {
                Counter::BusyCycles => &self.globals.controller_cycles,
                Counter::Instructions => &self.globals.controller_instructions,
                Counter::SwitchPrograms => &self.globals.switch_programs,
                Counter::SwitchWords => &self.globals.switch_words,
                Counter::StimPulses => &self.globals.stim_pulses,
                _ => return None,
            }),
            Scope::System => Some(match counter {
                Counter::RadioBytes => &self.globals.radio_bytes,
                Counter::Frames => &self.globals.frames,
                _ => return None,
            }),
        }
    }
}

impl TelemetrySink for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn declare_pe(&self, slot: u8, name: &'static str) {
        if let Some(entry) = self.names.lock().unwrap().get_mut(slot as usize) {
            *entry = Some(name);
        }
    }

    fn add(&self, scope: Scope, counter: Counter, delta: u64) {
        if let Some(cell) = self.target(scope, counter) {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    fn hwm(&self, scope: Scope, counter: Counter, value: u64) {
        if let Some(cell) = self.target(scope, counter) {
            cell.fetch_max(value, Ordering::Relaxed);
        }
    }

    fn event(&self, event: Event) {
        if let EventKind::Marker { name } = event.kind {
            // Markers announce pipeline (re)configuration; subsequent
            // frame-latency samples are attributed to this label.
            self.latency.lock().unwrap().current = name;
        }
        self.ring.lock().unwrap().push(event);
    }

    fn latency(&self, scope: Scope, nanos: u64) {
        self.latency.lock().unwrap().record(scope, nanos);
    }

    fn latency_batch(&self, scope: Scope, samples: &[u64]) {
        if samples.is_empty() {
            return;
        }
        self.latency.lock().unwrap().record_batch(scope, samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::EventKind;

    fn marker(frame: u64) -> Event {
        Event {
            frame,
            kind: EventKind::Marker { name: "m" },
        }
    }

    #[test]
    fn counters_accumulate_per_scope() {
        let rec = Recorder::new(16);
        rec.declare_pe(3, "LZ");
        rec.add(Scope::Pe(3), Counter::BusyCycles, 100);
        rec.add(Scope::Pe(3), Counter::BusyCycles, 50);
        rec.add(Scope::Link { from: 0, to: 3 }, Counter::BytesOut, 64);
        rec.add(Scope::Link { from: 0, to: 3 }, Counter::TokensOut, 1);
        rec.add(Scope::Controller, Counter::SwitchWords, 7);
        rec.add(Scope::System, Counter::RadioBytes, 1234);

        let snap = rec.snapshot();
        let pe = snap.pes.iter().find(|p| p.slot == 3).unwrap();
        assert_eq!(pe.name, "LZ");
        assert_eq!(pe.busy_cycles, 150);
        assert_eq!(snap.links.len(), 1);
        assert_eq!(snap.links[0].bytes, 64);
        assert_eq!(snap.links[0].transfers, 1);
        assert_eq!(snap.switch_words, 7);
        assert_eq!(snap.radio_bytes, 1234);
        assert_eq!(snap.noc_bytes(), 64);
    }

    #[test]
    fn hwm_takes_maximum_not_sum() {
        let rec = Recorder::new(16);
        rec.hwm(Scope::Pe(0), Counter::FifoHighWater, 4);
        rec.hwm(Scope::Pe(0), Counter::FifoHighWater, 9);
        rec.hwm(Scope::Pe(0), Counter::FifoHighWater, 2);
        let snap = rec.snapshot();
        assert_eq!(snap.pes[0].fifo_high_water, 9);
    }

    #[test]
    fn out_of_range_slots_are_dropped_silently() {
        let rec = Recorder::new(16);
        rec.add(Scope::Pe(200), Counter::BusyCycles, 1);
        rec.add(Scope::Link { from: 200, to: 0 }, Counter::BytesOut, 1);
        rec.declare_pe(200, "X");
        let snap = rec.snapshot();
        assert!(snap.pes.iter().all(|p| p.busy_cycles == 0));
        assert!(snap.links.is_empty());
    }

    #[test]
    fn mismatched_counter_scope_pairs_are_ignored() {
        let rec = Recorder::new(16);
        rec.add(Scope::Pe(0), Counter::RadioBytes, 5);
        rec.add(Scope::System, Counter::BusyCycles, 5);
        let snap = rec.snapshot();
        assert_eq!(snap.radio_bytes, 0);
        assert!(snap.pes.iter().all(|p| p.busy_cycles == 0));
    }

    #[test]
    fn ring_respects_capacity_and_keeps_newest() {
        let rec = Recorder::new(4);
        for i in 0..10 {
            rec.event(marker(i));
        }
        let events = rec.events();
        assert_eq!(events.len(), 4);
        let frames: Vec<u64> = events.iter().map(|e| e.frame).collect();
        assert_eq!(frames, vec![6, 7, 8, 9]);
        assert_eq!(rec.dropped_events(), 6);
        assert_eq!(rec.snapshot().dropped_events, 6);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let rec = Recorder::new(0);
        rec.event(marker(1));
        assert!(rec.events().is_empty());
        assert_eq!(rec.dropped_events(), 1);
    }

    #[test]
    fn events_come_back_in_arrival_order_before_wrap() {
        let rec = Recorder::new(8);
        for i in 0..5 {
            rec.event(marker(i));
        }
        let frames: Vec<u64> = rec.events().iter().map(|e| e.frame).collect();
        assert_eq!(frames, vec![0, 1, 2, 3, 4]);
        assert_eq!(rec.dropped_events(), 0);
    }

    #[test]
    fn latency_samples_build_per_pipeline_digests() {
        let rec = Recorder::new(16);
        rec.declare_pe(0, "FFT");
        // Samples before any marker land under the default label.
        rec.latency(Scope::System, 1_000);
        rec.event(Event {
            frame: 10,
            kind: EventKind::Marker { name: "seizure" },
        });
        for nanos in [10_000u64, 20_000, 30_000] {
            rec.latency(Scope::System, nanos);
        }
        rec.latency(Scope::Pe(0), 500);
        rec.latency(Scope::Pe(0), 700);

        let snap = rec.snapshot();
        assert_eq!(snap.pipelines.len(), 2);
        assert_eq!(snap.pipelines[0].label, "pipeline");
        assert_eq!(snap.pipelines[0].latency.count, 1);
        assert_eq!(snap.pipelines[1].label, "seizure");
        assert_eq!(snap.pipelines[1].latency.count, 3);
        assert!(snap.pipelines[1].latency.p50 >= 20_000);
        assert_eq!(snap.pipelines[1].latency.max, 30_000);
        let pe = snap.pes.iter().find(|p| p.slot == 0).unwrap();
        assert_eq!(pe.service.count, 2);
        assert_eq!(pe.service.max, 700);
        assert!(rec.pe_service_histogram(0).is_some());
        assert!(rec.pe_service_histogram(1).is_none());
        assert_eq!(rec.pipeline_histograms().len(), 2);
    }

    #[test]
    fn fifo_peak_depth_is_a_high_water_mark() {
        let rec = Recorder::new(16);
        rec.hwm(Scope::Pe(2), Counter::FifoPeakDepth, 3);
        rec.hwm(Scope::Pe(2), Counter::FifoPeakDepth, 11);
        rec.hwm(Scope::Pe(2), Counter::FifoPeakDepth, 5);
        let snap = rec.snapshot();
        let pe = snap.pes.iter().find(|p| p.slot == 2).unwrap();
        assert_eq!(pe.fifo_peak_depth, 11);
        assert!(pe.is_active());
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = std::sync::Arc::new(Recorder::new(64));
        let mut handles = Vec::new();
        for t in 0..4 {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    rec.add(Scope::Pe(t), Counter::BusyCycles, 1);
                    rec.add(Scope::System, Counter::Frames, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = rec.snapshot();
        assert_eq!(snap.frames, 4000);
        for t in 0..4u8 {
            let pe = snap.pes.iter().find(|p| p.slot == t).unwrap();
            assert_eq!(pe.busy_cycles, 1000);
        }
    }
}
