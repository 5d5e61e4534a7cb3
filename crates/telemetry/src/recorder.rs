//! The [`Recorder`] sink: per-PE, per-link and device totals, the live
//! fabric generation and pipeline label, and a bounded event ring holding
//! one [`EventKind::Window`] entry per window with frames in it, all under
//! one lock.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::histogram::{HistogramSummary, LogHistogram};
use crate::sink::{Event, EventKind, TelemetrySink, WindowRecord, WindowReport};
use crate::MAX_PES;

/// Per-PE totals.
#[derive(Debug, Default, Clone, Copy)]
struct PeTotals {
    busy_cycles: u64,
    stall_cycles: u64,
    bytes_in: u64,
    bytes_out: u64,
    fifo_high_water: u64,
}

/// Latency histograms: end-to-end frame latency per pipeline and window
/// service time per PE.
#[derive(Debug)]
struct LatencyStore {
    /// End-to-end frame latency per pipeline label, in first-seen order.
    pipelines: Vec<(&'static str, LogHistogram)>,
    /// Per-PE window service time, allocated lazily per slot.
    pe_service: Vec<Option<LogHistogram>>,
}

impl LatencyStore {
    fn new() -> Self {
        Self {
            pipelines: Vec::new(),
            pe_service: (0..MAX_PES).map(|_| None).collect(),
        }
    }

    /// Record frame-latency samples under pipeline `label`.
    fn record_frames(&mut self, label: &'static str, samples: &[u64]) {
        if samples.is_empty() {
            return;
        }
        let hist = match self.pipelines.iter().position(|(l, _)| *l == label) {
            Some(i) => &mut self.pipelines[i].1,
            None => {
                self.pipelines.push((label, LogHistogram::new()));
                &mut self.pipelines.last_mut().unwrap().1
            }
        };
        for &nanos in samples {
            hist.record(nanos);
        }
    }
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

    fn push(&mut self, frame: u64, kind: EventKind) {
        let event = Event { frame, kind };
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

/// Everything a [`Recorder`] holds, behind its one lock.
#[derive(Debug)]
struct RecorderState {
    names: [Option<&'static str>; MAX_PES],
    pes: [PeTotals; MAX_PES],
    /// `(bytes, transfers)` per `(from, to)` link that carried traffic.
    links: BTreeMap<(u8, u8), (u64, u64)>,
    controller_cycles: u64,
    controller_instructions: u64,
    switch_programs: u64,
    switch_words: u64,
    stim_pulses: u64,
    radio_bytes: u64,
    frames: u64,
    /// Fabric configuration generation from the last `SwitchProgram`.
    fabric_generation: u64,
    /// Label of the last `Marker` event: pipelines announce themselves
    /// with one when telemetry is attached or the fabric reconfigured,
    /// and frame latency is attributed to it.
    active_pipeline: &'static str,
    ring: EventRing,
    latency: LatencyStore,
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
    /// Fabric configuration generation at the last switch programming.
    pub fabric_generation: u64,
    /// Label of the most recent pipeline marker.
    pub active_pipeline: &'static str,
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

/// A [`TelemetrySink`] that actually records: each closed window folds
/// into plain integer totals, and events land in a bounded ring, all under
/// one lock taken once per window or event.
#[derive(Debug)]
pub struct Recorder {
    state: Mutex<RecorderState>,
    sample_rate_hz: u32,
}

impl Recorder {
    /// A recorder whose event ring holds at most `event_capacity` entries.
    pub fn new(event_capacity: usize) -> Self {
        Self {
            state: Mutex::new(RecorderState {
                names: [None; MAX_PES],
                pes: [PeTotals::default(); MAX_PES],
                links: BTreeMap::new(),
                controller_cycles: 0,
                controller_instructions: 0,
                switch_programs: 0,
                switch_words: 0,
                stim_pulses: 0,
                radio_bytes: 0,
                frames: 0,
                fabric_generation: 0,
                active_pipeline: "pipeline",
                ring: EventRing::new(event_capacity),
                latency: LatencyStore::new(),
            }),
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

    fn state(&self) -> std::sync::MutexGuard<'_, RecorderState> {
        self.state
            .lock()
            .expect("a thread panicked while holding the recorder lock")
    }

    /// Event-ring capacity this recorder was built with.
    pub fn event_capacity(&self) -> usize {
        self.state().ring.capacity
    }

    /// All retained events, sorted by frame (ties keep insertion order —
    /// producers may emit events out of order, e.g. a closed-loop scan
    /// that timestamps detections after the streaming run finishes).
    pub fn events(&self) -> Vec<Event> {
        let mut events = self.state().ring.tail(usize::MAX);
        events.sort_by_key(|e| e.frame);
        events
    }

    /// The newest `n` retained events in arrival order — the flight
    /// recorder's tail that post-mortems embed.
    pub fn recent_events(&self, n: usize) -> Vec<Event> {
        self.state().ring.tail(n)
    }

    /// Events dropped because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.state().ring.dropped
    }

    /// Per-pipeline end-to-end frame-latency histograms (cloned), in
    /// first-seen order. Exporters use the full histograms; snapshots carry
    /// only the digests.
    pub fn pipeline_histograms(&self) -> Vec<(&'static str, LogHistogram)> {
        self.state().latency.pipelines.clone()
    }

    /// Window service-time histogram of one PE slot (cloned), if any
    /// sample was ever recorded for it.
    pub fn pe_service_histogram(&self, slot: u8) -> Option<LogHistogram> {
        self.state().latency.pe_service.get(slot as usize)?.clone()
    }

    /// Copy every counter out. Cheap enough to call per window.
    pub fn snapshot(&self) -> RecorderSnapshot {
        let s = self.state();
        let pes = (0..MAX_PES)
            .map(|slot| {
                let t = s.pes[slot];
                PeSnapshot {
                    slot: slot as u8,
                    name: s.names[slot].unwrap_or("?"),
                    busy_cycles: t.busy_cycles,
                    stall_cycles: t.stall_cycles,
                    bytes_in: t.bytes_in,
                    bytes_out: t.bytes_out,
                    fifo_high_water: t.fifo_high_water,
                    service: s.latency.pe_service[slot]
                        .as_ref()
                        .map(|h| h.summary())
                        .unwrap_or_default(),
                }
            })
            .filter(|pe| pe.is_active() || s.names[pe.slot as usize].is_some())
            .collect();
        let pipelines = s
            .latency
            .pipelines
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(label, h)| PipelineLatency {
                label,
                latency: h.summary(),
            })
            .collect();
        let links = s
            .links
            .iter()
            .map(|(&(from, to), &(bytes, transfers))| LinkSnapshot {
                from,
                to,
                bytes,
                transfers,
            })
            .collect();
        RecorderSnapshot {
            pes,
            links,
            controller_cycles: s.controller_cycles,
            controller_instructions: s.controller_instructions,
            switch_programs: s.switch_programs,
            switch_words: s.switch_words,
            stim_pulses: s.stim_pulses,
            radio_bytes: s.radio_bytes,
            frames: s.frames,
            fabric_generation: s.fabric_generation,
            active_pipeline: s.active_pipeline,
            dropped_events: s.ring.dropped,
            pipelines,
        }
    }
}

impl TelemetrySink for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn declare_pe(&self, slot: u8, name: &'static str) {
        if let Some(entry) = self.state().names.get_mut(slot as usize) {
            *entry = Some(name);
        }
    }

    /// Folds the window into the totals. A window with frames in it also
    /// becomes one [`EventKind::Window`] entry, stamped at its start,
    /// that names each slot as declared now; a zero-frame window folds
    /// its counters only.
    fn window(&self, report: &WindowReport) {
        let mut guard = self.state();
        let s = &mut *guard;
        s.frames += u64::from(report.frames);
        s.radio_bytes += report.radio_bytes;
        s.latency
            .record_frames(s.active_pipeline, &report.frame_latency_ns);
        for link in &report.links {
            let total = s.links.entry((link.from, link.to)).or_default();
            total.0 += link.bytes;
            total.1 += link.transfers;
        }
        let slots = &report.slots[..report.slots.len().min(MAX_PES)];
        for (slot, w) in slots.iter().enumerate() {
            let t = &mut s.pes[slot];
            t.busy_cycles += w.busy_cycles;
            t.stall_cycles += w.stall_cycles;
            t.bytes_in += w.bytes_in;
            t.bytes_out += w.bytes_out;
            if report.frames != 0 {
                t.fifo_high_water = t.fifo_high_water.max(w.fifo_high_water);
                if w.busy_cycles != 0 {
                    s.latency.pe_service[slot]
                        .get_or_insert_with(LogHistogram::new)
                        .record(w.service_ns);
                }
            }
        }
        if report.frames == 0 {
            return;
        }
        let record = WindowRecord {
            report: WindowReport {
                slots: slots.to_vec(),
                links: report.links.clone(),
                frame_latency_ns: Vec::new(),
                ..*report
            },
            names: s.names[..slots.len()]
                .iter()
                .map(|name| name.unwrap_or("?"))
                .collect(),
        };
        s.ring
            .push(report.start, EventKind::Window(Box::new(record)));
    }

    fn controller(&self, cycles: u64, instructions: u64) {
        let mut s = self.state();
        s.controller_cycles += cycles;
        s.controller_instructions += instructions;
    }

    fn event(&self, event: Event) {
        let mut s = self.state();
        match event.kind {
            EventKind::Marker { name } => s.active_pipeline = name,
            EventKind::SwitchProgram { words, generation } => {
                s.switch_programs += 1;
                s.switch_words += u64::from(words);
                s.fabric_generation = generation;
            }
            EventKind::Stim { .. } => s.stim_pulses += 1,
            _ => {}
        }
        s.ring.push(event.frame, event.kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{EventKind, LinkWindow, SlotWindow};

    fn marker(frame: u64) -> Event {
        Event {
            frame,
            kind: EventKind::Marker { name: "m" },
        }
    }

    /// A `frames`-frame window from `start` over `slots`.
    fn report(start: u64, frames: u32, slots: Vec<SlotWindow>) -> WindowReport {
        WindowReport {
            start,
            frames,
            slots,
            ..WindowReport::default()
        }
    }

    fn busy(busy_cycles: u64) -> SlotWindow {
        SlotWindow {
            busy_cycles,
            ..SlotWindow::default()
        }
    }

    #[test]
    fn windows_fold_into_totals() {
        let rec = Recorder::new(64);
        rec.declare_pe(3, "LZ");
        let mut slots = vec![SlotWindow::default(); 4];
        slots[3] = busy(100);
        let mut first = report(0, 30, slots.clone());
        first.links.push(LinkWindow {
            from: 0,
            to: 3,
            bytes: 64,
            transfers: 1,
        });
        first.radio_bytes = 1234;
        rec.window(&first);
        slots[3].busy_cycles = 50;
        rec.window(&report(30, 30, slots));
        rec.event(Event {
            frame: 0,
            kind: EventKind::SwitchProgram {
                words: 7,
                generation: 1,
            },
        });
        rec.controller(500, 200);

        let snap = rec.snapshot();
        let pe = snap.pes.iter().find(|p| p.slot == 3).unwrap();
        assert_eq!(pe.name, "LZ");
        assert_eq!(pe.busy_cycles, 150);
        assert_eq!(snap.frames, 60);
        assert_eq!(snap.links.len(), 1);
        assert_eq!(snap.links[0].bytes, 64);
        assert_eq!(snap.links[0].transfers, 1);
        assert_eq!((snap.switch_programs, snap.switch_words), (1, 7));
        assert_eq!(snap.controller_cycles, 500);
        assert_eq!(snap.controller_instructions, 200);
        assert_eq!(snap.radio_bytes, 1234);
        assert_eq!(snap.noc_bytes(), 64);
    }

    #[test]
    fn a_window_with_frames_is_one_entry_under_its_declared_names() {
        let rec = Recorder::new(64);
        rec.declare_pe(0, "LZ");
        let mut lz = busy(10);
        lz.fifo_high_water = 4;
        let mut window = report(30, 30, vec![lz, SlotWindow::default()]);
        window.frame_latency_ns = vec![1_000; 30];
        rec.window(&window);
        // A later declaration does not rename the closed window.
        rec.declare_pe(0, "RC");
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].frame, 30);
        let EventKind::Window(record) = &events[0].kind else {
            panic!("{:?}", events[0].kind);
        };
        // Slot 1 was never declared.
        assert_eq!(record.names, ["LZ", "?"]);
        assert!(record.report.frame_latency_ns.is_empty());
        window.frame_latency_ns.clear();
        assert_eq!(record.report, window);
    }

    #[test]
    fn zero_frame_window_folds_counters_only() {
        let rec = Recorder::new(64);
        let mut lz = busy(10);
        lz.fifo_high_water = 4;
        rec.window(&report(90, 0, vec![lz]));
        let snap = rec.snapshot();
        assert_eq!(snap.pes[0].busy_cycles, 10);
        assert_eq!(snap.pes[0].fifo_high_water, 0);
        assert!(rec.events().is_empty());
    }

    #[test]
    fn fifo_high_water_takes_maximum_not_sum() {
        let rec = Recorder::new(16);
        for (k, peak) in [4u64, 9, 2].into_iter().enumerate() {
            let slot = SlotWindow {
                fifo_high_water: peak,
                ..SlotWindow::default()
            };
            rec.window(&report(k as u64 * 30, 30, vec![slot]));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.pes[0].fifo_high_water, 9);
    }

    #[test]
    fn out_of_range_slots_are_dropped_silently() {
        let rec = Recorder::new(16);
        let mut slots = vec![SlotWindow::default(); MAX_PES + 1];
        slots[MAX_PES] = busy(1);
        rec.window(&report(0, 30, slots));
        rec.declare_pe(200, "X");
        let snap = rec.snapshot();
        assert!(snap.pes.iter().all(|p| p.busy_cycles == 0));
        let EventKind::Window(record) = &rec.events()[0].kind else {
            panic!("the window is the only entry");
        };
        assert_eq!(
            (record.report.slots.len(), record.names.len()),
            (MAX_PES, MAX_PES)
        );
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
        let mut first = report(0, 1, vec![]);
        first.frame_latency_ns = vec![1_000];
        rec.window(&first);
        rec.event(Event {
            frame: 10,
            kind: EventKind::Marker { name: "seizure" },
        });
        let mut fft = busy(10);
        for (k, service_ns) in [500, 700].into_iter().enumerate() {
            fft.service_ns = service_ns;
            let mut w = report(10 + k as u64, 1, vec![fft]);
            if k == 0 {
                w.frame_latency_ns = vec![10_000, 20_000, 30_000];
            }
            rec.window(&w);
        }

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
    fn recorder_is_shareable_across_threads() {
        let rec = std::sync::Arc::new(Recorder::new(64));
        let mut handles = Vec::new();
        for t in 0..4usize {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                let mut slots = vec![SlotWindow::default(); 4];
                slots[t] = busy(1);
                for _ in 0..1000 {
                    rec.window(&report(0, 1, slots.clone()));
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
