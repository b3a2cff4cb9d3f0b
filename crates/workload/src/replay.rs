//! Recorded traces and their replay: [`RecordedTrace`] + [`ReplaySource`].
//!
//! Any [`TraceSource`] can be captured tick-by-tick into a
//! [`RecordedTrace`], persisted as JSON-lines (see [`crate::codec`]), and
//! replayed later through a [`ReplaySource`] — byte-identically when
//! replayed in [`ReplayMode::Truncate`] with no phase shift, or staggered
//! across a fleet by giving each replica a different
//! [`ReplaySource::with_phase`] offset into the same trace.

use crate::codec::{self, CodecError, TraceRecord};
use crate::request::Request;
use crate::source::TraceSource;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// An in-memory request trace: one [`TraceRecord`] per recorded tick, in
/// recording order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecordedTrace {
    records: Vec<TraceRecord>,
}

impl RecordedTrace {
    /// Wraps a sequence of per-tick records.
    pub fn new(records: Vec<TraceRecord>) -> Self {
        RecordedTrace { records }
    }

    /// Captures `ticks` ticks from a live source.
    ///
    /// The source is advanced (not reset first): callers wanting a
    /// from-the-start capture should [`TraceSource::reset`] beforehand.
    pub fn capture<S: TraceSource + ?Sized>(source: &mut S, ticks: u64) -> Self {
        let records = (0..ticks)
            .map(|tick| TraceRecord::new(tick, source.next_tick(tick)))
            .collect();
        RecordedTrace { records }
    }

    /// The per-tick records.
    pub(crate) fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of recorded ticks.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no ticks.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total requests across all recorded ticks.
    pub fn total_requests(&self) -> u64 {
        self.records.iter().map(|r| r.requests.len() as u64).sum()
    }

    /// Serializes the trace as a JSON-lines document.
    pub fn to_jsonl(&self) -> String {
        codec::to_jsonl(&self.records)
    }

    /// Parses a JSON-lines document into a trace.
    pub fn from_jsonl(text: &str) -> Result<Self, CodecError> {
        codec::from_jsonl(text).map(RecordedTrace::new)
    }

    /// Writes the trace to a JSON-lines file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Reads a trace from a JSON-lines file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        RecordedTrace::from_jsonl(&text)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))
    }
}

/// What a [`ReplaySource`] does when the scenario outlives the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Wrap around to the beginning of the trace.
    Loop,
    /// Emit empty batches once the trace is exhausted.
    Truncate,
}

/// Replays a [`RecordedTrace`] as a [`TraceSource`].
///
/// The source keeps its own tick cursor (advanced once per `next_tick`) and
/// reads the trace at `cursor + phase`, wrapping or truncating per
/// [`ReplayMode`].  Emitted requests are re-stamped with fresh monotone ids
/// and the *current* tick, so a phase-shifted or looped replay still feeds
/// the simulator requests that arrive "now" — and an unshifted
/// [`ReplayMode::Truncate`] replay of a synthetic capture reproduces the
/// original generator's output exactly.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    trace: Arc<RecordedTrace>,
    mode: ReplayMode,
    phase: u64,
    cursor: u64,
    next_request_id: u64,
}

impl ReplaySource {
    /// Creates a replay of `trace` with no phase shift.
    pub fn new(trace: RecordedTrace, mode: ReplayMode) -> Self {
        Self::shared(Arc::new(trace), mode)
    }

    /// Creates a replay over an already-shared trace.  Fleets use this so N
    /// replicas reference one trace allocation instead of N deep copies
    /// (cloning a `ReplaySource` is likewise a refcount bump).
    pub fn shared(trace: Arc<RecordedTrace>, mode: ReplayMode) -> Self {
        ReplaySource {
            trace,
            mode,
            phase: 0,
            cursor: 0,
            next_request_id: 0,
        }
    }

    /// Starts the replay `phase` ticks into the trace (per-replica phase
    /// shifts, so a fleet does not hit every recorded surge in lockstep).
    pub fn with_phase(mut self, phase: u64) -> Self {
        self.phase = phase;
        self
    }
}

impl TraceSource for ReplaySource {
    fn next_tick(&mut self, tick: u64) -> Vec<Request> {
        let position = self.cursor + self.phase;
        self.cursor += 1;
        let len = self.trace.len() as u64;
        if len == 0 {
            return Vec::new();
        }
        let index = match self.mode {
            ReplayMode::Loop => (position % len) as usize,
            ReplayMode::Truncate => {
                if position >= len {
                    return Vec::new();
                }
                position as usize
            }
        };
        self.trace.records()[index]
            .requests
            .iter()
            .map(|request| {
                let id = self.next_request_id;
                self.next_request_id += 1;
                Request::new(id, request.kind, tick)
            })
            .collect()
    }

    fn reset(&mut self) {
        self.cursor = 0;
        self.next_request_id = 0;
    }

    fn clone_box(&self) -> Box<dyn TraceSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use crate::mix::WorkloadMix;
    use crate::trace::TraceGenerator;

    impl ReplaySource {
        /// The configured phase shift.
        fn phase(&self) -> u64 {
            self.phase
        }

        /// The trace being replayed.
        fn trace(&self) -> &RecordedTrace {
            &self.trace
        }
    }

    fn captured(ticks: u64) -> RecordedTrace {
        let mut generator = TraceGenerator::new(
            WorkloadMix::bidding(),
            ArrivalProcess::Poisson { rate: 8.0 },
            21,
        );
        RecordedTrace::capture(&mut generator, ticks)
    }

    #[test]
    fn capture_then_truncate_replay_reproduces_the_generator() {
        let trace = captured(25);
        let mut generator = TraceGenerator::new(
            WorkloadMix::bidding(),
            ArrivalProcess::Poisson { rate: 8.0 },
            21,
        );
        let mut replay = ReplaySource::new(trace.clone(), ReplayMode::Truncate);
        for tick in 0..25 {
            assert_eq!(replay.next_tick(tick), generator.next_tick(tick));
        }
        // Past the end, truncate goes quiet.
        assert!(replay.next_tick(25).is_empty());
        assert!(trace.total_requests() > 0);
        assert_eq!(trace.len(), 25);
    }

    #[test]
    fn jsonl_round_trip_preserves_the_trace_structurally() {
        let trace = captured(12);
        let parsed = RecordedTrace::from_jsonl(&trace.to_jsonl()).expect("round trip");
        assert_eq!(parsed, trace);
        assert_eq!(parsed.len(), 12);
    }

    #[test]
    fn loop_mode_wraps_and_restamps_ticks_and_ids() {
        let trace = captured(10);
        let mut replay = ReplaySource::new(trace.clone(), ReplayMode::Loop);
        let mut first_cycle = Vec::new();
        for tick in 0..10 {
            first_cycle.push(replay.next_tick(tick));
        }
        let wrapped = replay.next_tick(10);
        // Same kinds as the first recorded tick, but stamped at tick 10 with
        // fresh monotone ids.
        let kinds: Vec<_> = wrapped.iter().map(|r| r.kind).collect();
        let original_kinds: Vec<_> = first_cycle[0].iter().map(|r| r.kind).collect();
        assert_eq!(kinds, original_kinds);
        assert!(wrapped.iter().all(|r| r.arrival_tick == 10));
        if let (Some(last_of_cycle), Some(first_wrapped)) =
            (first_cycle.last().and_then(|b| b.last()), wrapped.first())
        {
            assert_eq!(first_wrapped.id, last_of_cycle.id + 1);
        }
    }

    #[test]
    fn phase_shift_offsets_the_replay_start() {
        let trace = captured(10);
        let mut shifted = ReplaySource::new(trace.clone(), ReplayMode::Loop).with_phase(4);
        let batch = shifted.next_tick(0);
        let expected_kinds: Vec<_> = trace.records()[4].requests.iter().map(|r| r.kind).collect();
        assert_eq!(
            batch.iter().map(|r| r.kind).collect::<Vec<_>>(),
            expected_kinds
        );
        assert_eq!(shifted.phase(), 4);

        // Reset rewinds the cursor but keeps the phase.
        shifted.next_tick(1);
        shifted.reset();
        assert_eq!(
            shifted
                .next_tick(0)
                .iter()
                .map(|r| r.kind)
                .collect::<Vec<_>>(),
            expected_kinds
        );
    }

    #[test]
    fn empty_trace_yields_empty_batches() {
        let mut replay = ReplaySource::new(RecordedTrace::default(), ReplayMode::Loop);
        assert!(replay.trace().is_empty());
        assert!(replay.next_tick(0).is_empty());
    }
}
