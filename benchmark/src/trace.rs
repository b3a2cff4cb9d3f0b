//! Span recording from outside the program: wrappers around each crate's
//! pluggable trait time every call that crosses a layer boundary.
//!
//! A span is `(name, start_ns, end_ns, parent, replica, tick)`.  Every span
//! feeds the per-name aggregate (count, total time, self time = total minus
//! the part its child spans cover); only the spans of every
//! [`FULL_EVERY`]-th tick are kept in full and written out when the run
//! ends, so a traced run stays in memory and the file stays small.

use selfheal::faults::{FaultSource, FaultSpec, FixAction, FixKind};
use selfheal::healing::snapshot::SynopsisSnapshot;
use selfheal::healing::store::SynopsisStore;
use selfheal::healing::synopsis::{Learner, SynopsisKind};
use selfheal::sim::scenario::Healer;
use selfheal::sim::service::TickOutcome;
use selfheal::workload::{Request, TraceSource};
use std::collections::{BTreeMap, HashSet};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Spans of every tick divisible by this are kept in full.
pub const FULL_EVERY: u64 = 64;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique within the run (1-based; 0 means "no parent").
    pub id: u64,
    /// Layer boundary crossed, e.g. `sim.step`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// The span this one ran inside (0 = none).
    pub parent: u64,
    /// Replica the work belonged to (the connection, for client spans).
    pub replica: usize,
    /// Simulated tick (the request sequence number, for client spans).
    pub tick: u64,
}

/// Per-name totals over every span, sampled or not.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl Aggregate {
    /// Mean duration of one span, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Mean self time of one span, in nanoseconds.
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

struct State {
    stack: Vec<Open>,
    next_id: u64,
    replica: usize,
    tick: u64,
    aggregates: BTreeMap<&'static str, Aggregate>,
    counters: BTreeMap<&'static str, u64>,
    spans: Vec<Span>,
}

/// The shared recorder.  Cloning hands out another handle to the same
/// recording; the traced fleet run is single-threaded, so the lock is never
/// contended and costs a few tens of nanoseconds per span (reported as part
/// of `trace.overhead_share`).
#[derive(Clone)]
pub struct Tracer {
    origin: Instant,
    state: Arc<Mutex<State>>,
}

/// The wrapped traits demand `Debug` of their implementors; a recording has
/// nothing useful to print.
impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Tracer")
    }
}

impl Tracer {
    /// An empty recording whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Arc::new(Mutex::new(State {
                stack: Vec::new(),
                next_id: 1,
                replica: 0,
                tick: 0,
                aggregates: BTreeMap::new(),
                counters: BTreeMap::new(),
                spans: Vec::new(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("a traced call panicked")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Declares which replica and tick the spans that follow belong to.
    pub fn at(&self, replica: usize, tick: u64) {
        let mut state = self.lock();
        state.replica = replica;
        state.tick = tick;
    }

    /// Opens a span inside whichever span is open now.
    pub fn enter(&self, name: &'static str) {
        let start_ns = self.now_ns();
        let mut state = self.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.stack.push(Open {
            id,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&self) {
        let end_ns = self.now_ns();
        let mut state = self.lock();
        let open = state.stack.pop().expect("exit without enter");
        let duration = end_ns.saturating_sub(open.start_ns);
        let parent = match state.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += duration;
                parent.id
            }
            None => 0,
        };
        let aggregate = state.aggregates.entry(open.name).or_default();
        aggregate.count += 1;
        aggregate.total_ns += duration;
        aggregate.self_ns += duration.saturating_sub(open.child_ns);
        if state.tick.is_multiple_of(FULL_EVERY) {
            let span = Span {
                id: open.id,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                parent,
                replica: state.replica,
                tick: state.tick,
            };
            state.spans.push(span);
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records a finished top-level span measured by the caller, and keeps
    /// it in full.  Client threads time their requests themselves: they run
    /// concurrently, so they cannot share the nesting stack.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        replica: usize,
        tick: u64,
    ) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut state = self.lock();
        let id = state.next_id;
        state.next_id += 1;
        let aggregate = state.aggregates.entry(name).or_default();
        aggregate.count += 1;
        aggregate.total_ns += end_ns - start_ns;
        aggregate.self_ns += end_ns - start_ns;
        state.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent: 0,
            replica,
            tick,
        });
    }

    /// Adds to a named count taken at a layer boundary.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.lock().counters.entry(name).or_default() += n;
    }

    /// The aggregate of one span name (zeros when none was recorded).
    pub fn aggregate(&self, name: &str) -> Aggregate {
        self.lock()
            .aggregates
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// One named count (zero when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Number of spans kept in full.
    pub fn sampled(&self) -> usize {
        self.lock().spans.len()
    }

    /// Writes the trace: one JSON line per fully kept span, then one
    /// `aggregate` line per span name and one `counter` line per count.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let state = self.lock();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for span in &state.spans {
            writeln!(
                out,
                "{{\"span\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"replica\":{},\"tick\":{}}}",
                span.id, span.name, span.start_ns, span.end_ns, span.parent, span.replica, span.tick
            )?;
        }
        for (name, aggregate) in &state.aggregates {
            writeln!(
                out,
                "{{\"aggregate\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                aggregate.count, aggregate.total_ns, aggregate.self_ns
            )?;
        }
        for (name, value) in &state.counters {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{value}}}")?;
        }
        out.flush()
    }
}

/// Times [`TraceSource::next_tick`] and counts the requests it emits.
#[derive(Debug)]
pub struct TimedSource {
    inner: Box<dyn TraceSource>,
    tracer: Tracer,
}

impl TimedSource {
    /// Wraps a workload source.
    pub fn new(inner: Box<dyn TraceSource>, tracer: &Tracer) -> Self {
        TimedSource {
            inner,
            tracer: tracer.clone(),
        }
    }
}

// lint:allow(choice-mirror): benchmark-only timing wrapper
impl TraceSource for TimedSource {
    fn next_tick(&mut self, tick: u64) -> Vec<Request> {
        let tracer = &self.tracer;
        let requests = tracer.span("workload.next_tick", || self.inner.next_tick(tick));
        tracer.count("workload.requests", requests.len() as u64);
        requests
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn clone_box(&self) -> Box<dyn TraceSource> {
        Box::new(TimedSource {
            inner: self.inner.clone_box(),
            tracer: self.tracer.clone(),
        })
    }
}

/// Times [`FaultSource::due_at`] and counts the faults it injects.
#[derive(Debug)]
pub struct TimedFaults {
    inner: Box<dyn FaultSource>,
    tracer: Tracer,
}

impl TimedFaults {
    /// Wraps a fault source.
    pub fn new(inner: Box<dyn FaultSource>, tracer: &Tracer) -> Self {
        TimedFaults {
            inner,
            tracer: tracer.clone(),
        }
    }
}

// lint:allow(choice-mirror): benchmark-only timing wrapper
impl FaultSource for TimedFaults {
    fn due_at(&mut self, tick: u64) -> Vec<FaultSpec> {
        let tracer = &self.tracer;
        let due = tracer.span("faults.due_at", || self.inner.due_at(tick));
        tracer.count("faults.injected", due.len() as u64);
        due
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn clone_box(&self) -> Box<dyn FaultSource> {
        Box::new(TimedFaults {
            inner: self.inner.clone_box(),
            tracer: self.tracer.clone(),
        })
    }

    fn horizon(&self) -> u64 {
        self.inner.horizon()
    }
}

/// Times [`Healer::observe`]; store calls made inside it nest as children,
/// so its self time is symptom extraction plus diagnosis.
pub struct TimedHealer {
    inner: Box<dyn Healer>,
    tracer: Tracer,
}

impl TimedHealer {
    /// Wraps a healer.
    pub fn new(inner: Box<dyn Healer>, tracer: &Tracer) -> Self {
        TimedHealer {
            inner,
            tracer: tracer.clone(),
        }
    }
}

impl Healer for TimedHealer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn observe(&mut self, outcome: &TickOutcome) -> Vec<FixAction> {
        let actions = self
            .tracer
            .span("core.observe", || self.inner.observe(outcome));
        self.tracer.count("core.fixes", actions.len() as u64);
        actions
    }
}

/// Times the learner surface of a [`SynopsisStore`]; handles from
/// [`SynopsisStore::clone_store`] stay timed.
pub struct TimedStore {
    inner: Box<dyn SynopsisStore>,
    tracer: Tracer,
}

impl TimedStore {
    /// Wraps a store.
    pub fn new(inner: Box<dyn SynopsisStore>, tracer: &Tracer) -> Self {
        TimedStore {
            inner,
            tracer: tracer.clone(),
        }
    }

    fn suggested(&self, suggestion: &Option<(FixKind, f64)>) {
        if suggestion.is_some() {
            self.tracer.count("core.store_suggest_hits", 1);
        }
    }
}

impl Learner for TimedStore {
    fn suggest(&self, symptoms: &[f64]) -> Option<(FixKind, f64)> {
        let suggestion = self
            .tracer
            .span("core.store_suggest", || self.inner.suggest(symptoms));
        self.suggested(&suggestion);
        suggestion
    }

    fn suggest_excluding(
        &self,
        symptoms: &[f64],
        excluded: &HashSet<FixKind>,
    ) -> Option<(FixKind, f64)> {
        let suggestion = self.tracer.span("core.store_suggest", || {
            self.inner.suggest_excluding(symptoms, excluded)
        });
        self.suggested(&suggestion);
        suggestion
    }

    fn record(&mut self, symptoms: &[f64], fix: FixKind, success: bool) {
        self.tracer.span("core.store_record", || {
            self.inner.record(symptoms, fix, success)
        });
    }

    fn correct_fixes_learned(&self) -> usize {
        self.inner.correct_fixes_learned()
    }
}

// lint:allow(choice-mirror): benchmark-only timing wrapper
impl SynopsisStore for TimedStore {
    fn kind(&self) -> SynopsisKind {
        self.inner.kind()
    }

    fn flush(&self) {
        self.tracer.span("core.store_flush", || self.inner.flush());
    }

    fn pending_updates(&self) -> usize {
        self.inner.pending_updates()
    }

    fn snapshot(&self) -> SynopsisSnapshot {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &SynopsisSnapshot) {
        self.inner.restore(snapshot);
    }

    fn clone_store(&self) -> Box<dyn SynopsisStore> {
        Box::new(TimedStore {
            inner: self.inner.clone_store(),
            tracer: self.tracer.clone(),
        })
    }

    fn persist_to(&mut self, path: &Path) -> io::Result<()> {
        self.inner.persist_to(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let tracer = Tracer::new();
        tracer.at(3, 64);
        tracer.enter("outer");
        tracer.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.span("inner", || ());
        tracer.exit();
        let outer = tracer.aggregate("outer");
        let inner = tracer.aggregate("inner");
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.mean_ns() >= inner.mean_ns());
        assert_eq!(tracer.aggregate("never"), Aggregate::default());
    }

    #[test]
    fn only_every_64th_tick_is_kept_in_full_and_parents_link() {
        let tracer = Tracer::new();
        for tick in 0..130 {
            tracer.at(1, tick);
            tracer.enter("step");
            tracer.span("child", || ());
            tracer.exit();
        }
        assert_eq!(tracer.aggregate("step").count, 130);
        // Ticks 0, 64 and 128, two spans each.
        assert_eq!(tracer.sampled(), 6);
        let state = tracer.lock();
        let child = &state.spans[0];
        let step = &state.spans[1];
        assert_eq!((child.name, step.name), ("child", "step"));
        assert_eq!(child.parent, step.id);
        assert_eq!(step.parent, 0);
        assert_eq!((step.replica, step.tick), (1, 0));
    }

    #[test]
    fn counters_accumulate_and_the_file_lists_everything() {
        let tracer = Tracer::new();
        tracer.count("faults.injected", 2);
        tracer.count("faults.injected", 3);
        tracer.span("sim.step", || ());
        assert_eq!(tracer.counter("faults.injected"), 5);
        assert_eq!(tracer.counter("never"), 0);
        let path =
            std::env::temp_dir().join(format!("selfheal-trace-{}.jsonl", std::process::id()));
        tracer.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.contains("\"span\":1,\"name\":\"sim.step\""));
        assert!(text.contains("\"aggregate\":\"sim.step\",\"count\":1"));
        assert!(text.contains("\"counter\":\"faults.injected\",\"value\":5"));
    }
}
