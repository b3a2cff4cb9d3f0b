//! Synopsis persistence: a JSON-lines codec for learned failure→fix models.
//!
//! The paper's synopses are cheap to generate (Table 3) precisely because
//! they are rebuilt from their training examples, so what a store persists
//! is not the fitted model but the *experience* behind it: every recorded
//! `(symptoms, fix, success)` outcome.  A [`SynopsisSnapshot`] is that
//! experience plus the kind of the model that recorded it, serialized one
//! outcome per line (mirroring the request-trace codec in
//! `selfheal_workload::codec`, and built on the same
//! [`selfheal_jsonl`] primitives):
//!
//! ```text
//! {"synopsis":"nearest_neighbor","examples":3}
//! {"symptoms":[8.0,1.0,1.0],"fix":"repartition_memory","success":true}
//! {"symptoms":[1.0,9.0,1.0],"fix":"microreboot_ejb","success":false}
//! ...
//! ```
//!
//! Because the snapshot holds raw examples rather than model weights, any
//! [`crate::store::SynopsisStore`] can restore from any snapshot — a fleet
//! configured for AdaBoost warm-starts from experience a nearest-neighbor
//! fleet saved.  Fixes are persisted by *label*, not numeric code, so saved
//! files survive enum reordering and stay human-readable.
//!
//! Two file shapes share the codec:
//!
//! * **Complete** snapshots (the [`SynopsisSnapshot::save`] /
//!   [`SynopsisSnapshot::to_jsonl`] path) declare their example count in
//!   the header, and [`SynopsisSnapshot::from_jsonl`] verifies it — a
//!   truncated file is rejected.
//! * **Incremental** logs ([`SnapshotLog`], what
//!   [`crate::store::SynopsisStore::persist_to`] writes) mark the header
//!   `"incremental":true` instead: stores *append* each drained batch of
//!   outcomes as it happens, so the file is valid — and restores everything
//!   appended so far — even if the process dies mid-run.  The loader reads
//!   incremental files to EOF with no count check.
//!
//! Either shape is read by one reader, streamed.  [`SnapshotLog::open`]
//! and [`SynopsisSnapshot::load`] cut the file into up to
//! `available_parallelism()` byte ranges, each starting at a line and at
//! least 1 MiB long, and parse every range on a thread of its own through
//! positioned reads of the one handle into a 64 KiB buffer of its own, so
//! a log is never in memory whole beside the experience parsed from it.  A
//! range notes only what the document rules need in file order — its
//! header lines, its first example and its first refusal, each at its line
//! — and the calling thread replays those notes in file order and joins the
//! ranges' examples.  So the snapshot, the byte counts and every refusal,
//! message and line number, are what one pass over the file gives; a file
//! under 2 MiB, a one-core host and [`SynopsisSnapshot::from_jsonl`] are
//! one range on the calling thread.  Writing is streamed the other way
//! round: [`SnapshotLog::create`] and [`SynopsisSnapshot::save`] format
//! lines into one reused buffer and write it out, at a line boundary, every
//! 64 KiB.
//!
//! The reader refuses what the writer cannot have written: an unknown field
//! or label, a field given twice on a line, header and example fields on
//! one line, a number `f64` does not hold (`1e999` — a value that is not
//! finite is *written* as `0`), anything after the closing brace.
//!
//! ## Restarting over a log: adopt, don't recreate
//!
//! A process that comes back over its own log reads it **once and rewrites
//! nothing**: [`SnapshotLog::open`] replays the file exactly as strictly as
//! [`SynopsisSnapshot::load`] (every line parsed, everything listed above
//! refused, header required and unique) and hands back the replayed
//! snapshot *and* the file, still open for appending.  The caller restores
//! its store from the one and attaches the other
//! ([`crate::store::SynopsisStore::attach_log`]); the bytes already on disk
//! stay byte for byte what they were, so a log keeps its **recording
//! order** across any number of restarts instead of being regrouped
//! successes-first by a store's `snapshot()`.
//!
//! A rewrite ([`SnapshotLog::create`], through `persist_to`) remains only
//! where the file itself shows it is needed:
//!
//! 1. the file is **absent** — there is nothing to adopt;
//! 2. its header is a **complete-snapshot** header (`"examples":N`) —
//!    appending would falsify the count, so [`SnapshotLog::open`] returns
//!    the snapshot without a log handle and leaves the file untouched;
//! 3. its header names a **different synopsis kind** than the store that
//!    will append to it — the header would misdescribe what follows.
//!
//! What a restart costs is that replay, ≈ 1.3 µs a line on a core.  Over a
//! 20 000-example log (26 symptoms a line, 10.9 MB, 520 000 numbers of
//! 16–17 digits) one range takes ≈ 26 ms on a quick core:
//! `str::parse::<f64>` ≈ 10, finding each token's end and walking the
//! arrays ≈ 9, one `Vec` a line ≈ 2, reading the file, copying each line
//! and checking it is UTF-8 ≈ 2.5; restoring the store (≈ 1.4) and dropping
//! the replayed snapshot (≈ 0.8) follow.  The scanner slices the `&str` it
//! is handed and finds a token's end in one search, so a number's bytes are
//! looked at twice — once to delimit, once to convert.  On two cores the
//! log is two ranges that parse side by side in 0.50–0.55 of the one-range
//! time each, and the calling thread's replay of their notes and join of
//! their examples add ≈ 0.6 ms, so `open` takes ≈ 0.55–0.65 of one range,
//! and a relaunched daemon answers its first `STATUS` in ≈ 0.62 of the time
//! (measured on a 2-vCPU host, whose absolute times swing 2× with its
//! load).  Past one range per core the parse cannot be split further: a
//! restart that must be faster still has to replay *less* (compact the
//! log), not parse more cleverly.
//!
//! **Torn tail.**  An append is one `O_APPEND` write of whole lines, and
//! `create` a run of such writes on the one handle, so the only damage a
//! killed writer can leave is an unfinished *final* line.
//! `open` therefore looks at the bytes after the last `\n`: if they parse
//! as a whole example it keeps it and writes the missing `\n`; if not it
//! truncates the file back to the last `\n` and reports the dropped byte
//! count ([`Replay::torn_bytes`]).  A bad line anywhere *before* the final
//! one still fails the whole replay.  Nothing here calls `fsync`: the log
//! survives the death of the process, not of the machine.

use crate::synopsis::SynopsisKind;
use selfheal_faults::FixKind;
use selfheal_jsonl::{push_f64, JsonError, Scanner};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::thread;

/// One recorded fix outcome: the failure signature, the fix attempted, and
/// whether it repaired the failure.
#[derive(Debug, Clone, PartialEq)]
pub struct SynopsisExample {
    /// The symptom vector of the failure data point.
    pub symptoms: Vec<f64>,
    /// The fix that was attempted.
    pub fix: FixKind,
    /// Whether the fix repaired the failure (successes become positive
    /// training examples; failures become negative knowledge).
    pub success: bool,
}

impl SynopsisExample {
    /// Creates an example.
    pub fn new(symptoms: Vec<f64>, fix: FixKind, success: bool) -> Self {
        SynopsisExample {
            symptoms,
            fix,
            success,
        }
    }
}

/// A persistable synopsis: the model kind plus every training outcome, in
/// the order they were recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct SynopsisSnapshot {
    /// Kind of the synopsis that recorded the experience (advisory: a store
    /// restores the examples into its *own* kind).
    pub kind: SynopsisKind,
    /// Recorded outcomes, oldest first.
    pub examples: Vec<SynopsisExample>,
}

impl SynopsisSnapshot {
    /// Creates an empty snapshot for the given kind.
    pub fn new(kind: SynopsisKind) -> Self {
        SynopsisSnapshot {
            kind,
            examples: Vec::new(),
        }
    }

    /// Appends one outcome.
    pub fn push(&mut self, symptoms: Vec<f64>, fix: FixKind, success: bool) {
        self.examples
            .push(SynopsisExample::new(symptoms, fix, success));
    }

    /// Number of recorded outcomes.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the snapshot holds no outcomes.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Number of successful-fix outcomes.
    pub fn positives(&self) -> usize {
        self.examples.iter().filter(|e| e.success).count()
    }

    /// Number of failed-fix outcomes.
    pub fn negatives(&self) -> usize {
        self.examples.iter().filter(|e| !e.success).count()
    }

    /// Serializes the snapshot as a JSON-lines document (header line first,
    /// then one example per line; trailing newline included).
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::with_capacity(64 + self.examples.len() * 64);
        self.write_complete(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the codec writes text")
    }

    /// The complete-snapshot document: the example count in the header.
    fn write_complete(&self, out: impl io::Write) -> io::Result<()> {
        self.write_lines(out, &format!("\"examples\":{}", self.examples.len()))
    }

    /// Writes the header — the kind, then `field` — and one line per example
    /// to `out` as they are formatted: one reused buffer, handed over at a
    /// line boundary whenever it passes [`WRITE_CHUNK`], so the document is
    /// never in memory whole beside the snapshot and every write is whole
    /// lines.
    fn write_lines(&self, mut out: impl io::Write, field: &str) -> io::Result<()> {
        let mut text = format!("{{\"synopsis\":\"{}\",{field}}}\n", self.kind.label());
        for example in &self.examples {
            push_outcome_line(&mut text, &example.symptoms, example.fix, example.success);
            if text.len() >= WRITE_CHUNK {
                out.write_all(text.as_bytes())?;
                text.clear();
            }
        }
        out.write_all(text.as_bytes())
    }

    /// Parses a JSON-lines document produced by
    /// [`SynopsisSnapshot::to_jsonl`] or appended by a [`SnapshotLog`]
    /// (blank lines are skipped).  Complete snapshots are verified against
    /// their declared example count; incremental logs are read to EOF.
    pub fn from_jsonl(text: &str) -> Result<SynopsisSnapshot, JsonError> {
        let range = read_range(text.as_bytes(), text.len(), Tail::Line);
        Document::replay(vec![range])
            .and_then(Document::finish)
            .map_err(Refusal::into_json)
    }

    /// Writes the snapshot to a JSON-lines file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.write_complete(File::create(path)?)
    }

    /// Reads a snapshot from a JSON-lines file, streamed in ranges as
    /// [`SnapshotLog::open`] reads it, and refused wherever
    /// [`from_jsonl`](Self::from_jsonl) would refuse its text.
    pub fn load(path: impl AsRef<Path>) -> io::Result<SynopsisSnapshot> {
        let file = File::open(path)?;
        replay_file(&file, line_cuts, Tail::Line)
            .and_then(|document| document.finish().map_err(Refusal::into_io))
    }
}

/// A file whose contents are not a synopsis document.
fn invalid_data(err: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err)
}

/// Bytes of formatted lines a document writer gathers before each write.
const WRITE_CHUNK: usize = 64 << 10;

/// Appends one outcome as a whole line, newline included.
fn push_outcome_line(out: &mut String, symptoms: &[f64], fix: FixKind, success: bool) {
    // Room for the line in one step (a shortest-form f64 is ≤ 24 bytes).
    out.reserve(64 + 20 * symptoms.len());
    out.push_str("{\"symptoms\":[");
    for (i, v) in symptoms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, *v);
    }
    out.push_str("],\"fix\":\"");
    out.push_str(fix.label());
    out.push_str("\",\"success\":");
    out.push_str(if success { "true" } else { "false" });
    out.push_str("}\n");
}

/// The append-on-drain half of synopsis persistence: a JSON-lines file
/// whose header is marked incremental, to which stores append every batch
/// of drained `(symptoms, fix, success)` outcomes.
///
/// [`create`](Self::create)d by
/// [`crate::store::SynopsisStore::persist_to`], or [`open`](Self::open)ed
/// over the file an earlier process left behind (see the
/// [module docs](self) for when each applies); loaded with the ordinary
/// [`SynopsisSnapshot::load`].  The log holds one `O_APPEND` handle for its
/// lifetime and each append is a single write of whole lines, so the file
/// restores everything appended so far even when the writing process is
/// killed mid-run.
#[derive(Debug)]
pub struct SnapshotLog {
    path: PathBuf,
    file: File,
}

/// What [`SnapshotLog::open`] found in an existing file.
#[derive(Debug)]
pub struct Replay {
    /// The experience the file holds, in recording order.
    pub snapshot: SynopsisSnapshot,
    /// The file, open for appending after its last whole line — `None`
    /// when the header declares an example count (a complete snapshot):
    /// appending would falsify the count, so such a file is left untouched
    /// and the caller recreates it ([`SnapshotLog::create`]).
    pub log: Option<SnapshotLog>,
    /// Bytes replayed: the file's length, less [`torn_bytes`](Self::torn_bytes).
    pub bytes: u64,
    /// Bytes of an unfinished final line that were dropped (0 when the file
    /// ended on a whole line).
    pub torn_bytes: u64,
    /// Byte ranges the file was read in, each on a core of its own (1 for
    /// a file under 2 MiB or a one-core host).
    pub ranges: usize,
}

impl SnapshotLog {
    /// Creates (truncating) the log file with an incremental header of
    /// `snapshot.kind` followed by the snapshot's current examples — the
    /// experience the store already holds when persistence starts.
    pub fn create(path: impl AsRef<Path>, snapshot: &SynopsisSnapshot) -> io::Result<SnapshotLog> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        file.set_len(0)?;
        snapshot.write_lines(&file, "\"incremental\":true")?;
        Ok(SnapshotLog { path, file })
    }

    /// Replays and verifies an existing file — every line parsed, the
    /// header checked, exactly as [`SynopsisSnapshot::load`] would — and
    /// returns what it held together with the file itself, open for
    /// appending.  Nothing already on disk is rewritten.
    ///
    /// The one input `open` accepts that `load` refuses is a **torn final
    /// line** (bytes after the last `\n`, left by a writer killed
    /// mid-append): a whole example there is kept and its missing `\n`
    /// written, anything else is cut off the file and counted in
    /// [`Replay::torn_bytes`].  A complete snapshot (`"examples":N` header)
    /// is replayed but neither repaired nor opened for append — see
    /// [`Replay::log`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<Replay> {
        SnapshotLog::open_cut(path.as_ref(), line_cuts)
    }

    /// [`open`](Self::open), its ranges starting where `cut` says.
    fn open_cut(
        path: &Path,
        cut: impl FnOnce(&File, u64) -> io::Result<Vec<u64>>,
    ) -> io::Result<Replay> {
        let path = path.to_path_buf();
        let mut file = OpenOptions::new().read(true).append(true).open(&path)?;
        let mut document = replay_file(&file, cut, Tail::Torn)?;
        let tail = std::mem::take(&mut document.tail);
        let kept = std::str::from_utf8(&tail).is_ok_and(|tail| document.take_whole_example(tail));
        let torn = if kept { 0 } else { tail.len() as u64 };
        let (whole, ranges) = (document.whole, document.ranges);
        let incremental = document.is_incremental();
        let snapshot = document.finish().map_err(Refusal::into_io)?;

        let log = if incremental {
            if torn > 0 {
                file.set_len(whole)?;
            } else if !tail.is_empty() {
                file.write_all(b"\n")?;
            }
            Some(SnapshotLog { path, file })
        } else {
            None
        };
        Ok(Replay {
            snapshot,
            log,
            bytes: whole + tail.len() as u64 - torn,
            torn_bytes: torn,
            ranges,
        })
    }

    /// Appends one batch of outcomes as whole lines in a single write.
    pub fn append<'a>(
        &self,
        examples: impl IntoIterator<Item = &'a SynopsisExample>,
    ) -> io::Result<()> {
        self.append_outcomes(
            examples
                .into_iter()
                .map(|e| (e.symptoms.as_slice(), e.fix, e.success)),
        )
    }

    /// [`append`](Self::append) for outcomes the caller only borrows.
    pub(crate) fn append_outcomes<'a>(
        &self,
        outcomes: impl IntoIterator<Item = (&'a [f64], FixKind, bool)>,
    ) -> io::Result<()> {
        let mut text = String::new();
        for (symptoms, fix, success) in outcomes {
            push_outcome_line(&mut text, symptoms, fix, success);
        }
        if text.is_empty() {
            return Ok(());
        }
        (&self.file).write_all(text.as_bytes())
    }

    /// The file being appended to.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

/// The first line of a synopsis file.
struct Header {
    kind: SynopsisKind,
    /// `Some(count)` for complete snapshots (verified), `None` for
    /// incremental logs (read to EOF).
    declared: Option<usize>,
}

enum Line {
    Header(Header),
    Example(SynopsisExample),
}

/// Fewest bytes a replay range holds — ≈ 2.5 ms of parsing on one core —
/// so a small file is read on the calling thread alone.
const MIN_RANGE: u64 = 1 << 20;

/// Read buffer of each replay range.
const READ_CHUNK: usize = 1 << 16;

/// How a reader treats the bytes after a file's last newline.
#[derive(Clone, Copy, PartialEq)]
enum Tail {
    /// As one more line: what [`SynopsisSnapshot::load`] and
    /// [`SynopsisSnapshot::from_jsonl`] read.
    Line,
    /// Set aside, for [`SnapshotLog::open`] to keep or cut.
    Torn,
}

/// Why a document was refused: what the codec found wrong with a line, or
/// what reading the bytes found (bytes that are not UTF-8 among it).
enum Refusal {
    Codec(JsonError),
    Read(io::Error),
}

impl From<JsonError> for Refusal {
    fn from(err: JsonError) -> Self {
        Refusal::Codec(err)
    }
}

impl Refusal {
    /// The refusal, a codec error numbered with its 1-based `line`.
    fn at_line(self, line: usize) -> Refusal {
        match self {
            Refusal::Codec(mut err) => {
                err.line = line;
                Refusal::Codec(err)
            }
            read => read,
        }
    }

    fn into_io(self) -> io::Error {
        match self {
            Refusal::Codec(err) => invalid_data(err),
            Refusal::Read(err) => err,
        }
    }

    /// For text already in memory, which reads without error.
    fn into_json(self) -> JsonError {
        match self {
            Refusal::Codec(err) => err,
            Refusal::Read(err) => JsonError::at(0, err.to_string()),
        }
    }
}

/// What one byte range of a synopsis file holds, read without knowing what
/// came before it: every example in it, and the three things the
/// [`Document`] rules need in file order, each at its line within the
/// range — the header lines, the first example and the first refusal,
/// where the range stops.
#[derive(Default)]
struct Range {
    /// Lines read, blank ones included.
    lines: usize,
    /// Bytes of the newline-terminated lines read.
    whole: u64,
    headers: Vec<(usize, Header)>,
    first_example: Option<usize>,
    refusal: Option<(usize, Refusal)>,
    examples: Vec<SynopsisExample>,
    /// The bytes after the file's last newline, under [`Tail::Torn`].
    tail: Vec<u8>,
}

impl Range {
    /// Reads one line, its `\n` stripped (a `\r` is whitespace to the
    /// codec); `false` once the range is refused.  `bytes` is the range's
    /// length, for sizing `examples` by the first one.
    fn read_line(&mut self, line: &[u8], bytes: usize) -> bool {
        let refusal = match std::str::from_utf8(line) {
            Err(err) => Refusal::Read(invalid_data(err)),
            Ok(text) if text.trim().is_empty() => return true,
            // Neighbouring lines are as wide as each other: size the symptom
            // vector by the previous line's.
            Ok(text) => {
                match parse_line(text, self.examples.last().map_or(0, |e| e.symptoms.len())) {
                    Ok(Line::Header(header)) => {
                        self.headers.push((self.lines, header));
                        return true;
                    }
                    Ok(Line::Example(example)) => {
                        if self.examples.is_empty() {
                            self.first_example = Some(self.lines);
                            self.examples.reserve(bytes / (line.len() + 1));
                        }
                        self.examples.push(example);
                        return true;
                    }
                    Err(err) => Refusal::Codec(err),
                }
            }
        };
        self.refusal = Some((self.lines, refusal));
        false
    }
}

/// Reads one range line by line through `reader` — `bytes` long, or about
/// that — up to its end or its first refusal.
fn read_range(mut reader: impl BufRead, bytes: usize, tail: Tail) -> Range {
    let mut range = Range::default();
    let mut line = Vec::new();
    loop {
        line.clear();
        if let Err(err) = reader.read_until(b'\n', &mut line) {
            range.refusal = Some((range.lines, Refusal::Read(err)));
            break;
        }
        let whole = line.last() == Some(&b'\n');
        if whole {
            line.pop();
            range.whole += line.len() as u64 + 1;
        } else if line.is_empty() || tail == Tail::Torn {
            range.tail = line;
            break;
        }
        range.lines += 1;
        if !range.read_line(&line, bytes) || !whole {
            break;
        }
    }
    range
}

/// Bytes `at..end` of a file, read with positioned reads, so any number of
/// spans read one handle at once.
struct Span<'f> {
    file: &'f File,
    at: u64,
    end: u64,
}

impl io::Read for Span<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let room = (self.end - self.at).min(buf.len() as u64) as usize;
        let read = self.file.read_at(&mut buf[..room], self.at)?;
        self.at += read as u64;
        Ok(read)
    }
}

/// Where a replay of a `len`-byte file starts its ranges after the first:
/// one range per available core, none shorter than [`MIN_RANGE`] before it
/// is moved forward to the start of a line.
fn line_cuts(file: &File, len: u64) -> io::Result<Vec<u64>> {
    let mut ranges = len / MIN_RANGE;
    if ranges > 1 {
        // Only a file worth splitting asks how many cores there are.
        ranges = ranges.min(thread::available_parallelism().map_or(1, usize::from) as u64);
    }
    let mut cuts: Vec<u64> = Vec::new();
    let mut probe = [0u8; 4096];
    for i in 1..ranges {
        let mut at = (len / ranges * i - 1).max(cuts.last().copied().unwrap_or(0));
        loop {
            let read = file.read_at(&mut probe, at)?;
            if read == 0 {
                return Ok(cuts);
            }
            if let Some(newline) = probe[..read].iter().position(|&b| b == b'\n') {
                at += newline as u64 + 1;
                break;
            }
            at += read as u64;
        }
        if at < len {
            cuts.push(at);
        }
    }
    Ok(cuts)
}

/// Reads `file` in ranges — the first from byte 0, the others from the
/// rising line starts `cut` returns — each on a scoped thread but the
/// first, which the calling thread reads, and replays them in file order.
fn replay_file(
    file: &File,
    cut: impl FnOnce(&File, u64) -> io::Result<Vec<u64>>,
    tail: Tail,
) -> io::Result<Document> {
    let len = file.metadata()?.len();
    let starts: Vec<u64> = std::iter::once(0).chain(cut(file, len)?).collect();
    let read = |i: usize| {
        let (at, end) = (starts[i], starts.get(i + 1).copied());
        let bytes = end.unwrap_or(len).saturating_sub(at) as usize;
        let span = Span {
            file,
            at,
            end: end.unwrap_or(u64::MAX),
        };
        read_range(BufReader::with_capacity(READ_CHUNK, span), bytes, tail)
    };
    let ranges = thread::scope(|scope| {
        let read = &read;
        let spawned: Vec<_> = (1..starts.len())
            .map(|i| {
                (
                    i,
                    thread::Builder::new().spawn_scoped(scope, move || read(i)),
                )
            })
            .collect();
        let mut ranges = vec![read(0)];
        for (i, thread) in spawned {
            ranges.push(match thread {
                Ok(thread) => thread
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                // No thread to spare: this one reads the range too.
                Err(_) => read(i),
            });
        }
        ranges
    });
    Document::replay(ranges).map_err(Refusal::into_io)
}

/// A synopsis document replayed from the ranges it was read in: the
/// header, then every example, in file order.
struct Document {
    header: Option<Header>,
    examples: Vec<SynopsisExample>,
    /// Lines replayed so far (errors carry the 1-based number).
    lines: usize,
    /// Bytes of the newline-terminated lines replayed.
    whole: u64,
    /// The bytes after the last newline, under [`Tail::Torn`].
    tail: Vec<u8>,
    /// Ranges the document was read in.
    ranges: usize,
}

impl Document {
    /// Replays `ranges`' notes, in file order, through the rules one pass
    /// over the file would apply line by line — blank lines skipped, an
    /// example before the header or a second header refused, the first
    /// refusal in the file returned — and joins their examples.
    fn replay(ranges: Vec<Range>) -> Result<Document, Refusal> {
        let total = ranges.iter().map(|range| range.examples.len()).sum();
        let mut document = Document {
            header: None,
            examples: Vec::new(),
            lines: 0,
            whole: 0,
            tail: Vec::new(),
            ranges: ranges.len(),
        };
        for range in ranges {
            document.take(range, total)?;
        }
        Ok(document)
    }

    /// Takes the next range; `total` is how many examples all of them hold.
    fn take(&mut self, range: Range, total: usize) -> Result<(), Refusal> {
        let mut first_example = range.first_example;
        for (line, header) in range.headers {
            if first_example.is_some_and(|at| at < line) {
                self.expect_header()?;
                first_example = None;
            }
            if self.header.is_some() {
                let err = JsonError::at(0, "duplicate synopsis header line");
                return Err(Refusal::from(err).at_line(self.lines + line));
            }
            self.header = Some(header);
        }
        if first_example.is_some() {
            self.expect_header()?;
        }
        if let Some((line, refusal)) = range.refusal {
            return Err(refusal.at_line(self.lines + line));
        }
        self.lines += range.lines;
        self.whole += range.whole;
        self.tail = range.tail;
        let mut examples = range.examples;
        if self.examples.is_empty() {
            examples.reserve_exact(total - examples.len());
            self.examples = examples;
        } else {
            self.examples.append(&mut examples);
        }
        Ok(())
    }

    /// Refuses an example when no header came before it.
    fn expect_header(&self) -> Result<(), JsonError> {
        match self.header {
            Some(_) => Ok(()),
            None => Err(JsonError::at(0, MISSING_HEADER)),
        }
    }

    /// Takes `line` if — and only if — it is a whole example in its place;
    /// says whether it did.
    fn take_whole_example(&mut self, line: &str) -> bool {
        let width = self.examples.last().map_or(0, |e| e.symptoms.len());
        match (parse_line(line, width), &self.header) {
            (Ok(Line::Example(example)), Some(_)) => {
                self.examples.push(example);
                true
            }
            _ => false,
        }
    }

    /// Whether the header read marks an incremental log (no count).
    fn is_incremental(&self) -> bool {
        matches!(self.header, Some(Header { declared: None, .. }))
    }

    /// The finished snapshot, a complete one's declared count checked.
    fn finish(self) -> Result<SynopsisSnapshot, Refusal> {
        let header = self
            .header
            .ok_or_else(|| JsonError::at(0, MISSING_HEADER))?;
        let found = self.examples.len();
        match header.declared {
            Some(declared) if declared != found => Err(JsonError::at(
                0,
                format!("header declares {declared} examples but the file holds {found}"),
            )
            .into()),
            _ => Ok(SynopsisSnapshot {
                kind: header.kind,
                examples: self.examples,
            }),
        }
    }
}

const MISSING_HEADER: &str = "synopsis file must start with a {\"synopsis\":...} header line";

/// The header's keys in the bit set [`parse_line`] keeps of the keys it has
/// read; an example's keys are the bits above.
const HEADER_KEYS: u8 = 0b111;

/// Adds `key` (its `bit`) to the keys `seen` on a line, refusing one that
/// puts header and example keys on the same line.
fn mark(seen: &mut u8, bit: u8, key: &str, key_at: usize) -> Result<(), JsonError> {
    *seen |= bit;
    if *seen & HEADER_KEYS != 0 && *seen > HEADER_KEYS {
        let message = format!("\"{key}\" puts header and example fields on one line");
        return Err(JsonError::at(key_at, message));
    }
    Ok(())
}

/// Parses one line; `width` is how many symptoms to make room for.
fn parse_line(line: &str, width: usize) -> Result<Line, JsonError> {
    let mut s = Scanner::new(line);
    let mut kind: Option<SynopsisKind> = None;
    let mut declared: Option<usize> = None;
    let mut incremental = false;
    let mut symptoms: Option<Vec<f64>> = None;
    let mut fix: Option<FixKind> = None;
    let mut success: Option<bool> = None;
    let mut seen = 0u8;
    s.object(|s, key, key_at| {
        let mut side = |bit: u8| mark(&mut seen, bit, key, key_at);
        match key {
            "synopsis" => {
                side(0b001)?;
                let label_at = s.pos();
                let label = s.parse_string()?;
                kind = Some(SynopsisKind::from_label(&label).ok_or_else(|| {
                    JsonError::at(label_at, format!("unknown synopsis kind \"{label}\""))
                })?);
            }
            "examples" => {
                side(0b010)?;
                declared = Some(s.parse_u64()? as usize);
            }
            "incremental" => {
                side(0b100)?;
                incremental = s.parse_bool()?;
            }
            "symptoms" => {
                side(0b1000)?;
                let mut values = Vec::with_capacity(width);
                s.array(|s| s.parse_f64().map(|value| values.push(value)))?;
                symptoms = Some(values);
            }
            "fix" => {
                side(0b1_0000)?;
                let label_at = s.pos();
                let label = s.parse_string()?;
                fix = Some(FixKind::from_label(&label).ok_or_else(|| {
                    JsonError::at(label_at, format!("unknown fix kind \"{label}\""))
                })?);
            }
            "success" => {
                side(0b10_0000)?;
                success = Some(s.parse_bool()?);
            }
            other => {
                let message = format!("unknown synopsis field \"{other}\"");
                return Err(JsonError::at(key_at, message));
            }
        }
        Ok(())
    })?;
    s.finish()?;
    if seen <= HEADER_KEYS {
        let kind = kind.ok_or_else(|| JsonError::at(0, "header is missing \"synopsis\""))?;
        let declared = if incremental {
            None
        } else {
            Some(declared.ok_or_else(|| JsonError::at(0, "header is missing \"examples\""))?)
        };
        return Ok(Line::Header(Header { kind, declared }));
    }
    match (symptoms, fix, success) {
        (Some(symptoms), Some(fix), Some(success)) => {
            Ok(Line::Example(SynopsisExample::new(symptoms, fix, success)))
        }
        (None, ..) => Err(JsonError::at(0, "example is missing \"symptoms\"")),
        (_, None, _) => Err(JsonError::at(0, "example is missing \"fix\"")),
        (.., None) => Err(JsonError::at(0, "example is missing \"success\"")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SnapshotLog {
        /// A log over `path` whose handle cannot write: every append fails.
        pub(crate) fn read_only(path: &Path) -> SnapshotLog {
            let file = File::open(path).expect("the log exists");
            SnapshotLog {
                path: path.to_path_buf(),
                file,
            }
        }
    }

    fn snapshot() -> SynopsisSnapshot {
        let mut snap = SynopsisSnapshot::new(SynopsisKind::NearestNeighbor);
        snap.push(vec![8.0, 1.0, 1.0], FixKind::RepartitionMemory, true);
        snap.push(vec![1.0, 9.5, -0.25], FixKind::MicrorebootEjb, false);
        snap.push(vec![1e-9, 1.0, 7.0], FixKind::UpdateStatistics, true);
        snap
    }

    #[test]
    fn serialize_then_parse_is_identity() {
        let original = snapshot();
        let parsed = SynopsisSnapshot::from_jsonl(&original.to_jsonl()).expect("round trip");
        assert_eq!(parsed, original);
        assert_eq!(parsed.positives(), 2);
        assert_eq!(parsed.negatives(), 1);
    }

    #[test]
    fn empty_snapshots_round_trip() {
        let empty = SynopsisSnapshot::new(SynopsisKind::AdaBoost(60));
        let text = empty.to_jsonl();
        assert_eq!(text, "{\"synopsis\":\"adaboost_60\",\"examples\":0}\n");
        let parsed = SynopsisSnapshot::from_jsonl(&text).unwrap();
        assert!(parsed.is_empty());
        assert_eq!(parsed.kind, SynopsisKind::AdaBoost(60));
    }

    #[test]
    fn header_errors_are_caught() {
        let missing = "{\"symptoms\":[1.0],\"fix\":\"no_op\",\"success\":true}\n";
        assert!(SynopsisSnapshot::from_jsonl(missing)
            .unwrap_err()
            .message
            .contains("header"));

        let wrong_count = "{\"synopsis\":\"k_means\",\"examples\":5}\n";
        assert!(SynopsisSnapshot::from_jsonl(wrong_count)
            .unwrap_err()
            .message
            .contains("declares 5 examples"));

        let duplicate = "{\"synopsis\":\"k_means\",\"examples\":0}\n\
                         {\"synopsis\":\"k_means\",\"examples\":0}\n";
        assert!(SynopsisSnapshot::from_jsonl(duplicate)
            .unwrap_err()
            .message
            .contains("duplicate"));
    }

    #[test]
    fn unknown_labels_are_rejected_with_line_numbers() {
        let bad_fix = "{\"synopsis\":\"k_means\",\"examples\":1}\n\
                       {\"symptoms\":[1.0],\"fix\":\"percussive_maintenance\",\"success\":true}\n";
        let err = SynopsisSnapshot::from_jsonl(bad_fix).unwrap_err();
        assert!(err.message.contains("unknown fix kind"));
        assert_eq!(err.line, 2);

        let bad_kind = "{\"synopsis\":\"oracle\",\"examples\":0}\n";
        assert!(SynopsisSnapshot::from_jsonl(bad_kind)
            .unwrap_err()
            .message
            .contains("unknown synopsis kind"));
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let dir = std::env::temp_dir().join("selfheal_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("synopsis.jsonl");
        let original = snapshot();
        original.save(&path).unwrap();
        let loaded = SynopsisSnapshot::load(&path).unwrap();
        assert_eq!(loaded, original);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incremental_logs_append_and_load_without_a_count() {
        let dir = std::env::temp_dir().join("selfheal_snapshot_log_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("incremental.jsonl");

        let log = SnapshotLog::create(&path, &snapshot()).unwrap();
        assert_eq!(log.path(), path.as_path());
        // A freshly created log restores the seeding experience.
        assert_eq!(SynopsisSnapshot::load(&path).unwrap().len(), 3);

        let more = [
            SynopsisExample::new(vec![2.0, 2.0], FixKind::RebootTier, true),
            SynopsisExample::new(vec![3.0, 3.0], FixKind::KillHungQuery, false),
        ];
        log.append(more.iter()).unwrap();
        log.append(std::iter::empty()).unwrap(); // empty appends are no-ops
        let loaded = SynopsisSnapshot::load(&path).unwrap();
        assert_eq!(loaded.len(), 5, "everything appended so far restores");
        assert_eq!(loaded.examples[3..], more[..]);
        assert_eq!(loaded.kind, SynopsisKind::NearestNeighbor);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incremental_headers_skip_the_count_check() {
        let text = "{\"synopsis\":\"k_means\",\"incremental\":true}\n\
                    {\"symptoms\":[1.0],\"fix\":\"reboot_tier\",\"success\":true}\n";
        let parsed = SynopsisSnapshot::from_jsonl(text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed.kind, SynopsisKind::KMeans);
        // Complete headers still verify their count.
        let complete = "{\"synopsis\":\"k_means\",\"examples\":2}\n\
                        {\"symptoms\":[1.0],\"fix\":\"reboot_tier\",\"success\":true}\n";
        assert!(SynopsisSnapshot::from_jsonl(complete)
            .unwrap_err()
            .message
            .contains("declares 2 examples"));
    }

    /// A scratch file unique to one test.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("selfheal_snapshot_open_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn open_replays_what_load_loads_and_appends_to_the_same_bytes() {
        let path = scratch("adopt.jsonl");
        let first = SnapshotLog::create(&path, &snapshot()).unwrap();
        let more = [SynopsisExample::new(
            vec![2.0, 2.0, 0.5],
            FixKind::RebootTier,
            true,
        )];
        first.append(more.iter()).unwrap();
        drop(first);
        let before = std::fs::read(&path).unwrap();

        let replay = SnapshotLog::open(&path).unwrap();
        assert_eq!(replay.snapshot, SynopsisSnapshot::load(&path).unwrap());
        assert_eq!(replay.snapshot.len(), 4);
        assert_eq!((replay.bytes, replay.torn_bytes), (before.len() as u64, 0));
        assert_eq!(std::fs::read(&path).unwrap(), before, "open writes nothing");

        let log = replay.log.expect("an incremental log is adopted");
        assert_eq!(log.path(), path.as_path());
        log.append(more.iter()).unwrap();
        let after = std::fs::read(&path).unwrap();
        assert_eq!(after[..before.len()], before[..], "appended in place");
        let reloaded = SynopsisSnapshot::load(&path).unwrap();
        assert_eq!(reloaded.examples[..4], replay.snapshot.examples[..]);
        assert_eq!(reloaded.examples[4..], more[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_keeps_a_whole_unterminated_line_and_cuts_a_torn_one() {
        let path = scratch("torn.jsonl");
        let whole = {
            SnapshotLog::create(&path, &snapshot()).unwrap();
            std::fs::read(&path).unwrap()
        };
        let last_line = whole[..whole.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;

        // The final newline alone is missing: nothing is lost, and the next
        // append starts on a line of its own.
        std::fs::write(&path, &whole[..whole.len() - 1]).unwrap();
        let replay = SnapshotLog::open(&path).unwrap();
        assert_eq!((replay.snapshot.len(), replay.torn_bytes), (3, 0));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            whole,
            "the newline is written"
        );

        // Any shorter cut of the last line is dropped, counted, and gone
        // from the file.
        for cut in last_line + 1..whole.len() - 1 {
            std::fs::write(&path, &whole[..cut]).unwrap();
            assert!(SynopsisSnapshot::load(&path).is_err(), "load stays strict");
            let replay = SnapshotLog::open(&path).unwrap();
            assert_eq!(replay.snapshot.len(), 2, "cut at {cut}");
            assert_eq!(replay.torn_bytes, (cut - last_line) as u64);
            assert_eq!(replay.bytes, last_line as u64);
            assert_eq!(std::fs::read(&path).unwrap(), whole[..last_line]);
            replay
                .log
                .unwrap()
                .append(&snapshot().examples[2..])
                .unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), whole, "cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Logs both readers refuse, each named by what is wrong with it.
    fn refused_logs() -> [(&'static str, String); 9] {
        let (header, good) = (LOG_HEADER, GOOD_LINE);
        [
            ("empty file", String::new()),
            ("no header", format!("{good}{good}")),
            ("duplicate header", format!("{header}{good}{header}{good}")),
            ("unknown kind", header.replace("k_means", "oracle")),
            (
                "unknown field",
                format!("{header}{}{good}", good.replace("success", "succes")),
            ),
            (
                "unknown fix",
                format!("{header}{}{good}", good.replace("reboot_tier", "prayer")),
            ),
            (
                "torn line mid-file",
                format!("{header}{}\n{good}", &good[..17]),
            ),
            (
                "trailing data",
                format!("{header}{} x\n{good}", good.trim_end()),
            ),
            (
                "wrong count",
                format!(
                    "{}{good}",
                    header.replace("\"incremental\":true", "\"examples\":2")
                ),
            ),
        ]
    }

    #[test]
    fn open_refuses_everything_load_refuses_before_the_final_line() {
        let header = LOG_HEADER;
        let path = scratch("refused.jsonl");
        for (what, text) in refused_logs() {
            std::fs::write(&path, &text).unwrap();
            let loaded = SynopsisSnapshot::load(&path).expect_err(what);
            let opened = SnapshotLog::open(&path).expect_err(what);
            assert_eq!(opened.to_string(), loaded.to_string(), "{what}");
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                text,
                "{what}: untouched"
            );
        }
        // Refused by both, if in different words: a file that is all torn
        // header (`open` sees no whole line), and bytes that are not text.
        for bytes in [
            header.as_bytes()[..20].to_vec(),
            [header.as_bytes(), b"\xff\n"].concat(),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            assert!(SynopsisSnapshot::load(&path).is_err());
            assert!(SnapshotLog::open(&path).is_err());
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "untouched");
        }
        assert!(SnapshotLog::open(scratch("absent.jsonl")).is_err());
        std::fs::remove_file(&path).ok();
    }

    const LOG_HEADER: &str = "{\"synopsis\":\"k_means\",\"incremental\":true}\n";
    const GOOD_LINE: &str = "{\"symptoms\":[1.0],\"fix\":\"reboot_tier\",\"success\":true}\n";

    /// The error (line, byte, message) of a log whose second line is `bad`.
    fn refusal(bad: &str) -> (usize, usize, String) {
        let text = format!("{LOG_HEADER}{bad}\n{GOOD_LINE}");
        let err = SynopsisSnapshot::from_jsonl(&text).unwrap_err();
        (err.line, err.offset, err.message)
    }

    #[test]
    fn a_number_no_f64_holds_is_refused_not_restored_as_infinity() {
        let bad = "{\"symptoms\":[1.0,1e999,-1e999],\"fix\":\"no_op\",\"success\":true}";
        let (line, offset, message) = refusal(bad);
        assert_eq!((line, offset), (2, bad.find("1e999").unwrap()));
        assert_eq!(message, "number out of range: 1e999");
        // What `push_f64` writes for a value that is not finite reads back.
        let mut written = String::new();
        push_outcome_line(&mut written, &[f64::INFINITY, 1.0], FixKind::NoOp, true);
        let parsed = SynopsisSnapshot::from_jsonl(&format!("{LOG_HEADER}{written}")).unwrap();
        assert_eq!(parsed.examples[0].symptoms, [0.0, 1.0]);
    }

    #[test]
    fn a_repeated_key_is_refused_at_the_key() {
        let bad = GOOD_LINE.replace("}\n", ",\"success\":false}");
        let (line, offset, message) = refusal(&bad);
        assert_eq!((line, offset), (2, bad.rfind("\"success\"").unwrap()));
        assert_eq!(message, "duplicate key \"success\"");
        // Header keys too, and a key repeated with the same value.
        let twice = "{\"synopsis\":\"k_means\",\"incremental\":true,\"incremental\":true}\n";
        let err = SynopsisSnapshot::from_jsonl(twice).unwrap_err();
        let at = twice.rfind("\"incremental\"").unwrap();
        assert_eq!((err.line, err.offset), (1, at), "{}", err.message);
    }

    #[test]
    fn header_and_example_keys_on_one_line_are_refused_at_the_key() {
        let bad = "{\"synopsis\":\"k_means\",\"examples\":1,\"symptoms\":[1.0]}";
        let (line, offset, message) = refusal(bad);
        assert_eq!((line, offset), (2, bad.find("\"symptoms\"").unwrap()));
        assert!(message.contains("header and example fields"), "{message}");
        // Whichever kind of key comes first.
        let bad = GOOD_LINE.replace("}\n", ",\"incremental\":true}");
        let (line, offset, _) = refusal(&bad);
        assert_eq!((line, offset), (2, bad.find("\"incremental\"").unwrap()));
    }

    #[test]
    fn open_refuses_an_overflowing_number_or_a_doubled_key_mid_file() {
        let path = scratch("stricter.jsonl");
        for bad in [
            GOOD_LINE.replace("1.0", "1e999"),
            GOOD_LINE.replace("{", "{\"success\":true,"),
            GOOD_LINE.replace("{", "{\"synopsis\":\"k_means\","),
        ] {
            let text = format!("{LOG_HEADER}{GOOD_LINE}{bad}{GOOD_LINE}");
            std::fs::write(&path, &text).unwrap();
            let loaded = SynopsisSnapshot::load(&path).expect_err(&bad);
            let opened = SnapshotLog::open(&path).expect_err(&bad);
            assert_eq!(opened.to_string(), loaded.to_string());
            assert!(opened.to_string().contains("line 3"), "{opened}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "untouched");
            // As the torn final line it is cut, like any other bad tail.
            let torn = format!("{LOG_HEADER}{GOOD_LINE}{}", bad.trim_end());
            std::fs::write(&path, &torn).unwrap();
            let replay = SnapshotLog::open(&path).unwrap();
            assert_eq!(replay.snapshot.len(), 1);
            assert_eq!(replay.torn_bytes, bad.len() as u64 - 1);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn documents_are_written_in_chunks_of_whole_lines() {
        /// Records the size of every write and whether it ended a line.
        struct Writes(Vec<usize>);
        impl io::Write for Writes {
            fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
                assert_eq!(bytes.last(), Some(&b'\n'), "a write ends on a line");
                self.0.push(bytes.len());
                Ok(bytes.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut big = SynopsisSnapshot::new(SynopsisKind::KMeans);
        for n in 0..3_000 {
            big.push(
                vec![n as f64 + 0.123456789; 12],
                FixKind::RebootTier,
                n % 2 == 0,
            );
        }
        let mut writes = Writes(Vec::new());
        big.write_lines(&mut writes, "\"incremental\":true")
            .unwrap();
        let text = big.to_jsonl();
        let written: usize = writes.0.iter().sum();
        let (complete, incremental) = ("\"examples\":3000", "\"incremental\":true");
        assert_eq!(written + complete.len(), text.len() + incremental.len());
        assert!(writes.0.len() > 3, "{} writes", writes.0.len());
        let longest_line = text.lines().map(str::len).max().unwrap() + 1;
        assert!(writes.0.iter().all(|&n| n < WRITE_CHUNK + longest_line));

        // Through the file paths the bytes are what one buffer gave.
        let path = scratch("chunked.jsonl");
        big.save(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        drop(SnapshotLog::create(&path, &big).unwrap());
        let log = std::fs::read_to_string(&path).unwrap();
        assert!(log.lines().skip(1).eq(text.lines().skip(1)));
        assert_eq!(log.lines().next(), LOG_HEADER.lines().next());
        assert_eq!(SnapshotLog::open(&path).unwrap().snapshot, big);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn complete_snapshots_replay_without_a_log_handle_and_stay_untouched() {
        let path = scratch("complete.jsonl");
        snapshot().save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let replay = SnapshotLog::open(&path).unwrap();
        assert_eq!(replay.snapshot, snapshot());
        assert!(replay.log.is_none(), "appending would falsify the count");

        // Even a repairable tail is left alone: the caller rewrites the file.
        std::fs::write(&path, text.trim_end()).unwrap();
        let replay = SnapshotLog::open(&path).unwrap();
        assert_eq!((replay.snapshot.len(), replay.torn_bytes), (3, 0));
        assert!(replay.log.is_none());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text.trim_end());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_streaming_pass_numbers_lines_across_blanks_crlf_and_widths() {
        let header = "{\"synopsis\":\"k_means\",\"incremental\":true}";
        let line = |n: usize, width: usize| {
            let symptoms: Vec<f64> = (0..width).map(|i| (n * width + i) as f64 + 0.125).collect();
            let mut line = String::new();
            push_outcome_line(&mut line, &symptoms, FixKind::RebootTier, n % 3 == 1);
            line
        };
        // A blank first line, CRLF endings, blank and space-only lines in
        // the body, a change of width, no final newline.
        let mut document = format!("\n{header}\r\n");
        for n in 0..40 {
            document.push_str(&line(n, if n < 25 { 26 } else { 3 }));
            match n % 8 {
                0 => document.push('\n'),
                1 => document.insert(document.len() - 1, '\r'),
                2 => document.push_str("  \r\n"),
                _ => {}
            }
        }
        let document = document.trim_end();
        let parsed = SynopsisSnapshot::from_jsonl(document).unwrap();
        assert_eq!(parsed.len(), 40);
        for (n, example) in parsed.examples.iter().enumerate() {
            let width = if n < 25 { 26 } else { 3 };
            assert_eq!(example.symptoms.len(), width, "line {n}");
            assert_eq!(example.symptoms[0], (n * width) as f64 + 0.125, "line {n}");
        }

        // Whatever goes wrong is reported at the line a text editor shows.
        let lines: Vec<&str> = document.lines().collect();
        let breaks = [
            (
                lines.len() - 1,
                "{\"symptoms\":[1.0],\"fix\":\"reboot_tier\"}",
                0,
            ),
            (30, "{\"symptoms\":[1.0,oops],\"fix\":\"reboot_tier\"}", 17),
            (12, header, 0),
        ];
        let mut damaged: Vec<&str> = lines.clone();
        for (at, bad, offset) in breaks {
            // Each break lands above the last, so it is the one met first.
            damaged[at] = bad;
            let err = SynopsisSnapshot::from_jsonl(&damaged.join("\n")).unwrap_err();
            assert_eq!((err.line, err.offset), (at + 1, offset), "{}", err.message);
        }
    }

    /// What one replay of `text` ended as: the snapshot, `bytes`,
    /// `torn_bytes`, whether a log handle came back, and the file's bytes
    /// afterwards — or the refusal's text, which carries its line number.
    type Outcome = (Result<(SynopsisSnapshot, u64, u64, bool), String>, Vec<u8>);

    /// Replays `text` from a file, its ranges starting at 0 and at `cuts`:
    /// as [`SnapshotLog::open`] does under [`Tail::Torn`], as
    /// [`SynopsisSnapshot::load`] does under [`Tail::Line`].
    fn replayed(path: &Path, text: &[u8], cuts: &[u64], tail: Tail) -> Outcome {
        std::fs::write(path, text).unwrap();
        let cut = |_: &File, _: u64| Ok(cuts.to_vec());
        let result = match tail {
            Tail::Torn => SnapshotLog::open_cut(path, cut).map(|replay| {
                assert_eq!(replay.ranges, cuts.len() + 1);
                let log = replay.log.is_some();
                (replay.snapshot, replay.bytes, replay.torn_bytes, log)
            }),
            Tail::Line => File::open(path)
                .and_then(|file| replay_file(&file, cut, Tail::Line))
                .and_then(|document| document.finish().map_err(Refusal::into_io))
                .map(|snapshot| (snapshot, 0, 0, false)),
        };
        (
            result.map_err(|err| err.to_string()),
            std::fs::read(path).unwrap(),
        )
    }

    /// Every way to cut `text` into 1 to 4 ranges at line starts.
    fn splits(text: &[u8]) -> Vec<Vec<u64>> {
        let starts: Vec<u64> = (1..text.len())
            .filter(|&at| text[at - 1] == b'\n')
            .map(|at| at as u64)
            .collect();
        let mut splits = vec![Vec::new()];
        for (i, &a) in starts.iter().enumerate() {
            splits.push(vec![a]);
            for (j, &b) in starts.iter().enumerate().skip(i + 1) {
                splits.push(vec![a, b]);
                splits.extend(starts[j + 1..].iter().map(|&c| vec![a, b, c]));
            }
        }
        splits
    }

    /// Logs that exercise the range reader's notes: blank lines, CRLF
    /// endings and a header after blank lines; a duplicate header, an
    /// example before the header, a bad number, bytes that are not UTF-8
    /// (two of them in each log, so that each range can hold one); whole
    /// and torn unterminated tails; complete snapshots, their counts right
    /// and wrong.
    fn range_logs() -> Vec<Vec<u8>> {
        let example = |n: usize| {
            let mut line = String::new();
            let fix = FixKind::ALL[n % FixKind::ALL.len()];
            push_outcome_line(
                &mut line,
                &[n as f64 + 0.5, 1.0, -2.25],
                fix,
                n.is_multiple_of(3),
            );
            line
        };
        let body = |header: &str| {
            let mut text = format!("\n  \r\n{header}\r\n");
            for n in 0..8 {
                text.push_str(&example(n));
                if n % 3 == 1 {
                    text.insert(text.len() - 1, '\r');
                    text.push('\n');
                }
            }
            text
        };
        let header = LOG_HEADER.trim_end();
        let log = body(header);
        let mut logs = vec![log.clone().into_bytes()];
        // The tail: the last newline missing, then the last line torn.
        logs.push(log.trim_end().as_bytes().to_vec());
        logs.push(log.as_bytes()[..log.len() - 9].to_vec());
        // Complete snapshots: a count that holds, and one that does not.
        let complete = |count: usize| {
            body(&format!(
                "{{\"synopsis\":\"k_means\",\"examples\":{count}}}"
            ))
        };
        logs.push(complete(8).into_bytes());
        logs.push(complete(9).into_bytes());
        // The header after examples, at several depths.
        let lines: Vec<&str> = log.split_inclusive('\n').collect();
        let header_at = lines.iter().position(|l| l.trim() == header).unwrap();
        for after in [1, 4, 7] {
            let mut moved = lines.clone();
            let line = moved.remove(header_at);
            moved.insert(header_at + after, line);
            logs.push(moved.concat().into_bytes());
        }
        // Two faults per log, each kind against each, far enough apart for
        // a range each; each fault replaces a whole example line.
        let faults: [&[u8]; 3] = [
            b"{\"synopsis\":\"k_means\",\"incremental\":true}\n",
            b"{\"symptoms\":[1.0,1e999],\"fix\":\"no_op\",\"success\":true}\n",
            b"{\"symptoms\":[1.0],\"fix\":\"no_op\",\"success\":\xff}\n",
        ];
        for first in faults {
            for second in faults {
                let mut faulty: Vec<Vec<u8>> =
                    lines.iter().map(|l| l.as_bytes().to_vec()).collect();
                faulty[header_at + 2] = first.to_vec();
                faulty[header_at + 6] = second.to_vec();
                logs.push(faulty.concat());
            }
        }
        logs
    }

    #[test]
    fn every_split_at_line_starts_replays_what_one_range_replays() {
        let path = scratch("split.jsonl");
        let mut texts = range_logs();
        texts.extend(refused_logs().map(|(_, text)| text.into_bytes()));
        let (mut accepted, mut replays) = (0, 0);
        for text in &texts {
            for tail in [Tail::Torn, Tail::Line] {
                let whole = replayed(&path, text, &[], tail);
                accepted += usize::from(whole.0.is_ok());
                if let (Tail::Line, Ok(text)) = (tail, std::str::from_utf8(text)) {
                    // One range is what `from_jsonl` reads, refusals and all.
                    let parsed = SynopsisSnapshot::from_jsonl(text);
                    let parsed = parsed.map(|s| (s, 0, 0, false)).map_err(|e| e.to_string());
                    assert_eq!(parsed, whole.0, "{text:?}");
                }
                for cuts in splits(text) {
                    let split = replayed(&path, text, &cuts, tail);
                    assert_eq!(
                        split,
                        whole,
                        "cuts {cuts:?} of {:?}",
                        String::from_utf8_lossy(text)
                    );
                    replays += 1;
                }
            }
        }
        // Accepted: the good log and its whole tail by both readers, its
        // torn tail by `open` alone, the complete snapshot whose count
        // holds by both.  Every other replay is a refusal.
        assert_eq!(accepted, 7);
        assert!(replays > 10_000, "{replays}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_large_file_is_cut_at_line_starts_one_range_per_core() {
        let path = scratch("cuts.jsonl");
        let mut big = SynopsisSnapshot::new(SynopsisKind::KMeans);
        for n in 0..12_000 {
            big.push(
                vec![n as f64 + 0.123456789; 26],
                FixKind::RebootTier,
                n % 2 == 0,
            );
        }
        drop(SnapshotLog::create(&path, &big).unwrap());
        let text = std::fs::read(&path).unwrap();
        let len = text.len() as u64;
        assert!(len > 4 * MIN_RANGE, "{len}");
        let file = File::open(&path).unwrap();
        let cores = thread::available_parallelism().map_or(1, usize::from);
        let cuts = line_cuts(&file, len).unwrap();
        assert_eq!(cuts.len() + 1, cores.min((len / MIN_RANGE) as usize));
        for (i, &cut) in cuts.iter().enumerate() {
            assert_eq!(text[cut as usize - 1], b'\n', "cut {i} at a line start");
            assert!(cut >= len / (cuts.len() as u64 + 1) * (i as u64 + 1));
        }
        let replay = SnapshotLog::open(&path).unwrap();
        assert_eq!((replay.snapshot, replay.ranges), (big, cuts.len() + 1));
        // Below two ranges' worth there is one range, whatever the host.
        assert!(line_cuts(&file, 2 * MIN_RANGE - 1).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in [
            SynopsisKind::NearestNeighbor,
            SynopsisKind::KMeans,
            SynopsisKind::AdaBoost(60),
            SynopsisKind::AdaBoost(7),
        ] {
            assert_eq!(SynopsisKind::from_label(&kind.label()), Some(kind));
        }
        assert_eq!(SynopsisKind::from_label("adaboost_x"), None);
    }
}
