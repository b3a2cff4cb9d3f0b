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
//! Either shape is read in one streaming pass — the header, then each
//! example straight into the result — and [`SnapshotLog::open`] streams the
//! file itself through one small buffer, so a log is never in memory whole
//! beside the experience parsed from it.  Writing is the same the other way
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
//! What a restart costs is that replay, and most of it is not ours to
//! shave.  Over a 20 000-example log (26 symptoms a line, 10.9 MB, 520 000
//! numbers of 16–17 digits) `open` takes ≈ 26 ms on one core:
//! `str::parse::<f64>` ≈ 10, finding each token's end and walking the
//! arrays ≈ 9, one `Vec` a line ≈ 2, reading the file, copying each line
//! and checking it is UTF-8 ≈ 2.5; restoring the store (≈ 1.4) and dropping
//! the replayed snapshot (≈ 0.8) follow.  The scanner slices the `&str` it
//! is handed and finds a token's end in one search, so a number's bytes are
//! looked at twice — once to delimit, once to convert.  A restart that must
//! be faster than this has to replay *less* (compact the log), not parse
//! more cleverly.
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
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};

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
        let mut document = Document::sized(text.len());
        for line in text.lines() {
            document.feed(line)?;
        }
        document.finish()
    }

    /// Writes the snapshot to a JSON-lines file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.write_complete(File::create(path)?)
    }

    /// Reads a snapshot from a JSON-lines file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<SynopsisSnapshot> {
        let text = std::fs::read_to_string(path)?;
        SynopsisSnapshot::from_jsonl(&text).map_err(invalid_data)
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
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).append(true).open(&path)?;
        let mut document = Document::sized(file.metadata()?.len() as usize);
        // Line by line through one small buffer: the file is never in
        // memory whole.  `whole` counts the bytes of terminated lines.
        let mut reader = BufReader::with_capacity(1 << 16, &file);
        let mut line = Vec::new();
        let mut whole = 0u64;
        loop {
            line.clear();
            reader.read_until(b'\n', &mut line)?;
            let Some(text) = line.strip_suffix(b"\n") else {
                break;
            };
            let text = std::str::from_utf8(text).map_err(invalid_data)?;
            document.feed(text).map_err(invalid_data)?;
            whole += line.len() as u64;
        }
        // What is left in `line` is the tail no newline ended.
        let kept = std::str::from_utf8(&line).is_ok_and(|tail| document.feed_whole_example(tail));
        let torn = if kept { 0 } else { line.len() as u64 };
        let incremental = document.is_incremental();
        let snapshot = document.finish().map_err(invalid_data)?;

        let log = if incremental {
            if torn > 0 {
                file.set_len(whole)?;
            } else if !line.is_empty() {
                file.write_all(b"\n")?;
            }
            Some(SnapshotLog { path, file })
        } else {
            None
        };
        Ok(Replay {
            snapshot,
            log,
            bytes: whole + line.len() as u64 - torn,
            torn_bytes: torn,
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

/// A synopsis document being read, one line at a time: the header, then
/// every example pushed straight into the result.
struct Document {
    header: Option<Header>,
    examples: Vec<SynopsisExample>,
    /// Lines fed so far (errors carry the 1-based number).
    lines: usize,
    /// Length of the whole text, for sizing `examples` by the first one.
    bytes: usize,
}

impl Document {
    fn sized(bytes: usize) -> Document {
        Document {
            header: None,
            examples: Vec::new(),
            lines: 0,
            bytes,
        }
    }

    /// Takes the next line (its line ending stripped, a `\r` tolerated).
    /// Blank lines are skipped; an example before the header, or a second
    /// header, is an error.
    fn feed(&mut self, line: &str) -> Result<(), JsonError> {
        self.lines += 1;
        if line.trim().is_empty() {
            return Ok(());
        }
        let at_line = |mut err: JsonError| {
            err.line = self.lines;
            err
        };
        // Neighbouring lines are as wide as each other: size the symptom
        // vector by the previous line's, and the result by the first's.
        let width = self.examples.last().map_or(0, |e| e.symptoms.len());
        match (parse_line(line, width).map_err(at_line)?, &self.header) {
            (Line::Header(header), None) => self.header = Some(header),
            (Line::Header(_), Some(_)) => {
                return Err(at_line(JsonError::at(0, "duplicate synopsis header line")))
            }
            (Line::Example(_), None) => return Err(JsonError::at(0, MISSING_HEADER)),
            (Line::Example(example), Some(_)) => {
                if self.examples.is_empty() {
                    self.examples.reserve(self.bytes / (line.len() + 1));
                }
                self.examples.push(example);
            }
        }
        Ok(())
    }

    /// Takes `line` if — and only if — it is a whole example in its place;
    /// says whether it did.
    fn feed_whole_example(&mut self, line: &str) -> bool {
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
    fn finish(self) -> Result<SynopsisSnapshot, JsonError> {
        let header = self
            .header
            .ok_or_else(|| JsonError::at(0, MISSING_HEADER))?;
        let found = self.examples.len();
        match header.declared {
            Some(declared) if declared != found => Err(JsonError::at(
                0,
                format!("header declares {declared} examples but the file holds {found}"),
            )),
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

    #[test]
    fn open_refuses_everything_load_refuses_before_the_final_line() {
        let header = "{\"synopsis\":\"k_means\",\"incremental\":true}\n";
        let good = "{\"symptoms\":[1.0],\"fix\":\"reboot_tier\",\"success\":true}\n";
        let cases = [
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
        ];
        let path = scratch("refused.jsonl");
        for (what, text) in cases {
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
