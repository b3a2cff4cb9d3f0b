//! The fleet experiments' measuring run, rendered as one JSON document
//! (stdout, and `results/fleet_scaling.json`; human progress goes to
//! stderr):
//!
//! * the replicas-vs-throughput curve (fleets of 1..=32 replicas × 5000
//!   ticks, parallel engine vs sequential interleaver; the >2× speedup claim
//!   is only meaningful on 4+ cores, so the document records the core count);
//! * the warm-vs-cold comparison;
//! * every entry of [`MODES`] — `cold_start`, `storm_recovery` and
//!   `adversarial_recovery` — each a shared-vs-isolated pair of one
//!   `selfheal_bench::fleet::Experiment`, with the verdicts its row reports.
//!
//! ```text
//! cargo run --release -p selfheal-bench --bin fleet_scaling
//! ```
//!
//! The binary takes no arguments; any argument prints the usage line and
//! exits 2.  It measures and reports; it judges nothing.  The fleet claims
//! are asserted by `cargo test`: the `selfheal_bench::fleet` tests (one per
//! experiment; the storm, adversary, seasons, cascade and mix tests also run
//! the sequential ≡ parallel leg), `tests/reactive.rs`
//! and `tests/scheduler.rs` (worker-count invariance), `tests/stores.rs`
//! (warm starts across store layouts, the persisted synopsis log) and
//! `tests/fleet.rs` (record/replay through a trace file).

use selfheal_bench::fleet::{
    self, escalations, scaling_point, warm_start_comparison, Comparison, EpisodeStats, Experiment,
    WarmStartReport, ADVERSARY_START, ADVERSARY_UNTIL, STORM_FRACTION, STORM_TICK,
};
use selfheal_core::harness::LearnerChoice;
use selfheal_fleet::FleetOutcome;
use selfheal_jsonl::{push_f64, push_json_string};
use std::path::Path;
use std::process::exit;

/// A JSON value: the one writer every row and the document render through.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Int(u64),
    /// Non-finite values render as `null`.
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Fields),
}

type Fields = Vec<(&'static str, Json)>;

/// `fields! { "key": value, … }` — object fields, each value through
/// `Json::from`.
macro_rules! fields {
    ($($key:literal: $value:expr),* $(,)?) => { vec![$(($key, Json::from($value))),*] };
}

impl Json {
    /// Renders the value.  A container holding another container breaks its
    /// items onto lines indented below `depth`; anything flatter stays on
    /// one line.
    fn write(&self, out: &mut String, depth: usize) {
        let (brackets, items): ([char; 2], Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(value) => return out.push_str(&value.to_string()),
            Json::Int(value) => return out.push_str(&value.to_string()),
            Json::Num(value) if value.is_finite() => return push_f64(out, *value),
            Json::Num(_) => return out.push_str("null"),
            Json::Str(value) => return push_json_string(out, value),
            Json::Array(items) => (['[', ']'], items.iter().map(|v| (None, v)).collect()),
            Json::Object(fields) => (
                ['{', '}'],
                fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
            ),
        };
        let nested = |(_, value): &(_, &Json)| matches!(value, Json::Array(_) | Json::Object(_));
        let multiline = items.iter().any(nested);
        out.push(brackets[0]);
        for (index, (key, value)) in items.iter().enumerate() {
            if index > 0 {
                out.push_str(if multiline { "," } else { ", " });
            }
            if multiline {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            }
            if let Some(key) = key {
                push_json_string(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if multiline {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(brackets[1]);
    }

    fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }
}

macro_rules! json_from {
    ($($from:ty => |$value:ident| $json:expr),* $(,)?) => {$(
        impl From<$from> for Json {
            fn from($value: $from) -> Self {
                $json
            }
        }
    )*};
}

json_from! {
    bool => |v| Json::Bool(v),
    u64 => |v| Json::Int(v),
    usize => |v| Json::Int(v as u64),
    f64 => |v| Json::Num(v),
    &str => |v| Json::Str(v.to_string()),
    Vec<Json> => |v| Json::Array(v),
    Fields => |v| Json::Object(v),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Self {
        value.map_or(Json::Null, Into::into)
    }
}

/// A pass/fail judgement of a shared-vs-isolated pair; the message says what
/// went wrong.  A row reports each as a boolean verdict.
type Gate = fn(&Comparison) -> Result<(), String>;

fn check(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    ok.then_some(()).ok_or_else(message)
}

/// Every victim opened an episode (the storm was not a silent no-op) and the
/// shared run healed all of them.
fn every_victim_recovered(both: &Comparison) -> Result<(), String> {
    let victims = both.shared;
    check(
        victims.recovered() && victims.matched == victims.strikes,
        || format!("a storm victim opened no episode or never healed: {victims:?}"),
    )
}

/// Both fleets landed attributable strikes and healed every one of them.
fn struck_and_recovered(both: &Comparison) -> Result<(), String> {
    check(both.recovered(), || {
        format!("did not strike-and-recover: {both:?}")
    })
}

fn shared_faster(both: &Comparison) -> Result<(), String> {
    check(both.shared_recovers_faster(), || {
        format!("shared learning did not beat isolated: {both:?}")
    })
}

/// One stat of a measured run, as a JSON field.
type Field = (&'static str, fn(&FleetOutcome, &EpisodeStats) -> Json);

const ATTEMPTS: Field = ("mean_fix_attempts", |_, s| s.mean_attempts.into());
const RECOVERY: Field = ("mean_recovery_ticks", |_, s| s.mean_recovery.into());
const MATCHED: Field = ("matched_episodes", |_, s| s.matched.into());
const OPEN: Field = ("open_episodes", |_, s| s.open.into());

/// One experiment of the table, measured with a shared learner and with
/// isolated ones.
struct Mode {
    /// The row's key in the document.
    key: &'static str,
    replicas: usize,
    /// Scheduler slice width; the adversary pins one that divides the
    /// reactive period.
    slice: u64,
    /// How to build and run the fleet at (replicas, slice), and which
    /// episodes count.
    build: fn(usize, u64) -> Experiment,
    /// The mode's constants, leading the row.
    params: fn(usize) -> Fields,
    /// Which stats of a run become the `shared` and `isolated` fields.
    fields: &'static [Field],
    /// Booleans derived from the pair: whether each gate passes.
    verdicts: &'static [(&'static str, Gate)],
    /// The row ends with `"fingerprints_match_sequential": null`: the
    /// sequential ≡ parallel leg runs under `cargo test`, not here, and the
    /// key keeps the document's shape.
    unchecked_equivalence: bool,
}

const MODES: &[Mode] = &[
    Mode {
        key: "cold_start",
        replicas: 8,
        slice: 1,
        build: |replicas, _| fleet::cold_start(replicas, SEED),
        params: |_| Vec::new(),
        fields: &[
            ("warm_mean_fix_attempts", ATTEMPTS.1),
            ("warm_mean_recovery_ticks", RECOVERY.1),
            ("escalations", |o, _| escalations(o).into()),
        ],
        verdicts: &[
            ("shared_recovery_leq_isolated", |both| {
                let Comparison { shared, isolated } = both;
                check(shared.mean_recovery <= isolated.mean_recovery, || {
                    "slower".into()
                })
            }),
            ("shared_attempts_leq_isolated", |both| {
                let Comparison { shared, isolated } = both;
                check(shared.mean_attempts <= isolated.mean_attempts, || {
                    "costlier".into()
                })
            }),
        ],
        unchecked_equivalence: false,
    },
    Mode {
        key: "storm_recovery",
        replicas: 8,
        slice: 1,
        build: |replicas, slice| fleet::storm(replicas, SEED, slice),
        params: |replicas| {
            let victims = fleet::storm_victims(replicas).len();
            fields! { "storm_tick": STORM_TICK, "fraction": STORM_FRACTION, "victims": victims }
        },
        fields: &[ATTEMPTS, RECOVERY, MATCHED, OPEN],
        verdicts: &[
            ("recovered", every_victim_recovered),
            ("shared_recovers_faster", shared_faster),
        ],
        unchecked_equivalence: true,
    },
    Mode {
        key: "adversarial_recovery",
        replicas: 6,
        slice: 64,
        build: |replicas, slice| fleet::adversary(replicas, SEED, slice),
        params: |_| fields! { "window": [ADVERSARY_START, ADVERSARY_UNTIL].map(Json::Int).to_vec() },
        fields: &[
            ("strikes", |_, s| s.strikes.into()),
            MATCHED,
            ATTEMPTS,
            RECOVERY,
            OPEN,
        ],
        verdicts: &[
            ("struck_and_recovered", struck_and_recovered),
            ("shared_recovers_faster", shared_faster),
        ],
        unchecked_equivalence: true,
    },
];

/// The fields `stats` of one measured run render to.
fn render(stats: &[Field], outcome: &FleetOutcome, folded: &EpisodeStats) -> Fields {
    let field = |(key, stat): &Field| (*key, stat(outcome, folded));
    stats.iter().map(field).collect()
}

/// Builds, runs and folds one mode with its shared learner and with
/// isolated ones; returns its row.
fn measure(mode: &Mode) -> Fields {
    let (key, replicas, slice) = (mode.key, mode.replicas, mode.slice);
    eprintln!("fleet_scaling: {key} ({replicas} replicas, slice {slice})");
    let experiment = (mode.build)(replicas, slice);
    let (outcome, shared) = experiment.measure(experiment.shared);
    let (control, isolated) = experiment.measure(LearnerChoice::Private);
    eprintln!("  shared   {shared:?}\n  isolated {isolated:?}");
    let mut fields = (mode.params)(replicas);
    fields.extend(fields! {
        "shared": render(mode.fields, &outcome, &shared),
        "isolated": render(mode.fields, &control, &isolated),
    });
    let both = Comparison { shared, isolated };
    for (key, verdict) in mode.verdicts {
        fields.push((key, verdict(&both).is_ok().into()));
    }
    if mode.unchecked_equivalence {
        fields.push(("fingerprints_match_sequential", Json::Null));
    }
    fields
}

/// The warm-vs-cold row.
fn warm_start_row(report: &WarmStartReport) -> Fields {
    let WarmStartReport { cold, warm, .. } = report;
    eprintln!(
        "  warm-start: {:.2} mean fix attempts vs {:.2} cold ({} outcomes saved, {} fixes preloaded)",
        warm.mean_attempts, cold.mean_attempts, report.saved_examples, report.preloaded_fixes
    );
    fields! {
        "saved_examples": report.saved_examples,
        "preloaded_fixes": report.preloaded_fixes,
        "warm_mean_fix_attempts": warm.mean_attempts,
        "warm_mean_recovery_ticks": warm.mean_recovery,
        "cold_mean_fix_attempts": cold.mean_attempts,
        "cold_mean_recovery_ticks": cold.mean_recovery,
        "warm_faster": report.warm_is_faster(),
    }
}

/// Seed of every run.
const SEED: u64 = 42;

/// The scaling curve, the warm-vs-cold comparison, and every mode of the
/// table.
fn run() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ticks = 5_000u64;
    eprintln!("fleet_scaling: {cores} cores, {ticks} ticks/replica");
    let (mut largest, mut speedup) = (0, 0.0);
    let scaling = [1usize, 2, 4, 8, 16, 32].map(|replicas| {
        let point = scaling_point(replicas, ticks, SEED);
        (largest, speedup) = (replicas, point.speedup());
        eprintln!(
            "  replicas {replicas:>2}: parallel {:>7.3}s  sequential {:>7.3}s  speedup \
             {speedup:>5.2}x  {:>9.0} ticks/s",
            point.parallel_wall_s, point.sequential_wall_s, point.parallel_throughput
        );
        Json::from(fields! {
            "replicas": replicas,
            "ticks_per_replica": ticks,
            "parallel_wall_s": point.parallel_wall_s,
            "sequential_wall_s": point.sequential_wall_s,
            "speedup": speedup,
            "parallel_throughput_ticks_per_s": point.parallel_throughput,
        })
    });
    eprintln!("fleet_scaling: warm_start (cold run vs snapshot-restored run)");
    let warm = warm_start_comparison(6, SEED, LearnerChoice::locked());
    let mut document = fields! {
        "machine": fields! { "cores": cores },
        "scaling": scaling.to_vec(),
        "acceptance": fields! {
            "replicas": largest,
            "ticks_per_replica": ticks,
            "speedup": speedup,
            "speedup_claim_applicable": cores >= 4,
            "speedup_above_2x": speedup > 2.0,
        },
        "warm_start": warm_start_row(&warm),
    };
    for mode in MODES {
        document.push((mode.key, measure(mode).into()));
    }
    document.into()
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: fleet_scaling (no arguments)");
        exit(2);
    }
    let json = run().render();
    println!("{json}");
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("fleet_scaling.json");
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!("(written to {})", path.display()),
            Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_jsonl::Scanner;

    /// `strikes` candidates, all matched and healed in one attempt.
    fn healthy(strikes: usize, mean_recovery: f64) -> EpisodeStats {
        EpisodeStats {
            strikes,
            matched: strikes,
            open: 0,
            mean_attempts: 1.0,
            mean_recovery,
        }
    }

    fn pair(shared: EpisodeStats, isolated: EpisodeStats) -> Comparison {
        Comparison { shared, isolated }
    }

    #[test]
    fn each_gate_fails_a_doctored_row_with_its_message() {
        let fails = |gate: Gate, both: &Comparison, message: &str| {
            let err = gate(both).expect_err(message);
            assert!(err.contains(message), "\"{err}\" lacks \"{message}\"");
        };
        let fine = pair(healthy(4, 20.0), healthy(4, 70.0));
        for gate in [every_victim_recovered, struck_and_recovered, shared_faster] {
            assert_eq!(gate(&fine), Ok(()));
        }

        let nothing = pair(EpisodeStats::default(), healthy(4, 70.0));
        fails(every_victim_recovered, &nothing, "opened no episode");
        fails(struck_and_recovered, &nothing, "did not strike-and-recover");

        let one_open = EpisodeStats {
            open: 1,
            ..healthy(4, 20.0)
        };
        let unhealed = pair(one_open, healthy(4, 70.0));
        fails(every_victim_recovered, &unhealed, "never healed");
        fails(
            struck_and_recovered,
            &unhealed,
            "did not strike-and-recover",
        );
        let isolated_open = pair(healthy(4, 20.0), one_open);
        fails(struck_and_recovered, &isolated_open, "open: 1");

        let unmatched = EpisodeStats {
            matched: 3,
            ..healthy(4, 20.0)
        };
        let unmatched = pair(unmatched, healthy(4, 70.0));
        fails(every_victim_recovered, &unmatched, "matched: 3");

        let slower = pair(healthy(4, 70.0), healthy(4, 20.0));
        fails(shared_faster, &slower, "did not beat isolated");
        let more_attempts = EpisodeStats {
            mean_attempts: 2.0,
            ..healthy(4, 20.0)
        };
        let regressed = pair(more_attempts, healthy(4, 70.0));
        fails(shared_faster, &regressed, "did not beat isolated");
    }

    /// Skips blanks including the newlines of the pretty-printed document
    /// (the JSON-lines [`Scanner`] itself never crosses a line).
    fn skip_blank(scanner: &mut Scanner<'_>) {
        scanner.skip_ws();
        while scanner.peek() == Some(b'\n') {
            scanner.bump();
            scanner.skip_ws();
        }
    }

    /// Re-parses what [`Json::write`] rendered: containers by hand, every
    /// scalar through the shared [`Scanner`].
    fn reparse(scanner: &mut Scanner<'_>, source: &str) -> Json {
        skip_blank(scanner);
        let close = match scanner.peek().expect("a value") {
            b'{' => b'}',
            b'[' => b']',
            b'"' => return Json::Str(scanner.parse_string().unwrap().into_owned()),
            b't' | b'f' => return Json::Bool(scanner.parse_bool().unwrap()),
            b'n' => {
                for byte in b"null" {
                    scanner.expect(*byte).unwrap();
                }
                return Json::Null;
            }
            _ => {
                let rest = &source[scanner.pos()..];
                let end = rest.find(|c: char| ",]} \n".contains(c));
                let token = &rest[..end.unwrap_or(rest.len())];
                return match token.contains(['.', 'e', '-']) {
                    true => Json::Num(scanner.parse_f64().unwrap()),
                    false => Json::Int(scanner.parse_u64().unwrap()),
                };
            }
        };
        scanner.bump();
        let (mut items, mut fields) = (Vec::new(), Vec::new());
        loop {
            skip_blank(scanner);
            if scanner.peek() == Some(close) {
                scanner.bump();
                break;
            }
            if !(items.is_empty() && fields.is_empty()) {
                scanner.expect(b',').unwrap();
                skip_blank(scanner);
            }
            if close == b'}' {
                let key = scanner.parse_string().unwrap().into_owned();
                let key: &'static str = key.leak();
                scanner.expect(b':').unwrap();
                fields.push((key, reparse(scanner, source)));
            } else {
                items.push(reparse(scanner, source));
            }
        }
        match close {
            b'}' => Json::Object(fields),
            _ => Json::Array(items),
        }
    }

    #[test]
    fn the_writer_escapes_nulls_nests_and_reparses() {
        let rows = vec![
            Json::from(fields! { "a": 1usize }),
            Json::from(fields! { "b": false }),
        ];
        let document: Json = fields! {
            "text": "quote \" backslash \\ newline \n tab \t bell \u{7} é",
            "count": u64::MAX,
            "ratio": 72.33333333333333,
            "tiny": 1e-7,
            "whole": 3.0,
            "nan": f64::NAN,
            "infinite": f64::NEG_INFINITY,
            "absent": None::<bool>,
            "present": Some(true),
            "empty_array": Vec::<Json>::new(),
            "empty_object": Fields::new(),
            "flat": vec![Json::Int(1), Json::from("two"), Json::Null],
            "nested": fields! {
                "rows": rows,
                "inner": fields! { "deep": vec![Json::Array(vec![Json::Num(-0.5)])] },
            },
        }
        .into();
        let rendered = document.render();
        let escaped = r#""quote \" backslash \\ newline \n tab \t bell \u0007 é""#;
        assert!(rendered.contains(escaped), "{rendered}");
        assert!(rendered.contains("\"nan\": null"), "{rendered}");
        assert!(rendered.contains("\"infinite\": null"), "{rendered}");
        assert!(
            rendered.contains("\"flat\": [1, \"two\", null]"),
            "{rendered}"
        );
        let broken = "\n    \"rows\": [\n      {\"a\": 1},\n      {\"b\": false}\n    ]";
        assert!(rendered.contains(broken), "{rendered}");

        let mut scanner = Scanner::new(&rendered);
        let reparsed = reparse(&mut scanner, &rendered);
        skip_blank(&mut scanner);
        scanner.finish().expect("nothing trails the document");
        let Json::Object(mut expected) = document else {
            unreachable!()
        };
        for (key, value) in &mut expected {
            if ["nan", "infinite"].contains(key) {
                *value = Json::Null;
            }
        }
        assert_eq!(reparsed, Json::Object(expected));
    }
}
