//! The fleet experiments' front end: one table of modes, rendered as one
//! JSON document (stdout; human progress goes to stderr).
//!
//! Every experiment with failure episodes is an entry of [`MODES`]: the flag
//! that selects it on the smoke path, its JSON key, how to build and run its
//! fleet (a `selfheal_bench::fleet::Experiment`: recipe, shared learner,
//! ticks | quiescence, which episodes count), which stats become its row,
//! and the gates that judge the row.  Argument parsing, the usage text, the
//! sequential ≡ parallel equivalence leg, row emission and gate evaluation
//! all iterate that table; nothing is written per mode.
//!
//! * **Smoke path** (any argument): the smoke fleet — optionally recording
//!   or replaying its workload, saving or warm-starting its synopsis,
//!   sweeping the fault catalog — plus every mode whose flag was given, at
//!   CI size, each with its equivalence leg.  Every failed gate is reported
//!   and the process exits 1.
//! * **Full run** (no argument): the replicas-vs-throughput curve (fleets of
//!   1..=32 replicas × 5000 ticks, parallel engine vs sequential
//!   interleaver; the >2× speedup claim is only meaningful on 4+ cores, so
//!   the document records the core count), the warm-vs-cold comparison, and
//!   the same table at full size — also written to
//!   `results/fleet_scaling.json`.
//!
//! ## CLI
//!
//! ```text
//! fleet_scaling                       # full run (JSON to stdout + results/)
//! fleet_scaling --smoke               # the 4-replica smoke fleet alone
//! fleet_scaling --record trace.jsonl  # capture replica 0's workload, then run the smoke fleet
//! fleet_scaling --replay trace.jsonl  # replay the trace across the fleet; fails unless replica 0
//!                                     # is byte-identical to the synthetic run it recorded
//! fleet_scaling --replicas N --ticks T  # override the smoke fleet's size
//! fleet_scaling --save-synopsis s.jsonl # persist the fleet's learned synopsis during the run
//! fleet_scaling --load-synopsis s.jsonl # warm-start from a saved synopsis; fails unless the
//!                                       # store knows fixes before the first tick and the warm
//!                                       # run is no worse than a cold run at the same seed
//! fleet_scaling --shards N            # learn through a k-means-sharded store (N >= 1 shards)
//! fleet_scaling --sweep               # one fault of every catalog class at a fixed cadence
//!                                     # (FixSym training coverage)
//! fleet_scaling --slice W             # ticks per turn when replicas interleave on a shared
//!                                     # store (selects the interleave, not the speed)
//! fleet_scaling --events SPEC         # overlay events on the smoke fleet, e.g.
//!                                     # "storm@200:0.5,surge@100:3:40"
//! fleet_scaling --storm               # 50%-of-fleet fault storm, shared vs isolated learning
//! fleet_scaling --adversary           # reactive adversary strikes the weakest replica at
//!                                     # every epoch barrier, shared vs isolated learning
//! fleet_scaling --seasons             # seeded calm/moderate/stormy fault seasons
//! fleet_scaling --cascade             # a scout failure propagates along the ring dependency
//! fleet_scaling --fault-mix online:0.02
//!                                     # demographic fault generation (CauseMix of the given
//!                                     # profile at the given per-tick rate)
//! ```
//!
//! Each of the five mode flags fails unless its run faults, heals, (for the
//! comparisons) shared learning beats isolated, and the tick-sliced parallel
//! fingerprints match the sequential interleave.  Malformed arguments exit 2.

use selfheal_bench::fleet::{
    self, all_episodes, distinct_fault_kinds, escalations, injected_stats, preloaded_fixes,
    scaling_point, smoke_fleet, smoke_workload, warm_start_comparison, Comparison, EpisodeStats,
    Experiment, WarmStartReport, ADVERSARY_START, ADVERSARY_UNTIL, STORM_FRACTION, STORM_TICK,
};
use selfheal_core::harness::{EventChoice, FaultChoice, LearnerChoice, WorkloadChoice};
use selfheal_core::snapshot::SynopsisSnapshot;
use selfheal_faults::{CatalogSweep, FaultKind, ServiceProfile};
use selfheal_fleet::{ExecutionMode, FleetOutcome};
use selfheal_jsonl::{push_f64, push_json_string};
use selfheal_sim::seeds::{split_seed, SeedStream};
use selfheal_workload::{RecordedTrace, ReplayMode};
use std::path::{Path, PathBuf};
use std::process::exit;

/// A JSON value: the one writer every row and both documents render through.
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
    String => |v| Json::Str(v),
    Vec<Json> => |v| Json::Array(v),
    Fields => |v| Json::Object(v),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Self {
        value.map_or(Json::Null, Into::into)
    }
}

/// What one experiment measured: the fields its JSON row renders and the
/// numbers its gates judge.
struct Row {
    fields: Fields,
    /// The run with fleet-wide knowledge: a shared store, a warm start, or
    /// the only run of a single-fleet mode.
    shared: EpisodeStats,
    /// The control without it: isolated learners, or a cold start.
    isolated: Option<EpisodeStats>,
    /// Distinct failure classes the shared run exercised.
    kinds: usize,
    /// The equivalence leg's verdict; `None` when it was not run.
    fingerprints_match: Option<bool>,
}

/// A pass/fail judgement of a row; the message says what went wrong.
type Gate = fn(&Row) -> Result<(), String>;

fn check(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    ok.then_some(()).ok_or_else(message)
}

fn comparison(row: &Row) -> Result<Comparison, String> {
    let (shared, isolated) = (row.shared, row.isolated.ok_or("no isolated control run")?);
    Ok(Comparison { shared, isolated })
}

fn faulted(row: &Row) -> Result<(), String> {
    check(row.shared.strikes > 0, || {
        "injected nothing observable".into()
    })
}

fn healed(row: &Row) -> Result<(), String> {
    let EpisodeStats { strikes, open, .. } = row.shared;
    check(open == 0, || {
        format!("did not quiesce healed ({open} of {strikes} episodes still open)")
    })
}

/// Every victim opened an episode (the storm was not a silent no-op) and the
/// shared run healed all of them.
fn every_victim_recovered(row: &Row) -> Result<(), String> {
    let victims = row.shared;
    check(
        victims.recovered() && victims.matched == victims.strikes,
        || format!("a storm victim opened no episode or never healed: {victims:?}"),
    )
}

/// Both fleets landed attributable strikes and healed every one of them.
fn struck_and_recovered(row: &Row) -> Result<(), String> {
    let both = comparison(row)?;
    check(both.recovered(), || {
        format!("did not strike-and-recover: {both:?}")
    })
}

fn shared_faster(row: &Row) -> Result<(), String> {
    let both = comparison(row)?;
    check(both.shared_recovers_faster(), || {
        format!("shared learning did not beat isolated: {both:?}")
    })
}

fn equivalent(row: &Row) -> Result<(), String> {
    check(row.fingerprints_match != Some(false), || {
        "tick-sliced parallel fingerprints diverged from run_sequential".into()
    })
}

/// Propagations the cascade mode allows.
const CASCADE_BUDGET: usize = 3;

fn within_budget(row: &Row) -> Result<(), String> {
    let propagated = row.shared.strikes;
    check((1..=CASCADE_BUDGET).contains(&propagated), || {
        format!("cascade propagated {propagated} times (expected 1..={CASCADE_BUDGET})")
    })
}

fn attributed_and_healed(row: &Row) -> Result<(), String> {
    let EpisodeStats { matched, open, .. } = row.shared;
    check(row.shared.recovered(), || {
        format!("episodes not attributable or unhealed ({matched} matched, {open} open)")
    })
}

/// The catalog sweep must actually manifest — episodes across several
/// distinct failure classes — or the training-coverage run covered nothing.
fn covers_catalog(row: &Row) -> Result<(), String> {
    let (episodes, kinds) = (row.shared.strikes, row.kinds);
    check(episodes > 0 && kinds >= 2, || {
        format!(
            "catalog sweep produced {episodes} episodes over {kinds} distinct failure classes — \
             training coverage is broken"
        )
    })
}

/// Gates on regression (warm strictly worse), not on strict improvement:
/// when the cold run is already at the one-attempt floor, warm can only tie,
/// and a tie is success.  (`shared` is the warm run, `isolated` the cold.)
fn warm_not_regressed(row: &Row) -> Result<(), String> {
    let Comparison { shared, isolated } = comparison(row)?;
    let (warm, cold) = (shared.mean_attempts, isolated.mean_attempts);
    check(!(cold > 0.0 && warm > cold), || {
        format!("warm start regressed vs the cold run ({warm:.2} vs {cold:.2} mean fix attempts)")
    })
}

/// Every failed gate of a row, labelled with the row's key.
fn failures(key: &str, row: &Row, gates: &[Gate]) -> Vec<String> {
    let failed = gates.iter().filter_map(|gate| gate(row).err());
    failed.map(|message| format!("{key}: {message}")).collect()
}

/// The size one mode runs at.
struct Sizes {
    replicas: usize,
    ticks: u64,
    slice: u64,
    mix: Option<(ServiceProfile, f64)>,
}

/// One stat of a measured run, as a JSON field.
type Field = (&'static str, fn(&FleetOutcome, &EpisodeStats) -> Json);

const ATTEMPTS: Field = ("mean_fix_attempts", |_, s| s.mean_attempts.into());
const RECOVERY: Field = ("mean_recovery_ticks", |_, s| s.mean_recovery.into());
const EPISODES: Field = ("episodes", |_, s| s.strikes.into());
const MATCHED: Field = ("matched_episodes", |_, s| s.matched.into());
const OPEN: Field = ("open_episodes", |_, s| s.open.into());
const KINDS: Field = ("distinct_fault_kinds", |o, _| {
    distinct_fault_kinds(o).into()
});

/// One experiment of the table.
struct Mode {
    /// The smoke-path flag that selects the mode; `None` = full run only.
    flag: Option<Flag>,
    /// The row's key in the document.
    key: &'static str,
    /// Fleet size in the full run; `None` = smoke path only.
    full: Option<usize>,
    /// The smallest (replicas, ticks) the smoke path runs the mode at.
    floor: (usize, u64),
    /// Scheduler slice width.  A mode at 1 follows `--slice`; the reactive
    /// modes pin a width that divides the reactive period.
    slice: u64,
    /// How to build and run the fleet, and which episodes count.
    build: fn(&Sizes) -> Experiment,
    /// Also run with isolated learners; the row then nests a `shared` and
    /// an `isolated` object instead of inlining the one run's fields.
    compare: bool,
    /// The mode's constants, leading the row.
    params: fn(&Sizes) -> Fields,
    /// Which stats of a run become fields.
    fields: &'static [Field],
    /// Booleans derived from the finished row: whether each gate passes.
    verdicts: &'static [(&'static str, Gate)],
    /// What the smoke path fails on.
    gates: &'static [Gate],
}

const MODES: &[Mode] = &[
    Mode {
        flag: None,
        key: "cold_start",
        full: Some(8),
        floor: (0, 0),
        slice: 1,
        build: |s| fleet::cold_start(s.replicas, SEED),
        compare: true,
        params: |_| Vec::new(),
        fields: &[
            ("warm_mean_fix_attempts", ATTEMPTS.1),
            ("warm_mean_recovery_ticks", RECOVERY.1),
            ("escalations", |o, _| escalations(o).into()),
        ],
        verdicts: &[
            ("shared_recovery_leq_isolated", |r| {
                let Comparison { shared, isolated } = comparison(r)?;
                check(shared.mean_recovery <= isolated.mean_recovery, || {
                    "slower".into()
                })
            }),
            ("shared_attempts_leq_isolated", |r| {
                let Comparison { shared, isolated } = comparison(r)?;
                check(shared.mean_attempts <= isolated.mean_attempts, || {
                    "costlier".into()
                })
            }),
        ],
        gates: &[],
    },
    Mode {
        flag: Some(("--storm", None, switch)),
        key: "storm_recovery",
        full: Some(8),
        floor: (4, 0),
        slice: 1,
        build: |s| fleet::storm(s.replicas, SEED, s.slice),
        compare: true,
        params: |s| {
            let victims = fleet::storm_victims(s.replicas).len();
            fields! { "storm_tick": STORM_TICK, "fraction": STORM_FRACTION, "victims": victims }
        },
        fields: &[ATTEMPTS, RECOVERY, MATCHED, OPEN],
        verdicts: &[
            ("recovered", every_victim_recovered),
            ("shared_recovers_faster", shared_faster),
        ],
        gates: &[every_victim_recovered, shared_faster, equivalent],
    },
    Mode {
        flag: Some(("--adversary", None, switch)),
        key: "adversarial_recovery",
        full: Some(6),
        floor: (6, 0),
        slice: 64,
        build: |s| fleet::adversary(s.replicas, SEED, s.slice),
        compare: true,
        params: |_| fields! { "window": [ADVERSARY_START, ADVERSARY_UNTIL].map(Json::Int).to_vec() },
        fields: &[("strikes", EPISODES.1), MATCHED, ATTEMPTS, RECOVERY, OPEN],
        verdicts: &[
            ("struck_and_recovered", struck_and_recovered),
            ("shared_recovers_faster", shared_faster),
        ],
        gates: &[struck_and_recovered, shared_faster, equivalent],
    },
    Mode {
        flag: Some(("--seasons", None, switch)),
        key: "seasons",
        full: None,
        floor: (3, 1024),
        slice: 64,
        build: |s| fleet::seasons(s.replicas, s.ticks, SEED, s.slice),
        compare: false,
        params: |_| Vec::new(),
        fields: &[EPISODES, OPEN],
        verdicts: &[],
        gates: &[faulted, healed, equivalent],
    },
    Mode {
        flag: Some(("--cascade", None, switch)),
        key: "cascade",
        full: None,
        floor: (4, 0),
        slice: 64,
        build: |s| fleet::cascade(s.replicas, SEED, CASCADE_BUDGET, s.slice),
        compare: false,
        params: |_| fields! { "budget": CASCADE_BUDGET },
        fields: &[("propagations", EPISODES.1), MATCHED, OPEN],
        verdicts: &[],
        gates: &[within_budget, attributed_and_healed, equivalent],
    },
    Mode {
        flag: Some(("--fault-mix", Some("PROFILE:RATE"), |value| {
            parse_fault_mix(value).map(Value::Mix)
        })),
        key: "fault_mix",
        full: None,
        // The healing tail (the quiet half of the run) must outlast a full
        // escalation — a service restart alone takes ~300 ticks.
        floor: (3, 800),
        slice: 1,
        build: |s| {
            let mix = s.mix.expect("--fault-mix selected the mode");
            fleet::mix(s.replicas, s.ticks, SEED, mix, s.slice)
        },
        compare: false,
        params: |s| {
            let (profile, rate) = s.mix.expect("--fault-mix selected the mode");
            fields! { "profile": profile.name(), "rate": rate }
        },
        fields: &[EPISODES, OPEN, KINDS],
        verdicts: &[],
        gates: &[faulted, healed, equivalent],
    },
];

/// The fields `stats` of one measured run render to.
fn render(stats: &[Field], outcome: &FleetOutcome, folded: &EpisodeStats) -> Fields {
    let field = |(key, stat): &Field| (*key, stat(outcome, folded));
    stats.iter().map(field).collect()
}

/// Builds, runs and folds one mode at `sizes`; `equivalence` adds the
/// sequential ≡ parallel leg.
fn measure(mode: &Mode, sizes: &Sizes, equivalence: bool) -> Row {
    let (key, replicas, slice) = (mode.key, sizes.replicas, sizes.slice);
    eprintln!("fleet_scaling: {key} ({replicas} replicas, slice {slice})");
    let experiment = (mode.build)(sizes);
    let (outcome, shared) = experiment.measure(experiment.shared);
    let isolated = (mode.compare).then(|| experiment.measure(LearnerChoice::Private));
    let mut fields = (mode.params)(sizes);
    match &isolated {
        Some((control, stats)) => fields.extend(fields! {
            "shared": render(mode.fields, &outcome, &shared),
            "isolated": render(mode.fields, control, stats),
        }),
        None => fields.extend(render(mode.fields, &outcome, &shared)),
    }
    let mut row = Row {
        fields,
        shared,
        isolated: isolated.map(|(_, stats)| stats),
        kinds: distinct_fault_kinds(&outcome),
        fingerprints_match: equivalence.then(|| experiment.parallel_matches(&outcome)),
    };
    for (key, verdict) in mode.verdicts {
        row.fields.push((key, verdict(&row).is_ok().into()));
    }
    if mode.flag.is_some() {
        let verdict = row.fingerprints_match.into();
        row.fields.push(("fingerprints_match_sequential", verdict));
    }
    for (label, side) in [("shared", Some(row.shared)), ("isolated", row.isolated)] {
        if let Some(stats) = side {
            eprintln!("  {label:<8} {stats:?}");
        }
    }
    if let Some(matches) = row.fingerprints_match {
        let verdict = if matches { "match" } else { "DIVERGE from" };
        eprintln!("  equivalence: parallel fingerprints {verdict} the sequential interleave");
    }
    row
}

/// The warm-vs-cold row: `shared` is the warm run, `isolated` the cold one.
fn warm_start_row(report: &WarmStartReport) -> Row {
    let WarmStartReport { cold, warm, .. } = report;
    eprintln!(
        "  warm-start: {:.2} mean fix attempts vs {:.2} cold ({} outcomes saved, {} fixes preloaded)",
        warm.mean_attempts, cold.mean_attempts, report.saved_examples, report.preloaded_fixes
    );
    Row {
        fields: fields! {
            "saved_examples": report.saved_examples,
            "preloaded_fixes": report.preloaded_fixes,
            "warm_mean_fix_attempts": warm.mean_attempts,
            "warm_mean_recovery_ticks": warm.mean_recovery,
            "cold_mean_fix_attempts": cold.mean_attempts,
            "cold_mean_recovery_ticks": cold.mean_recovery,
            "warm_faster": report.warm_is_faster(),
        },
        shared: *warm,
        isolated: Some(*cold),
        kinds: 0,
        fingerprints_match: None,
    }
}

/// A parsed flag value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Switch,
    Path(PathBuf),
    Count(u64),
    Mix((ServiceProfile, f64)),
    Events(Vec<EventChoice>),
}

/// One command-line flag: its name, its value's name in the usage text
/// (`None` for a switch), and how its value parses.
type Flag = (&'static str, Option<&'static str>, Parse);

type Parse = fn(&str) -> Result<Value, String>;

fn switch(_: &str) -> Result<Value, String> {
    Ok(Value::Switch)
}

fn path(value: &str) -> Result<Value, String> {
    Ok(Value::Path(value.into()))
}

fn count(value: &str) -> Result<Value, String> {
    let count = value
        .parse()
        .map_err(|_| format!("needs a number, got \"{value}\""))?;
    Ok(Value::Count(count))
}

/// The flags that shape the smoke fleet; the mode flags live in [`MODES`].
const OPTIONS: &[Flag] = &[
    ("--smoke", None, switch),
    ("--record", Some("PATH"), path),
    ("--replay", Some("PATH"), path),
    ("--replicas", Some("N"), count),
    ("--ticks", Some("T"), count),
    ("--save-synopsis", Some("PATH"), path),
    ("--load-synopsis", Some("PATH"), path),
    ("--shards", Some("N"), |value| match count(value)? {
        Value::Count(0) => Err("needs at least one shard".into()),
        shards => Ok(shards),
    }),
    ("--sweep", None, switch),
    ("--slice", Some("W"), count),
    ("--events", Some("SPEC"), |value| {
        let parts = value.split(',').filter(|part| !part.is_empty());
        let events: Result<_, _> = parts.map(parse_event).collect();
        Ok(Value::Events(events?))
    }),
];

fn flags() -> impl Iterator<Item = &'static Flag> {
    let modes = MODES.iter().filter_map(|mode| mode.flag.as_ref());
    OPTIONS.iter().chain(modes)
}

fn usage() -> String {
    let mut usage = String::from("usage: fleet_scaling");
    for (name, metavar, _) in flags() {
        usage.push_str(&match metavar {
            Some(metavar) => format!(" [{name} {metavar}]"),
            None => format!(" [{name}]"),
        });
    }
    usage
}

/// The flags given, in order, each with its parsed value.
#[derive(Debug, Default, PartialEq)]
struct Args(Vec<(&'static str, Value)>);

impl Args {
    /// The last value given for `flag`.
    fn get(&self, flag: &str) -> Option<&Value> {
        let given = self.0.iter().rev().find(|(name, _)| *name == flag);
        given.map(|(_, value)| value)
    }

    fn path(&self, flag: &str) -> Option<&Path> {
        let Value::Path(path) = self.get(flag)? else {
            return None;
        };
        Some(path)
    }

    fn count(&self, flag: &str) -> Option<u64> {
        match self.get(flag)? {
            Value::Count(count) => Some(*count),
            _ => None,
        }
    }

    fn fault_mix(&self) -> Option<(ServiceProfile, f64)> {
        match self.get("--fault-mix")? {
            Value::Mix(mix) => Some(*mix),
            _ => None,
        }
    }

    /// The events of every `--events` given.
    fn events(&self) -> impl Iterator<Item = EventChoice> + '_ {
        let lists = self.0.iter().filter_map(|(_, value)| match value {
            Value::Events(events) => Some(events),
            _ => None,
        });
        lists.flatten().copied()
    }

    /// The learner recipe the flags describe.  Persistence needs one
    /// fleet-wide store to save or restore, so `--save-synopsis` /
    /// `--load-synopsis` promote the default private learning to a locked
    /// store; `--shards N` selects the k-means-sharded store.
    fn learner(&self) -> LearnerChoice {
        let persists = self
            .path("--save-synopsis")
            .or(self.path("--load-synopsis"));
        match self.count("--shards") {
            Some(shards) => LearnerChoice::sharded(shards as usize),
            None if persists.is_some() => LearnerChoice::locked(),
            None => LearnerChoice::Private,
        }
    }
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        let flag = flags().find(|(name, ..)| *name == arg);
        let (name, metavar, parse) = flag.ok_or_else(|| format!("unknown argument {arg}"))?;
        let value = match metavar {
            Some(_) => argv.next().ok_or_else(|| format!("{name} needs a value"))?,
            None => String::new(),
        };
        let value = parse(&value).map_err(|err| format!("{name} {err}"))?;
        args.0.push((name, value));
    }
    Ok(args)
}

/// Parses `--fault-mix PROFILE:RATE` (e.g. `online:0.02`).
fn parse_fault_mix(spec: &str) -> Result<(ServiceProfile, f64), String> {
    let (name, rate) = spec
        .split_once(':')
        .ok_or_else(|| format!("\"{spec}\": expected PROFILE:RATE, e.g. online:0.02"))?;
    let profile = ServiceProfile::ALL
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!("\"{name}\": unknown profile (expected one of online, content, readmostly)")
        })?;
    let rate: f64 = rate
        .parse()
        .map_err(|_| format!("\"{rate}\" is not a rate"))?;
    check((0.0..=1.0).contains(&rate), || {
        format!("rate {rate} must be in [0, 1]")
    })?;
    Ok((profile, rate))
}

/// Parses one `--events` element: `storm@TICK:FRACTION[:SEVERITY]` or
/// `surge@TICK:FACTOR:DURATION`.  Ticks and durations are whole tick counts,
/// fraction and severity lie in `[0, 1]`, the surge factor is finite and
/// positive.
fn parse_event(spec: &str) -> Result<EventChoice, String> {
    let (kind, rest) = spec
        .split_once('@')
        .ok_or_else(|| format!("\"{spec}\": expected kind@tick:..."))?;
    let parts: Vec<&str> = rest.split(':').collect();
    let ticks = |part: &str| {
        let ticks = part.parse::<u64>();
        ticks.map_err(|_| format!("\"{spec}\": \"{part}\" is not a tick count"))
    };
    let real = |part: &str, what: &str, accept: fn(f64) -> bool| match part.parse::<f64>() {
        Ok(value) if accept(value) => Ok(value),
        _ => Err(format!("\"{spec}\": \"{part}\" is not {what}")),
    };
    let unit = |part: &str| real(part, "in [0, 1]", |v| (0.0..=1.0).contains(&v));
    let storm = FaultKind::BufferContention;
    match (kind, parts.as_slice()) {
        ("storm", [at, fraction]) => Ok(EventChoice::storm(ticks(at)?, storm, unit(fraction)?)),
        ("storm", [at, fraction, severity]) => Ok(EventChoice::FaultStorm {
            at_tick: ticks(at)?,
            kind: storm,
            severity: unit(severity)?,
            fraction: unit(fraction)?,
        }),
        ("surge", [at, factor, duration]) => {
            let factor = real(factor, "a finite positive factor", |v| {
                v.is_finite() && v > 0.0
            })?;
            Ok(EventChoice::surge(ticks(at)?, ticks(duration)?, factor))
        }
        _ => Err(format!(
            "\"{spec}\": expected storm@TICK:FRACTION[:SEVERITY] or surge@TICK:FACTOR:DURATION"
        )),
    }
}

/// Seed of every run.
const SEED: u64 = 42;

/// Unwraps an I/O result the run cannot continue without.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, doing: &str, path: &Path) -> T {
    result.unwrap_or_else(|err| {
        eprintln!("fleet_scaling: cannot {doing} {}: {err}", path.display());
        exit(1);
    })
}

/// Checks that the incremental synopsis log on disk holds what the store
/// holds: the store streams every drained batch to the file as the fleet
/// runs, so even a killed run leaves a restorable snapshot, and by quiesce
/// (the engine flushes inside the timed region) the file is complete.
fn saved_synopsis_is_complete(path: &Path, outcome: &FleetOutcome) -> Result<(), String> {
    let store = outcome
        .store()
        .ok_or("no fleet-wide store to save (private learning)")?;
    let on_disk = SynopsisSnapshot::load(path)
        .map_err(|err| format!("cannot re-load {}: {err}", path.display()))?;
    let (logged, held) = (on_disk.len(), store.snapshot().len());
    check(logged == held, || {
        format!("incremental log holds {logged} outcomes but the store holds {held}")
    })?;
    eprintln!(
        "fleet_scaling: streamed {logged} outcomes ({} successes) to {} (append-on-drain)",
        on_disk.positives(),
        path.display()
    );
    Ok(())
}

/// The smoke path: the smoke fleet with optional trace capture/replay,
/// synopsis persistence, events and catalog sweep, then every selected mode
/// of the table.  Returns the document and every failed gate.
fn run_smoke(args: &Args) -> (Json, Vec<String>) {
    let mut failed = Vec::new();
    let replicas = args.count("--replicas").unwrap_or(4).max(1) as usize;
    let mut ticks = args.count("--ticks").unwrap_or(400).max(40);

    let workload = match args.path("--replay") {
        Some(path) => {
            let trace = or_exit(RecordedTrace::load(path), "load", path);
            let recorded = trace.len() as u64;
            eprintln!(
                "fleet_scaling: replaying {recorded} ticks / {} requests from {}",
                trace.total_requests(),
                path.display()
            );
            // A truncate-mode replay past the end of the trace would go
            // quiet (and fail the byte-identity check for the wrong
            // reason), so the run is clamped to the recorded length.
            ticks = ticks.min(recorded);
            WorkloadChoice::replay(trace, ReplayMode::Truncate, 0)
        }
        None => smoke_workload(),
    };

    if let Some(path) = args.path("--record") {
        let mut source = workload.source_for_replica(split_seed(SEED, 0, SeedStream::Workload), 0);
        let trace = RecordedTrace::capture(source.as_mut(), ticks);
        or_exit(trace.save(path), "write", path);
        eprintln!(
            "fleet_scaling: recorded {} ticks / {} requests to {}",
            trace.len(),
            trace.total_requests(),
            path.display()
        );
    }

    // Warm start: restore the saved synopsis and verify the store knows
    // fixes *before* the first tick (the whole point of persistence).
    let learner = args.learner();
    let loaded = args.path("--load-synopsis").map(|path| {
        let snapshot = or_exit(SynopsisSnapshot::load(path), "load", path);
        let preloaded = preloaded_fixes(learner, &snapshot);
        if preloaded == 0 {
            failed.push(format!(
                "{} taught the store nothing before the first tick",
                path.display()
            ));
        }
        (snapshot, preloaded)
    });

    let slice = args.count("--slice").unwrap_or(1).max(1);
    let sweep = args.get("--sweep").is_some();
    eprintln!(
        "fleet_scaling: smoke fleet ({replicas} replicas x {ticks} ticks, {} learning, \
         slice {slice}{})",
        learner.label(),
        if sweep { ", catalog sweep" } else { "" },
    );
    let smoke = || smoke_fleet(replicas, ticks, SEED, workload.clone()).learner(learner);
    let mut fleet = smoke().slice(slice).events(args.events());
    if sweep {
        // One fault of every catalog class: start a tenth into the run and
        // space the classes over the following 60%, leaving a tail for the
        // healer to drain the last classes.
        let classes = CatalogSweep::kinds().len() as u64;
        let spacing = ((ticks * 6 / 10) / classes).max(1);
        fleet = fleet.faults(FaultChoice::sweep(ticks / 10, spacing));
    }
    if let Some((snapshot, _)) = &loaded {
        fleet = fleet.warm_start(snapshot.clone());
    }
    if let Some(path) = args.path("--save-synopsis") {
        fleet = fleet.persist_synopsis(path);
    }
    let outcome = fleet.run();
    for error in outcome.errors() {
        eprintln!("fleet_scaling: replica died mid-run: {error}");
    }
    let fingerprints = outcome.fingerprints();
    if let Some(path) = args.path("--save-synopsis") {
        failed.extend(saved_synopsis_is_complete(path, &outcome).err());
    }

    // Warm-vs-cold: run the same fleet with and without the snapshot, both
    // tick-interleaved (sequential) so shared-store drain timing — and with
    // it the attempt counts the gate compares — cannot vary with thread
    // scheduling.
    let warm_start = loaded.map(|(snapshot, preloaded_fixes)| {
        let run = |fleet: selfheal_fleet::FleetConfig| {
            injected_stats(&fleet.mode(ExecutionMode::Sequential).run(), 0..replicas)
        };
        let row = warm_start_row(&WarmStartReport {
            saved_examples: snapshot.len(),
            preloaded_fixes,
            cold: run(smoke()),
            warm: run(smoke().warm_start(snapshot)),
        });
        failed.extend(failures("warm_start", &row, &[warm_not_regressed]));
        row.fields
    });

    // A replayed trace must reproduce the synthetic run it was recorded
    // from: replica 0 (phase 0) is byte-identical by construction.
    let replay_identical = args.path("--replay").map(|_| {
        let synthetic = smoke_fleet(1, ticks, SEED, smoke_workload())
            .run()
            .fingerprints()[0];
        let identical = fingerprints[0] == synthetic;
        eprintln!(
            "  replica 0 fingerprint {:#018x} vs synthetic {synthetic:#018x} -> \
             byte_identical={identical}",
            fingerprints[0]
        );
        if !identical {
            failed.push("replay diverged from the synthetic run".to_string());
        }
        identical
    });

    let sweep_row = sweep.then(|| {
        let stats = all_episodes(&outcome);
        let mut fields = fields! { "classes": CatalogSweep::kinds().len() };
        fields.extend(render(&[EPISODES, OPEN, KINDS], &outcome, &stats));
        let row = Row {
            fields,
            shared: stats,
            isolated: None,
            kinds: distinct_fault_kinds(&outcome),
            fingerprints_match: None,
        };
        failed.extend(failures("sweep", &row, &[covers_catalog]));
        row.fields
    });

    let errors = outcome.errors().iter();
    let errors = errors.map(|e| fields! { "replica": e.replica, "message": e.message.as_str() });
    let fingerprints = fingerprints.iter().map(|f| format!("{f:#018x}").into());
    let mut document = fields! {
        "mode": "smoke",
        "replicas": replicas,
        "ticks": ticks,
        "slice": slice,
        "workload": workload.label(),
        "learner": learner.label(),
        "goodput": outcome.goodput_fraction(),
        "throughput_ticks_per_s": outcome.throughput_ticks_per_sec(),
        "total_fixes": outcome.total_fixes_initiated(),
        "episodes": outcome.total_episodes(),
        "replica_errors": errors.map(Json::from).collect::<Vec<_>>(),
        "fingerprints": fingerprints.collect::<Vec<Json>>(),
        "replay_byte_identical": replay_identical,
        "warm_start": warm_start,
        "sweep": sweep_row,
    };

    for mode in MODES {
        let Some(flag) = &mode.flag else { continue };
        let row = args.get(flag.0).map(|_| {
            let sizes = Sizes {
                replicas: replicas.max(mode.floor.0),
                ticks: ticks.max(mode.floor.1),
                slice: if mode.slice == 1 { slice } else { mode.slice },
                mix: args.fault_mix(),
            };
            let row = measure(mode, &sizes, true);
            failed.extend(failures(mode.key, &row, mode.gates));
            row.fields
        });
        document.push((mode.key, row.into()));
    }
    (document.into(), failed)
}

/// The full run: the scaling curve, the warm-vs-cold comparison, and every
/// full-scale mode of the table.
fn run_full() -> Json {
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
        "warm_start": warm_start_row(&warm).fields,
    };
    for mode in MODES {
        let Some(replicas) = mode.full else { continue };
        let sizes = Sizes {
            replicas,
            ticks,
            slice: mode.slice,
            mix: None,
        };
        document.push((mode.key, measure(mode, &sizes, false).fields.into()));
    }
    document.into()
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("fleet_scaling: {err}\n{}", usage());
        exit(2);
    });
    if !args.0.is_empty() {
        let (document, failed) = run_smoke(&args);
        println!("{}", document.render());
        for failure in &failed {
            eprintln!("fleet_scaling: {failure}");
        }
        exit(if failed.is_empty() { 0 } else { 1 });
    }

    let json = run_full().render();
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
    use selfheal_fleet::reactive::REACTIVE_PERIOD;
    use selfheal_jsonl::Scanner;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|arg| arg.to_string()))
    }

    fn row(shared: EpisodeStats, isolated: Option<EpisodeStats>) -> Row {
        Row {
            fields: Vec::new(),
            shared,
            isolated,
            kinds: 3,
            fingerprints_match: Some(true),
        }
    }

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

    /// The whole table at smoke size: every mode passes its own gates and
    /// its equivalence leg, and renders the row shape downstream tooling
    /// reads.  Asserts, at the size CI runs, what the per-mode
    /// `bench::fleet` tests pin at theirs.
    #[test]
    fn every_mode_passes_its_gates_and_equivalence_leg_at_smoke_size() {
        let args = parse(&["--smoke", "--fault-mix", "online:0.02"]).unwrap();
        for mode in MODES.iter().filter(|mode| mode.flag.is_some()) {
            assert_eq!(
                REACTIVE_PERIOD % mode.slice,
                0,
                "{}: the pinned slice must divide the reactive period",
                mode.key
            );
            let sizes = Sizes {
                replicas: 4.max(mode.floor.0),
                ticks: 400.max(mode.floor.1),
                slice: mode.slice,
                mix: args.fault_mix(),
            };
            let row = measure(mode, &sizes, true);
            assert_eq!(failures(mode.key, &row, mode.gates), Vec::<String>::new());
            assert_eq!(row.fingerprints_match, Some(true), "{}", mode.key);
            assert_eq!(
                mode.gates.last(),
                Some(&(equivalent as Gate)),
                "{}",
                mode.key
            );
            assert_eq!(row.isolated.is_some(), mode.compare, "{}", mode.key);
            assert!(row.shared.strikes >= 1, "{}: nothing struck", mode.key);
            assert!(
                row.shared.matched >= 1,
                "{}: nothing attributable",
                mode.key
            );
            assert_eq!(row.shared.open, 0, "{}: quiesced unhealed", mode.key);
            let keys: Vec<_> = row.fields.iter().map(|(key, _)| *key).collect();
            assert_eq!(keys.last(), Some(&"fingerprints_match_sequential"));
            assert_eq!(keys.contains(&"shared"), mode.compare, "{}", mode.key);
            for (key, _) in mode.verdicts {
                assert!(row.fields.contains(&(*key, Json::Bool(true))), "{key}");
            }
        }
    }

    #[test]
    fn each_gate_fails_a_doctored_row_with_its_message() {
        let fails = |gate: Gate, row: &Row, message: &str| {
            let err = gate(row).expect_err(message);
            assert!(err.contains(message), "\"{err}\" lacks \"{message}\"");
        };
        let fine = row(healthy(4, 20.0), Some(healthy(4, 70.0)));
        for gate in [
            faulted,
            healed,
            every_victim_recovered,
            struck_and_recovered,
            shared_faster,
            equivalent,
            attributed_and_healed,
            covers_catalog,
            warm_not_regressed,
        ] {
            assert_eq!(gate(&fine), Ok(()));
        }
        let at_budget = row(healthy(CASCADE_BUDGET, 20.0), None);
        assert_eq!(within_budget(&at_budget), Ok(()));

        let nothing = row(EpisodeStats::default(), Some(healthy(4, 70.0)));
        fails(faulted, &nothing, "injected nothing observable");
        fails(every_victim_recovered, &nothing, "opened no episode");
        fails(struck_and_recovered, &nothing, "did not strike-and-recover");
        fails(within_budget, &nothing, "propagated 0 times");
        fails(attributed_and_healed, &nothing, "0 matched");
        fails(covers_catalog, &nothing, "produced 0 episodes");

        let one_open = EpisodeStats {
            open: 1,
            ..healthy(4, 20.0)
        };
        let unhealed = row(one_open, Some(healthy(4, 70.0)));
        fails(healed, &unhealed, "1 of 4 episodes still open");
        fails(every_victim_recovered, &unhealed, "never healed");
        fails(
            struck_and_recovered,
            &unhealed,
            "did not strike-and-recover",
        );
        fails(attributed_and_healed, &unhealed, "1 open");
        let isolated_open = row(healthy(4, 20.0), Some(one_open));
        fails(struck_and_recovered, &isolated_open, "open: 1");

        let unmatched = EpisodeStats {
            matched: 3,
            ..healthy(4, 20.0)
        };
        fails(every_victim_recovered, &row(unmatched, None), "matched: 3");

        let over = row(healthy(CASCADE_BUDGET + 1, 20.0), None);
        fails(within_budget, &over, "propagated 4 times (expected 1..=3)");

        let slower = row(healthy(4, 70.0), Some(healthy(4, 20.0)));
        fails(shared_faster, &slower, "did not beat isolated");
        let more_attempts = EpisodeStats {
            mean_attempts: 2.0,
            ..healthy(4, 20.0)
        };
        let regressed = row(more_attempts, Some(healthy(4, 70.0)));
        fails(shared_faster, &regressed, "did not beat isolated");
        fails(warm_not_regressed, &regressed, "2.00 vs 1.00 mean fix");
        let alone = row(healthy(4, 20.0), None);
        fails(shared_faster, &alone, "no isolated control run");

        let diverged = Row {
            fingerprints_match: Some(false),
            ..row(healthy(4, 20.0), None)
        };
        fails(equivalent, &diverged, "diverged from run_sequential");
        let unchecked = Row {
            fingerprints_match: None,
            ..row(healthy(4, 20.0), None)
        };
        assert_eq!(equivalent(&unchecked), Ok(()), "the full run skips the leg");

        let one_class = Row {
            kinds: 1,
            ..row(healthy(4, 20.0), None)
        };
        fails(covers_catalog, &one_class, "1 distinct failure classes");
        let gates: [Gate; 3] = [faulted, shared_faster, equivalent];
        let failed = failures("storm_recovery", &slower, &gates);
        assert_eq!(failed.len(), 1, "only the failed gates are reported");
        assert!(failed[0].starts_with("storm_recovery: shared learning"));
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

    #[test]
    fn parse_event_accepts_the_documented_forms() {
        let kind = FaultKind::BufferContention;
        let storm = EventChoice::storm(200, kind, 0.5);
        assert_eq!(parse_event("storm@200:0.5"), Ok(storm));
        let explicit = EventChoice::FaultStorm {
            at_tick: 0,
            kind,
            severity: 0.0,
            fraction: 1.0,
        };
        assert_eq!(parse_event("storm@0:1:0"), Ok(explicit));
        let surge = EventChoice::surge(100, 40, 3.0);
        assert_eq!(parse_event("surge@100:3:40"), Ok(surge));
        let lull = EventChoice::surge(100, 0, 0.5);
        assert_eq!(parse_event("surge@100:0.5:0"), Ok(lull));
    }

    #[test]
    fn parse_event_rejects_what_it_used_to_cast_or_clamp() {
        for (spec, why) in [
            ("storm", "expected kind@tick"),
            ("storm@-5:0.5", "\"-5\" is not a tick count"),
            ("storm@12.7:0.5", "\"12.7\" is not a tick count"),
            ("storm@nan:0.5", "is not a tick count"),
            ("storm@10:1.5", "\"1.5\" is not in [0, 1]"),
            ("storm@10:-0.1", "is not in [0, 1]"),
            ("storm@10:nan", "is not in [0, 1]"),
            ("storm@10:0.5:2", "\"2\" is not in [0, 1]"),
            ("storm@10:0.5:x", "is not in [0, 1]"),
            ("surge@10:3:nan", "\"nan\" is not a tick count"),
            ("surge@10:3:-1", "is not a tick count"),
            ("surge@10:0:40", "\"0\" is not a finite positive factor"),
            ("surge@10:-2:40", "is not a finite positive factor"),
            ("surge@10:inf:40", "is not a finite positive factor"),
            ("surge@10:nan:40", "is not a finite positive factor"),
            ("surge@10:3", "expected storm@TICK"),
            ("storm@10", "expected storm@TICK"),
            ("quake@10:0.5", "expected storm@TICK"),
        ] {
            let err = parse_event(spec).expect_err(spec);
            assert!(err.contains(why), "{spec}: \"{err}\" lacks \"{why}\"");
        }
    }

    #[test]
    fn parse_fault_mix_accepts_profiles_and_rejects_bad_rates() {
        let online = ServiceProfile::Online;
        assert_eq!(parse_fault_mix("online:0.02"), Ok((online, 0.02)));
        assert_eq!(parse_fault_mix("ONLINE:1"), Ok((online, 1.0)));
        for profile in ServiceProfile::ALL {
            let spec = format!("{}:0", profile.name());
            assert_eq!(parse_fault_mix(&spec), Ok((profile, 0.0)));
        }
        for (spec, why) in [
            ("online", "expected PROFILE:RATE"),
            ("offline:0.02", "unknown profile"),
            ("online:lots", "is not a rate"),
            ("online:1.5", "must be in [0, 1]"),
            ("online:-0.1", "must be in [0, 1]"),
            ("online:nan", "must be in [0, 1]"),
        ] {
            let err = parse_fault_mix(spec).expect_err(spec);
            assert!(err.contains(why), "{spec}: \"{err}\" lacks \"{why}\"");
        }
    }

    #[test]
    fn the_flag_set_is_the_documented_one_and_drives_usage_and_docs() {
        let mut names: Vec<_> = flags().map(|(name, ..)| *name).collect();
        names.sort_unstable();
        let mut documented = [
            "--smoke",
            "--record",
            "--replay",
            "--replicas",
            "--ticks",
            "--save-synopsis",
            "--load-synopsis",
            "--shards",
            "--storm",
            "--fault-mix",
            "--sweep",
            "--slice",
            "--events",
            "--adversary",
            "--seasons",
            "--cascade",
        ];
        documented.sort_unstable();
        assert_eq!(names, documented);

        let usage = usage();
        assert!(usage.starts_with("usage: fleet_scaling [--smoke] [--record PATH]"));
        let source = include_str!("fleet_scaling.rs");
        let doc = source.lines().take_while(|line| line.starts_with("//!"));
        let doc: Vec<_> = doc.collect();
        for (name, metavar, _) in flags() {
            let shown = match metavar {
                Some(metavar) => format!("[{name} {metavar}]"),
                None => format!("[{name}]"),
            };
            assert!(usage.contains(&shown), "{usage} lacks {shown}");
            let listed = doc.iter().any(|line| line.contains(name));
            assert!(listed, "the module doc's CLI block lacks {name}");
        }
    }

    #[test]
    fn arguments_parse_into_typed_values_or_an_exit_2_message() {
        assert_eq!(parse(&[]), Ok(Args::default()), "nothing: the full run");
        let args = parse(&[
            "--replicas",
            "3",
            "--ticks",
            "400",
            "--shards",
            "4",
            "--load-synopsis",
            "s.jsonl",
            "--events",
            "storm@200:0.5,surge@100:3:40",
            "--events",
            "",
            "--events",
            "storm@9:1",
            "--ticks",
            "500",
        ])
        .unwrap();
        assert_eq!(args.count("--replicas"), Some(3));
        assert_eq!(args.count("--ticks"), Some(500), "the last value wins");
        assert_eq!(args.path("--load-synopsis"), Some(Path::new("s.jsonl")));
        assert_eq!(args.events().count(), 3, "every --events accumulates");
        assert_eq!(args.learner(), LearnerChoice::sharded(4));
        assert_eq!(args.get("--storm"), None);
        assert_eq!(args.fault_mix(), None);

        let learner = |argv: &[&str]| parse(argv).unwrap().learner();
        assert_eq!(learner(&["--smoke"]), LearnerChoice::Private);
        assert_eq!(learner(&["--save-synopsis", "s"]), LearnerChoice::locked());
        assert_eq!(learner(&["--load-synopsis", "s"]), LearnerChoice::locked());
        let storm = parse(&["--storm"]).unwrap();
        assert_eq!(storm.get("--storm"), Some(&Value::Switch));
        let mix = parse(&["--fault-mix", "content:0.5"]).unwrap().fault_mix();
        assert_eq!(mix, Some((ServiceProfile::Content, 0.5)));

        for (argv, why) in [
            (&["--bogus"][..], "unknown argument --bogus"),
            (&["--smoke", "extra"], "unknown argument extra"),
            (&["--record"], "--record needs a value"),
            (&["--replicas", "many"], "--replicas needs a number, got"),
            (&["--ticks", "-4"], "--ticks needs a number"),
            (&["--shards", "0"], "--shards needs at least one shard"),
            (&["--shards", "x"], "--shards needs a number"),
            (
                &["--fault-mix", "online:7"],
                "--fault-mix rate 7 must be in",
            ),
            (&["--events", "storm@-5:0.5"], "--events \"storm@-5:0.5\""),
            (
                &["--events", "storm@5:1,surge@1:3:nan"],
                "\"surge@1:3:nan\"",
            ),
        ] {
            let err = parse(argv).expect_err(why);
            assert!(err.contains(why), "{argv:?}: \"{err}\" lacks \"{why}\"");
        }
    }
}
