//! Property-based tests over cross-crate invariants.

use proptest::prelude::*;
use selfheal::daemon::{parse_command, render_command};
use selfheal::faults::injection::default_target;
use selfheal::faults::{
    FaultId, FaultKind, FaultSource, FaultSpec, FixAction, FixCatalog, FixKind, MixSource,
    ServiceProfile,
};
use selfheal::gateway::http::{read_request, MAX_BODY_BYTES};
use selfheal::gateway::router::{route, SAMPLES};
use selfheal::healing::snapshot::SynopsisSnapshot;
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::learn::{Classifier, Dataset, Example, NearestNeighbor};
use selfheal::sim::{MultiTierService, ServiceConfig};
use selfheal::workload::{
    ArrivalProcess, RecordedTrace, Request, RequestKind, TraceGenerator, TraceRecord, WorkloadMix,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulator never produces NaN/infinite metrics and never loses or
    /// invents requests, whatever (kind, severity) is injected.
    #[test]
    fn simulator_samples_are_finite_and_requests_are_conserved(
        kind_idx in 0usize..FaultKind::ALL.len(),
        severity in 0.05f64..1.0,
        rate in 5.0f64..60.0,
        seed in 0u64..1_000,
    ) {
        let kind = FaultKind::ALL[kind_idx];
        let config = ServiceConfig::tiny();
        let mut service = MultiTierService::new(config.clone());
        let mut workload = TraceGenerator::new(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate },
            seed,
        );
        for _ in 0..10 {
            let requests = workload.tick(service.current_tick());
            service.tick(&requests);
        }
        service.inject(FaultSpec::new(FaultId(1), kind, default_target(kind, 1), severity));
        for _ in 0..30 {
            let requests = workload.tick(service.current_tick());
            let outcome = service.tick(&requests);
            prop_assert!(outcome.sample.is_finite(), "sample must stay finite");
            prop_assert_eq!(outcome.arrived, outcome.completed + outcome.errors);
        }
        let (arrived, completed, errors) = service.totals();
        prop_assert_eq!(arrived, completed + errors);
    }

    /// The ground-truth catalog is consistent: the preferred fix for every
    /// fault kind, applied to its natural target, repairs a fault of that
    /// kind — and the universal restart never repairs a hardware failure.
    #[test]
    fn catalog_preferred_fixes_repair_their_faults(
        kind_idx in 0usize..FaultKind::ALL.len(),
        severity in 0.1f64..1.0,
        component in 0usize..4,
    ) {
        let kind = FaultKind::ALL[kind_idx];
        let catalog = FixCatalog::standard();
        let fault = FaultSpec::new(FaultId(0), kind, default_target(kind, component), severity);
        let preferred = catalog.preferred_fix(kind);
        let action = if preferred.needs_target() {
            FixAction::targeted(preferred, default_target(kind, component))
        } else {
            FixAction::untargeted(preferred)
        };
        prop_assert!(catalog.repairs(&fault, &action), "{kind}: preferred fix must repair it");
        let restart = FixAction::untargeted(FixKind::FullServiceRestart);
        if kind == FaultKind::HardwareFailure {
            prop_assert!(!catalog.repairs(&fault, &restart));
        }
    }

    /// A 1-NN classifier always reproduces the label of every training point
    /// it has stored (a basic sanity invariant the FixSym synopsis relies
    /// on: a previously seen failure signature gets the fix that worked).
    #[test]
    fn nearest_neighbor_memorizes_training_points(
        points in prop::collection::vec((prop::collection::vec(-50.0f64..50.0, 4), 0usize..8), 1..40)
    ) {
        // Deduplicate identical feature vectors (they may carry conflicting
        // labels, which 1-NN cannot be expected to reproduce).
        let mut seen: Vec<Vec<f64>> = Vec::new();
        let mut examples = Vec::new();
        for (features, label) in points {
            if seen.iter().any(|f| f == &features) {
                continue;
            }
            seen.push(features.clone());
            examples.push(Example::new(features, label));
        }
        let data = Dataset::from_examples(examples);
        let mut nn = NearestNeighbor::new();
        nn.fit(&data);
        for (features, label) in data.iter() {
            prop_assert_eq!(nn.predict(features), label);
        }
    }

    /// The JSON-lines trace codec is lossless: `parse ∘ serialize = id` for
    /// arbitrary batches, compared structurally (`Request: PartialEq`), not
    /// via debug strings.
    #[test]
    fn trace_codec_round_trips(
        batches in prop::collection::vec(
            prop::collection::vec(
                (0usize..RequestKind::ALL.len(), 0u64..1_000_000, 0u64..1_000_000),
                0..8,
            ),
            0..24,
        ),
        tick_stride in 1u64..5,
    ) {
        let records: Vec<TraceRecord> = batches
            .into_iter()
            .enumerate()
            .map(|(i, batch)| {
                let tick = i as u64 * tick_stride;
                let requests = batch
                    .into_iter()
                    .map(|(kind_idx, id, arrival)| {
                        Request::new(id, RequestKind::ALL[kind_idx], arrival)
                    })
                    .collect();
                TraceRecord::new(tick, requests)
            })
            .collect();
        let trace = RecordedTrace::new(records);
        let parsed = RecordedTrace::from_jsonl(&trace.to_jsonl())
            .expect("serialized traces must parse");
        prop_assert_eq!(parsed, trace);
    }

    /// The JSON-lines synopsis codec is lossless: `parse ∘ serialize = id`
    /// for arbitrary finite symptom vectors (compared bit-for-bit through
    /// `SynopsisExample: PartialEq`), every fix kind, both outcomes, and
    /// every synopsis kind.
    #[test]
    fn synopsis_codec_round_trips(
        examples in prop::collection::vec(
            (
                prop::collection::vec(-1.0e9f64..1.0e9, 1..8),
                0usize..FixKind::ALL.len(),
                0usize..2,
            ),
            0..32,
        ),
        kind_idx in 0usize..4,
    ) {
        let kinds = [
            SynopsisKind::NearestNeighbor,
            SynopsisKind::KMeans,
            SynopsisKind::AdaBoost(60),
            SynopsisKind::AdaBoost(7),
        ];
        let mut snapshot = SynopsisSnapshot::new(kinds[kind_idx]);
        for (symptoms, fix_idx, success) in examples {
            snapshot.push(symptoms, FixKind::ALL[fix_idx], success == 1);
        }
        let parsed = SynopsisSnapshot::from_jsonl(&snapshot.to_jsonl())
            .expect("serialized snapshots must parse");
        prop_assert_eq!(parsed, snapshot);
    }

    /// `MixSource` generation converges on its configured demographics:
    /// over a long window at rate 1.0, the frequency of every recorded
    /// failure cause approaches the `CauseMix` weight of the profile it
    /// was drawn from — the Figure 1 distribution realized as a generator.
    #[test]
    fn mix_source_cause_frequencies_converge_to_the_cause_mix(
        profile_idx in 0usize..ServiceProfile::ALL.len(),
        seed in 0u64..1_000,
    ) {
        let profile = ServiceProfile::ALL[profile_idx];
        let mut source = MixSource::new(profile, 1.0, seed);
        let n = 4_000u64;
        let mut counts = std::collections::HashMap::new();
        for tick in 0..n {
            for fault in source.due_at(tick) {
                *counts.entry(fault.cause).or_insert(0usize) += 1;
            }
        }
        let total: usize = counts.values().sum();
        prop_assert_eq!(total as u64, n, "rate 1.0 fires every tick");
        let mix = profile.cause_mix();
        for &(cause, weight) in mix.probabilities() {
            let freq = counts.get(&cause).copied().unwrap_or(0) as f64 / total as f64;
            // 4000 samples: 0.04 is > 5 sigma for every weight in the mixes.
            prop_assert!(
                (freq - weight).abs() < 0.04,
                "{}: {} frequency {freq:.3} vs configured {weight:.3}",
                profile.name(),
                cause
            );
        }
    }
}

/// A header line longer than half the header budget.
const LONG_HEADER: [u8; 5_000] = [b'h'; 5_000];

/// What a request head is made of, whole and broken: request-line words,
/// both line endings and stray ones, the headers the reader acts on with
/// sane and hostile values, bytes that are not UTF-8.
#[rustfmt::skip]
const HTTP_PIECES: [&[u8]; 41] = [
    b"GET", b"POST", b"delete", b" ", b"\t", b"/v1/status", b"/v1/tenants?pool=1", b"*",
    b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2", b"\r\n", b"\n", b"\r", b"\r\n\r\n", b"\n\n",
    b"Content-Length: ", b"content-length:", b"0", b"5", b"-1", b"+5", b"65536", b"65537",
    b"18446744073709551616", b"99999999999999999999999999999", b"Transfer-Encoding: chunked",
    b"Connection: close", b"Authorization: Bearer t", b":", b"x", b"{\"a\":1}", b"\xff", b"\xc3",
    b"\xe6\x97\xa5", b"\0", b"\r\n\r\nbody", b"Host: a\r\n", b"GET / HTTP/1.1\r\n",
    b"Content-Length: 3\r\n\r\nab", &LONG_HEADER,
];

/// What a control line is made of: every command word in both cases, the
/// two-word heads whole, `@` scopes, Unicode blanks, arguments of every
/// shape.  `#` stands for a run of digits of the case's chosen length.
#[rustfmt::skip]
const COMMAND_PIECES: [&str; 59] = [
    "STATUS", "status", "REPLICAS", "ADD", "REMOVE", "RECONFIGURE", "QUERY", "FIXES", "fixes",
    "EPISODES", "OPEN", "SNAPSHOT", "DRAIN", "METRICS", "TENANT", "CREATE", "DROP", "LIST", "pool",
    "SHUTDOWN", "QUERY FIXES", "@scout query fixes", "TENANT CREATE", "TENANT DROP",
    "TENANT LIST", "EPISODES OPEN", "RECONFIGURE 1", "@", "@scout", "@@", " ", "\t", "\n",
    "\u{a0}", "\u{3000}", "1", "0", "-1", "+3", "18446744073709551616", "1e308", "1e999", "-0",
    "nan", "NaN", "inf", "-infinity", ",", "=", "fault_rate=0.1", "/tmp/x.jsonl", "é", "日",
    "scout", "#", "#.#", "-#e-#", "#,#", "0x#",
];

/// What goes between two pieces of a control line.
const COMMAND_GLUE: [&str; 3] = ["", " ", " \t "];

/// What a request body is made of: the keys the routes take and some they
/// do not, values of every kind, JSON's punctuation, bytes that are not
/// UTF-8.
#[rustfmt::skip]
const BODY_PIECES: [&[u8]; 30] = [
    b"{", b"}", b"[", b"]", b":", b",", b" ", b"\"", b"\"name\"", b"\"shared_pool\"",
    b"\"profile\"", b"\"key\"", b"\"value\"", b"\"path\"", b"\"shared_pol\"", b"\"scout\"",
    b"\"two words\"", b"\"\\u0061\"", b"\"\\q\"", b"true", b"false", b"1.5", b"-1e999", b"1e308",
    b"null", b"\"default\"", b"\"/tmp/x.jsonl\"", b"\xff", b"\xe6\x97\xa5", b"\0",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// Whatever bytes arrive, `read_request` answers — a request, a clean
    /// end, or an error — and never panics.  A request it accepts is
    /// well-formed and within its caps, and each one consumes bytes, so a
    /// keep-alive stream of them always moves forward.  Half the heads
    /// start with a good request line, so the header and body paths see
    /// traffic too.
    #[test]
    fn read_request_answers_any_bytes_without_panicking(
        request_line in 0usize..2,
        picks in prop::collection::vec(0usize..HTTP_PIECES.len(), 0..30),
        raw in prop::collection::vec(0u32..256, 0..48),
    ) {
        let mut pieces = [&b""[..], b"POST /v1/replicas HTTP/1.1\r\n"][request_line].to_vec();
        pieces.extend(picks.iter().flat_map(|&pick| HTTP_PIECES[pick]));
        let raw: Vec<u8> = raw.into_iter().map(|byte| byte as u8).collect();
        for input in [pieces.clone(), raw.clone(), [pieces, raw].concat()] {
            let mut reader = std::io::Cursor::new(input);
            let mut at = 0;
            while let Ok(Some(request)) = read_request(&mut reader) {
                prop_assert!(reader.position() > at, "a request that read nothing");
                at = reader.position();
                prop_assert!(request.path.starts_with('/'));
                prop_assert!(request.body.len() <= MAX_BODY_BYTES);
                prop_assert_eq!(request.method.to_ascii_uppercase(), request.method.clone());
            }
        }
    }

    /// Whatever the body, every route answers it — a plan or a status —
    /// without panicking.
    #[test]
    fn route_answers_any_body_without_panicking(
        sample in 0usize..SAMPLES.len(),
        picks in prop::collection::vec(0usize..BODY_PIECES.len(), 0..20),
        raw in prop::collection::vec(0u32..256, 0..24),
    ) {
        let sample = &SAMPLES[sample];
        let pieces: Vec<u8> = picks.iter().flat_map(|&pick| BODY_PIECES[pick]).copied().collect();
        let raw: Vec<u8> = raw.into_iter().map(|byte| byte as u8).collect();
        for body in [pieces.clone(), raw.clone(), [pieces, raw].concat()] {
            if let Err(err) = route(sample.method, sample.path, sample.query, &body) {
                prop_assert!(matches!(err.status, 400 | 404 | 405), "{}", err.message);
            }
        }
    }

    /// Whatever the line, `parse_command` answers without panicking, and
    /// every command it accepts renders to a line that parses back to the
    /// same command.
    #[test]
    fn parse_command_answers_any_line_and_round_trips_what_it_accepts(
        picks in prop::collection::vec(0usize..COMMAND_PIECES.len(), 0..6),
        glue in 0usize..COMMAND_GLUE.len(),
        digits in 1usize..400,
    ) {
        let line = picks
            .iter()
            .map(|&pick| COMMAND_PIECES[pick])
            .collect::<Vec<_>>()
            .join(COMMAND_GLUE[glue])
            .replace('#', &"7".repeat(digits));
        if let Ok(command) = parse_command(&line) {
            let rendered = render_command(&command);
            let back = parse_command(&rendered)
                .unwrap_or_else(|err| panic!("{rendered:?} (from {line:?}) does not parse: {err}"));
            // Compared through `Debug`, where a NaN component equals itself.
            prop_assert_eq!(format!("{back:?}"), format!("{command:?}"), "{:?}", line);
        }
    }
}
