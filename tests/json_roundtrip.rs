//! Edge-case and property tests for the zero-dependency JSON layer in
//! `obs::json` — the carrier for run reports, BENCH baselines, and the
//! Chrome trace export. The layer's contract is byte-stable round-trips:
//! `parse(v.pretty()) == v` and `parse(text).pretty() == text`, so a
//! baseline written by one run diffs clean against a re-serialization by
//! another.

use obs::suite::{SuiteACell, Verdict};
use obs::{Json, SuiteMeta, SuiteReport};
use proptest::prelude::*;
use proptest::{Strategy, TestRng};

#[test]
fn escape_edge_cases() {
    // Every escape the writer emits parses back to the same string.
    let gauntlet = [
        "",
        "\"",
        "\\",
        "\\\\\"\"",
        "a\"b\\c/d",
        "line\nfeed\rreturn\ttab",
        "\u{8}\u{c}\u{1}\u{1f}", // backspace, formfeed, raw controls
        "mixed \u{0} nul and text",
        "ünïcode — ελληνικά — 日本語 — 🦀",
        "trailing backslash\\",
    ];
    for s in gauntlet {
        let doc = Json::Str(s.to_string());
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        assert_eq!(parsed, doc, "escape round-trip for {s:?}");
    }

    // Escapes the parser accepts beyond what the writer emits.
    assert_eq!(Json::parse(r#""\/""#).unwrap(), Json::Str("/".into()));
    assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::Str("Aé".into()));
    // Unpaired surrogates map to U+FFFD rather than erroring.
    assert_eq!(Json::parse(r#""\ud800""#).unwrap(), Json::Str("\u{fffd}".into()));
    // Unknown escapes are rejected.
    assert!(Json::parse(r#""\q""#).is_err());
}

#[test]
fn deep_nesting_round_trips() {
    // 500 levels of alternating arrays and single-key objects: recursion
    // in the parser, the writer, and the recursive Drop all survive it.
    let mut v = Json::U64(7);
    for depth in 0..500u32 {
        v = if depth % 2 == 0 {
            Json::Array(vec![v])
        } else {
            let mut o = Json::obj();
            o.set("k", v);
            o
        };
    }
    let text = v.pretty();
    let parsed = Json::parse(&text).expect("deeply nested document parses");
    assert_eq!(parsed, v);
    assert_eq!(parsed.pretty(), text);
}

#[test]
fn truncated_input_is_rejected() {
    // A document that ends in a closing brace has no valid proper prefix,
    // so every truncation point must be a parse error — never a silent
    // partial value (a truncated BENCH baseline must fail loudly).
    let mut doc = Json::obj();
    doc.set("schema", Json::Str("x/v1".into()));
    doc.set("list", Json::Array(vec![Json::U64(1), Json::Bool(true), Json::Null]));
    doc.set("nested", {
        let mut o = Json::obj();
        o.set("f", Json::F64(2.5));
        o
    });
    let text = doc.pretty();
    let text = text.trim_end(); // the trailing newline is a valid suffix to drop
    for cut in 0..text.len() {
        if !text.is_char_boundary(cut) {
            continue;
        }
        assert!(
            Json::parse(&text[..cut]).is_err(),
            "prefix of {cut} bytes parsed as a complete document"
        );
    }

    // Truncation inside escapes and literals.
    for bad in ["\"\\", "\"\\u", "\"\\u00", "\"abc", "tru", "nul", "fals", "-", "[1,", "{\"a\":"] {
        assert!(Json::parse(bad).is_err(), "{bad:?} accepted");
    }
}

#[test]
fn number_edge_cases() {
    // u64 boundary values stay exact; past the boundary falls to f64.
    assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
    assert!(matches!(Json::parse("18446744073709551616").unwrap(), Json::F64(_)));
    assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
    assert_eq!(Json::parse("-0.25").unwrap(), Json::F64(-0.25));
    // Whitespace tolerance around every token.
    let spaced = " { \"a\" :\t[ 1 ,\n null , \"s\" ] } ";
    let mut want = Json::obj();
    want.set("a", Json::Array(vec![Json::U64(1), Json::Null, Json::Str("s".into())]));
    assert_eq!(Json::parse(spaced).unwrap(), want);
}

/// A minimal valid `dnsimpact-suite/v2` report: two Suite A cells,
/// accounting consistent.
fn tiny_suite_report() -> SuiteReport {
    let cell = |jobs: u64, wall: u64| SuiteACell {
        cell: format!("A/repro/scale750/jobs{jobs}"),
        kind: "repro".into(),
        scale: 750,
        jobs,
        wall_ms: wall,
        peak_rss_kb: 4_096,
        records: 1_000,
        records_per_sec: 1_000.0 * 1_000.0 / wall as f64,
        fingerprint: "0x00c5330b6d65f1a2".into(),
    };
    SuiteReport {
        meta: SuiteMeta { seed: 1, date: "2026-08-08".into(), processes: 2 },
        suite_a: vec![cell(1, 200), cell(2, 100)],
        verdicts: vec![Verdict {
            cell: "A/repro/scale750".into(),
            pass: true,
            detail: "fingerprints agree".into(),
        }],
    }
}

#[test]
fn suite_report_round_trips_byte_stable() {
    // The suite summary is a fixed point of parse ∘ pretty, and the
    // parsed structs match the originals — same contract as the BENCH
    // baseline files.
    let report = tiny_suite_report();
    let text = report.to_json().pretty();
    let doc = Json::parse(&text).expect("suite report parses");
    obs::suite::validate(&doc).expect("suite report validates");
    let back = SuiteReport::from_json(&doc).expect("suite report deserializes");
    assert_eq!(back, report);
    assert_eq!(back.to_json().pretty(), text);
}

#[test]
fn truncated_suite_report_is_rejected() {
    // Every proper prefix of the on-disk form must fail to parse — a
    // torn SUITE_*.json write can never validate as a smaller report.
    let text = report_text_trimmed();
    for cut in (0..text.len()).step_by(7) {
        if !text.is_char_boundary(cut) {
            continue;
        }
        assert!(
            Json::parse(&text[..cut]).is_err(),
            "prefix of {cut} bytes parsed as a complete suite report"
        );
    }
}

fn report_text_trimmed() -> String {
    let text = tiny_suite_report().to_json().pretty();
    text.trim_end().to_string()
}

#[test]
fn malformed_suite_reports_name_their_defects() {
    // Structurally valid JSON with broken semantics is rejected with an
    // error that names the offending field, never accepted quietly.
    type Mutation = fn(&mut SuiteReport);
    let mutations: &[(&str, Mutation)] = &[
        ("meta.processes", |r| r.meta.processes = 99),
        ("suite_a duplicate cells", |r| {
            let dup = r.suite_a[1].cell.clone();
            r.suite_a[0].cell = dup;
        }),
        // NaN serializes as null, so the document is valid JSON with a
        // non-numeric rate.
        ("records_per_sec", |r| r.suite_a[0].records_per_sec = f64::NAN),
        ("suite_a empty", |r| {
            r.suite_a.clear();
            r.meta.processes = 0;
        }),
        ("kind vocabulary", |r| r.suite_a[0].kind = "everything".into()),
    ];
    for (what, mutate) in mutations {
        let mut report = tiny_suite_report();
        mutate(&mut report);
        let doc = report.to_json();
        let errors = obs::suite::validate(&doc).expect_err(&format!("{what} accepted"));
        assert!(!errors.is_empty(), "{what}: no error reported");
        assert!(SuiteReport::from_json(&doc).is_err(), "{what}: from_json accepted it");
    }
}

#[test]
fn unknown_schema_suite_report_is_rejected() {
    // A retired, future or typo'd schema id must fail validation outright
    // — the validator owns exactly `dnsimpact-suite/v2`.
    for bad in ["dnsimpact-suite/v1", "dnsimpact-sweep/v1", ""] {
        let mut doc = tiny_suite_report().to_json();
        doc.set("schema", Json::Str(bad.into()));
        let errors = obs::suite::validate(&doc).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("schema")),
            "schema {bad:?}: errors do not mention the schema field: {errors:?}"
        );
    }
    // The schema table rejects a retired id by name, listing what it does
    // know — it never hands the document to a neighbour's validator.
    for retired in ["dnsimpactd-report/v1", "dnsimpact-suite/v1", "dnsimpactd-live/v1"] {
        let mut doc = tiny_suite_report().to_json();
        doc.set("schema", Json::Str(retired.into()));
        assert!(obs::schema::lookup(&doc).is_none(), "{retired} still has a table row");
        let errors = obs::schema::validate(&doc).unwrap_err();
        assert_eq!(errors.len(), 1, "{retired}: {errors:?}");
        assert!(errors[0].contains(retired), "{retired} not named: {errors:?}");
        for known in obs::schema::REPORT_SCHEMAS {
            assert!(errors[0].contains(known.id), "{} not listed: {errors:?}", known.id);
        }
    }
    let mut doc = tiny_suite_report().to_json();
    let Json::Object(pairs) = std::mem::replace(&mut doc, Json::Null) else { unreachable!() };
    let doc = Json::Object(pairs.into_iter().filter(|(k, _)| k != "schema").collect());
    assert!(obs::suite::validate(&doc).is_err(), "schema-less report accepted");
}

/// Generator for arbitrary `Json` trees, depth-bounded so generation
/// terminates. Floats are kept finite and non-integral: non-finite
/// values serialize as `null` and integral floats print without a '.'
/// and legitimately re-parse as `U64` — both are intentional one-way
/// normalizations, not round-trip targets.
struct ArbJson {
    depth: u32,
}

fn gen_string(rng: &mut TestRng) -> String {
    Strategy::generate(&"[ -~\n\t]{0,12}", rng)
}

fn gen_json(rng: &mut TestRng, depth: u32) -> Json {
    let leaf_only = depth == 0;
    let pick = rng.next_u64() % if leaf_only { 5 } else { 7 };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64().is_multiple_of(2)),
        2 => Json::U64(rng.next_u64()),
        3 => {
            let f = Strategy::generate(&(0.0f64..1.0), rng) + 0.5;
            Json::F64(if f.fract() == 0.0 { 0.25 } else { f })
        }
        4 => Json::Str(gen_string(rng)),
        5 => {
            let n = rng.next_u64() % 4;
            Json::Array((0..n).map(|_| gen_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.next_u64() % 4;
            Json::Object((0..n).map(|_| (gen_string(rng), gen_json(rng, depth - 1))).collect())
        }
    }
}

impl Strategy for ArbJson {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        gen_json(rng, self.depth)
    }
}

proptest! {
    #[test]
    fn arbitrary_documents_round_trip(doc in ArbJson { depth: 4 }) {
        let text = doc.pretty();
        let parsed = Json::parse(&text)
            .map_err(|e| proptest::test_runner::TestCaseError::fail(format!("{text:?}: {e}")))?;
        prop_assert_eq!(&parsed, &doc);
        // Re-serialization is byte-identical: the on-disk form is a
        // fixed point of parse ∘ pretty.
        prop_assert_eq!(parsed.pretty(), text);
    }
}

/// Re-serialize a report document through the typed decoder of the
/// schema it names: `from_json(doc).to_json()`.
fn reencode(doc: &Json) -> Result<Json, Vec<String>> {
    use obs::live::LiveReport;
    use obs::report::{LegacyRunReport, LEGACY_SCHEMA_ID};
    match doc.get("schema").and_then(Json::as_str) {
        Some(obs::SCHEMA_ID) => obs::RunReport::from_json(doc).map(|r| r.to_json()),
        Some(LEGACY_SCHEMA_ID) => LegacyRunReport::from_json(doc).map(|r| r.to_json()),
        Some(obs::SWEEP_SCHEMA_ID) => obs::SweepReport::from_json(doc).map(|r| r.to_json()),
        Some(obs::SUITE_SCHEMA_ID) => SuiteReport::from_json(doc).map(|r| r.to_json()),
        Some(obs::LIVE_SCHEMA_ID) => LiveReport::from_json(doc).map(|r| r.to_json()),
        other => panic!("no typed decoder listed for schema {other:?}"),
    }
}

#[test]
fn committed_reports_validate_and_reserialize_byte_for_byte() {
    // The perf record is only a record while it still reads back: every
    // report under results/ must validate under the schema it names and
    // come out of from_json → to_json as the bytes it went in as (the
    // files of the older series end in one more newline than `pretty()`
    // writes). Every schema in the table must have a committed input.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("results/ is readable") {
        let path = entry.expect("results/ entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("report is readable");
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Err(errors) = obs::schema::validate(&doc) {
            panic!("{} does not validate: {errors:#?}", path.display());
        }
        let back = reencode(&doc).unwrap_or_else(|e| panic!("{}: {e:#?}", path.display()));
        if let Err(errors) = obs::schema::validate(&back) {
            panic!("{} re-serializes to an invalid document: {errors:#?}", path.display());
        }
        assert_eq!(
            back.pretty().trim_end(),
            text.trim_end(),
            "{} changed across from_json -> to_json",
            path.display()
        );
        seen.push(obs::schema::lookup(&doc).expect("validated above").id);
    }
    for schema in obs::schema::REPORT_SCHEMAS {
        assert!(seen.contains(&schema.id), "no committed results/*.json of schema {}", schema.id);
    }
}

/// One random structural defect somewhere below the document root: the
/// kinds of damage a hand edit, a torn merge or a wrong tool leave in a
/// file that is still valid JSON.
fn mutate(doc: &mut Json, rng: &mut TestRng) {
    fn nodes(v: &Json) -> usize {
        1 + match v {
            Json::Array(items) => items.iter().map(nodes).sum(),
            Json::Object(pairs) => pairs.iter().map(|(_, v)| nodes(v)).sum(),
            _ => 0,
        }
    }
    // Pre-order walk to the `target`-th node.
    fn descend<'a>(v: &'a mut Json, target: &mut usize) -> Option<&'a mut Json> {
        if *target == 0 {
            return Some(v);
        }
        *target -= 1;
        match v {
            Json::Array(items) => items.iter_mut().find_map(|c| descend(c, target)),
            Json::Object(pairs) => pairs.iter_mut().find_map(|(_, c)| descend(c, target)),
            _ => None,
        }
    }
    let mut target = (rng.next_u64() as usize) % nodes(doc);
    let is_root = target == 0;
    let node = descend(doc, &mut target).expect("target is within the tree");
    let pick = rng.next_u64();
    let index = |len: usize| (pick >> 8) as usize % len;
    match (pick % 6, &mut *node) {
        // Delete a key.
        (0, Json::Object(pairs)) if !pairs.is_empty() => {
            pairs.remove(index(pairs.len()));
        }
        // Truncate or duplicate an array element.
        (0, Json::Array(items)) if !items.is_empty() => {
            items.pop();
        }
        (1, Json::Array(items)) if !items.is_empty() => {
            let dup = items[index(items.len())].clone();
            items.push(dup);
        }
        _ if is_root => {}
        // Replace a number with null, or with one no sum survives.
        (2, Json::U64(_) | Json::F64(_)) => *node = Json::Null,
        (3, Json::U64(_)) => *node = Json::U64(u64::MAX),
        // Nest one level deeper.
        (4, _) => *node = Json::Array(vec![std::mem::replace(node, Json::Null)]),
        // Swap the value for one of another JSON type.
        _ => {
            *node = match node {
                Json::Str(_) => Json::U64(7),
                Json::U64(_) | Json::F64(_) => Json::Str("seven".into()),
                Json::Bool(_) | Json::Null => Json::obj(),
                Json::Array(_) => Json::Bool(true),
                Json::Object(_) => Json::Array(Vec::new()),
            }
        }
    }
}

proptest! {
    #[test]
    fn mutated_reports_are_decoded_or_rejected_by_path_never_panic(seed in any::<u64>()) {
        // Each schema's own sample document (the golden its module pins)
        // under one to three random defects: the decoder returns a report
        // or a non-empty list of `$.`-pathed violations, and validate
        // agrees with from_json — they are one walk.
        type Check = fn(&Json) -> Result<(), Vec<String>>;
        let schemas: [(&str, Check, Check); 4] = [
            (
                include_str!("../crates/obs/src/golden/report.json"),
                obs::report::validate,
                |d| obs::RunReport::from_json(d).map(drop),
            ),
            (
                include_str!("../crates/obs/src/golden/sweep.json"),
                obs::sweep::validate,
                |d| obs::SweepReport::from_json(d).map(drop),
            ),
            (
                include_str!("../crates/obs/src/golden/suite.json"),
                obs::suite::validate,
                |d| SuiteReport::from_json(d).map(drop),
            ),
            (
                include_str!("../crates/obs/src/golden/live.json"),
                obs::live::validate,
                |d| obs::live::LiveReport::from_json(d).map(drop),
            ),
        ];
        let mut rng = TestRng::new(seed);
        for (sample, validate, decode) in schemas {
            let mut doc = Json::parse(sample).expect("sample document parses");
            prop_assert!(decode(&doc).is_ok(), "unmutated sample rejected");
            for _ in 0..1 + rng.next_u64() % 3 {
                mutate(&mut doc, &mut rng);
            }
            let decoded = decode(&doc);
            prop_assert_eq!(validate(&doc).is_ok(), decoded.is_ok());
            if let Err(errors) = decoded {
                prop_assert!(!errors.is_empty(), "rejected without saying why");
                for e in &errors {
                    prop_assert!(e.contains("$."), "violation names no path: {e}");
                }
            }
        }
    }
}
