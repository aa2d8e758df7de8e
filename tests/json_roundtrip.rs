//! Edge-case and property tests for the zero-dependency JSON layer in
//! `obs::json` — the carrier for run reports, BENCH baselines, and the
//! Chrome trace export. The layer's contract is byte-stable round-trips:
//! `parse(v.pretty()) == v` and `parse(text).pretty() == text`, so a
//! baseline written by one run diffs clean against a re-serialization by
//! another.

use bench_support::{schemas, sweep_report};
use obs::Json;
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

/// The sweep schema's own sample document, the golden
/// `bench_support::sweep_report` pins.
fn sweep_sample() -> Json {
    Json::parse(include_str!("../crates/bench/src/golden/sweep.json")).expect("sample parses")
}

#[test]
fn unknown_schema_sweep_report_is_rejected() {
    // A retired, future or typo'd schema id must fail validation outright
    // — the validator owns exactly `dnsimpact-sweep/v1`.
    for bad in ["dnsimpact-sweep/v2", "dnsimpact-metrics/v2", ""] {
        let mut doc = sweep_sample();
        doc.set("schema", Json::Str(bad.into()));
        let errors = sweep_report::validate(&doc).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("schema")),
            "schema {bad:?}: errors do not mention the schema field: {errors:?}"
        );
    }
    // The schema table rejects a retired id by name, listing what it does
    // know — it never hands the document to a neighbour's validator.
    assert_eq!(schemas::REPORT_SCHEMAS.len(), 3);
    for retired in [
        "dnsimpactd-report/v1",
        "dnsimpact-suite/v1",
        "dnsimpact-suite/v2",
        "dnsimpact-metrics/v1",
        "dnsimpactd-live/v1",
    ] {
        let mut doc = sweep_sample();
        doc.set("schema", Json::Str(retired.into()));
        assert!(schemas::lookup(&doc).is_none(), "{retired} still has a table row");
        let errors = schemas::validate(&doc).unwrap_err();
        assert_eq!(errors.len(), 1, "{retired}: {errors:?}");
        assert!(errors[0].contains(retired), "{retired} not named: {errors:?}");
        for known in schemas::REPORT_SCHEMAS {
            assert!(errors[0].contains(known.id), "{} not listed: {errors:?}", known.id);
        }
    }
    let Json::Object(pairs) = sweep_sample() else { unreachable!() };
    let doc = Json::Object(pairs.into_iter().filter(|(k, _)| k != "schema").collect());
    assert!(sweep_report::validate(&doc).is_err(), "schema-less report accepted");
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

#[test]
fn typed_writer_refuses_a_report_that_breaks_a_rule() {
    // `write_report` validates the report as its own type: a sweep whose
    // cells are out of order and a live report whose delta series no
    // longer conserves are refused, with the violation, and nothing
    // reaches the path.
    use dnsimpact_core::report::write_report;
    let dir = std::env::temp_dir().join(format!("typed-writer-{}", std::process::id()));
    let path = dir.join("report.json");

    let mut sweep = sweep_report::SweepReport::from_json(&sweep_sample()).unwrap();
    sweep.cells.swap(1, 2);
    let err = write_report(&path, &sweep).expect_err("an unsorted sweep was written");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("cells must be sorted"), "{err}");
    assert!(!dir.exists(), "a refused sweep left {} behind", dir.display());

    let live = Json::parse(include_str!("../crates/dnsimpactd/src/golden/live.json")).unwrap();
    let mut live = dnsimpactd::live::LiveReport::from_json(&live).unwrap();
    let delta = live.deterministic.series.iter_mut().find(|s| s.kind == "delta").unwrap();
    delta.cumulative += 1;
    let err = write_report(&path, &live).expect_err("a non-conserving live report was written");
    assert!(err.to_string().contains("double-counted"), "{err}");
    assert!(!dir.exists(), "a refused live report left {} behind", dir.display());

    // The same writer takes the sound sample as its golden bytes.
    let sound = sweep_report::SweepReport::from_json(&sweep_sample()).unwrap();
    write_report(&path, &sound).unwrap();
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(written, include_str!("../crates/bench/src/golden/sweep.json"));
}

/// Re-serialize a report document through the typed decoder of the
/// schema it names: `from_json(doc).to_json()`.
fn reencode(doc: &Json) -> Result<Json, Vec<String>> {
    use dnsimpactd::live::{LiveReport, LIVE_SCHEMA_ID};
    use obs::report::SCHEMA_ID;
    use sweep_report::{SweepReport, SWEEP_SCHEMA_ID};
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA_ID) => obs::RunReport::from_json(doc).map(|r| r.to_json()),
        Some(SWEEP_SCHEMA_ID) => SweepReport::from_json(doc).map(|r| r.to_json()),
        Some(LIVE_SCHEMA_ID) => LiveReport::from_json(doc).map(|r| r.to_json()),
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
        if let Err(errors) = schemas::validate(&doc) {
            panic!("{} does not validate: {errors:#?}", path.display());
        }
        let back = reencode(&doc).unwrap_or_else(|e| panic!("{}: {e:#?}", path.display()));
        if let Err(errors) = schemas::validate(&back) {
            panic!("{} re-serializes to an invalid document: {errors:#?}", path.display());
        }
        assert_eq!(
            back.pretty().trim_end(),
            text.trim_end(),
            "{} changed across from_json -> to_json",
            path.display()
        );
        seen.push(schemas::lookup(&doc).expect("validated above").id);
    }
    for schema in schemas::REPORT_SCHEMAS {
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
        let schemas: [(&str, Check, Check); 3] = [
            (
                include_str!("../crates/obs/src/golden/report.json"),
                obs::report::validate,
                |d| obs::RunReport::from_json(d).map(drop),
            ),
            (
                include_str!("../crates/bench/src/golden/sweep.json"),
                sweep_report::validate,
                |d| sweep_report::SweepReport::from_json(d).map(drop),
            ),
            (
                include_str!("../crates/dnsimpactd/src/golden/live.json"),
                dnsimpactd::live::validate,
                |d| dnsimpactd::live::LiveReport::from_json(d).map(drop),
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
