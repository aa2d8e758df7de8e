//! The dispatch table of `repro validate-metrics` (DESIGN §17): one row
//! per report schema id the workspace writes. Each schema is declared
//! beside its writer — the run report in `obs::report`, the sweep report
//! in [`crate::sweep_report`], the live report in `dnsimpactd::live` —
//! and this crate, which depends on all three, is where they meet.

use obs::schema::{self, Report};
use obs::Json;

/// One row per schema id the workspace writes.
pub struct ReportSchema {
    pub id: &'static str,
    /// Decode-is-validate, plus the schema's [`Report::invariants`].
    pub validate: fn(&Json) -> Result<(), Vec<String>>,
    /// [`Report::headline`] of a document that passed `validate`.
    pub summary: fn(&Json) -> String,
}

impl ReportSchema {
    const fn of<T: Report>() -> ReportSchema {
        ReportSchema {
            id: T::SCHEMA_ID,
            validate: schema::validate_as::<T>,
            summary: |doc| schema::from_json::<T>(doc).map(|r| r.headline()).unwrap_or_default(),
        }
    }
}

/// Every report schema, in the order `validate-metrics` lists them.
pub const REPORT_SCHEMAS: &[ReportSchema] = &[
    ReportSchema::of::<obs::RunReport>(),
    ReportSchema::of::<crate::sweep_report::SweepReport>(),
    ReportSchema::of::<dnsimpactd::live::LiveReport>(),
];

/// The table row for `doc`'s `schema` field; `None` for a missing or
/// unknown id — a typo'd or future schema must never fall through to
/// the wrong validator.
pub fn lookup(doc: &Json) -> Option<&'static ReportSchema> {
    let id = doc.get("schema")?.as_str()?;
    REPORT_SCHEMAS.iter().find(|s| s.id == id)
}

/// Validate `doc` under the schema it names.
pub fn validate(doc: &Json) -> Result<(), Vec<String>> {
    match lookup(doc) {
        Some(schema) => (schema.validate)(doc),
        None => Err(vec![format!(
            "$.schema is {}; known schemas: {}",
            doc.get("schema").map_or("missing".to_string(), Json::compact),
            REPORT_SCHEMAS.iter().map(|s| s.id).collect::<Vec<_>>().join(", ")
        )]),
    }
}
