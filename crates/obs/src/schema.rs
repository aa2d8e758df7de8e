//! One description per report schema (DESIGN §17).
//!
//! Every report under `results/` is declared once, with [`record!`]: the
//! declaration is the struct, and its JSON writer, parser and shape
//! validator are all derived from it, so a field name is typed exactly
//! once and reader and writer cannot disagree about a field. Decoding
//! *is* validating — `from_json` walks the document once through the
//! [`Reader`], collecting every violation with its `$.a.b[i]` path, and
//! each schema's `validate(doc)` is `from_json(doc).map(drop)`.
//!
//! What a document must satisfy beyond field shapes is a field check
//! (`[is date]`: a predicate on the raw value) or a record's `rules`
//! (cross-field, run on the typed value as soon as all of that record's
//! fields decoded, so a sound cell is checked beside a malformed one).
//! `Option<T>` is **required-nullable** (`null` ⇄ `None`, the key always
//! there); an `[optional if p]` field is **optional-absent** (no key ⇄
//! `Default`, written only when `self.p()`). Confusing the two is how a
//! reader and a writer drift.
//!
//! [`REPORT_SCHEMAS`] is the table of every schema id the workspace
//! writes; `repro validate-metrics`, the report writer and the results
//! round-trip test all go through it.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// The crate's only document reader: it tracks the path of the value
/// being read and accumulates every violation instead of stopping at the
/// first.
pub struct Reader {
    path: String,
    errors: Vec<String>,
}

impl Reader {
    /// Record `<path><what>`: `fail(" must be a string")` at `$.meta.date`,
    /// `fail(format_args!(".jobs must be >= 1"))` at `$.cells[0]`.
    pub fn fail(&mut self, what: impl Display) {
        self.errors.push(format!("{}{what}", self.path));
    }

    /// [`Reader::fail`] unless `holds`; `None` when it did not.
    pub fn ensure(&mut self, holds: bool, what: impl Display) -> Option<()> {
        if !holds {
            self.fail(what);
        }
        holds.then_some(())
    }

    /// Run `f` with `segment` (`.key` or `[i]`) appended to the path.
    pub fn at<T>(&mut self, segment: impl Display, f: impl FnOnce(&mut Reader) -> T) -> T {
        let len = self.path.len();
        let _ = write!(self.path, "{segment}");
        let out = f(self);
        self.path.truncate(len);
        out
    }

    /// The value under `key`, or a `missing field` violation.
    pub fn require<'a>(&mut self, obj: &'a Json, key: &str) -> Option<&'a Json> {
        let v = obj.get(key);
        if v.is_none() {
            self.errors.push(format!("missing field {}.{key}", self.path));
        }
        v
    }

    /// A required field: missing is a violation, `null` is whatever `T`
    /// makes of it (`Option<T>` reads it as `None`).
    pub fn field<T: Field>(&mut self, obj: &Json, key: &str) -> Option<T> {
        let v = self.require(obj, key)?;
        self.at(format_args!(".{key}"), |r| T::read(v, r))
    }

    /// A required field with a check on its raw value; the check runs
    /// even when the typed read fails, so both defects are reported.
    pub fn checked<T: Field>(
        &mut self,
        obj: &Json,
        key: &str,
        check: fn(&Json, &mut Reader),
    ) -> Option<T> {
        if let Some(v) = obj.get(key) {
            self.at(format_args!(".{key}"), |r| check(v, r));
        }
        self.field(obj, key)
    }

    /// An optional-absent field: a missing key reads as `T::default()`.
    pub fn optional<T: Field + Default>(&mut self, obj: &Json, key: &str) -> Option<T> {
        match obj.get(key) {
            None => Some(T::default()),
            Some(_) => self.field(obj, key),
        }
    }

    /// The document's `schema` field must be exactly `want`.
    pub fn schema_id(&mut self, doc: &Json, want: &str) {
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == want => {}
            Some(s) => self.errors.push(format!("$.schema is {s:?}, expected {want:?}")),
            None => self.errors.push("missing string field $.schema".into()),
        }
    }
}

/// A value with one JSON form: how it is read (validating as it goes)
/// and how it is written.
pub trait Field: Sized {
    /// `None` means at least one violation was recorded on `r`.
    fn read(v: &Json, r: &mut Reader) -> Option<Self>;
    fn write(&self) -> Json;
}

/// Decode a whole document rooted at `path`; `Err` holds every violation
/// (a [`Field::read`] that returns `None` has recorded one).
pub fn decode_at<T: Field>(doc: &Json, path: &str) -> Result<T, Vec<String>> {
    let mut r = Reader { path: path.to_string(), errors: Vec::new() };
    match T::read(doc, &mut r) {
        Some(value) if r.errors.is_empty() => Ok(value),
        _ => Err(r.errors),
    }
}

/// [`decode_at`] the document root `$`.
pub fn from_json<T: Field>(doc: &Json) -> Result<T, Vec<String>> {
    decode_at(doc, "$")
}

/// Overflow-checked sum: `None` when hostile counts exceed `u64`.
pub fn checked_sum<'a>(values: impl IntoIterator<Item = &'a u64>) -> Option<u64> {
    values.into_iter().try_fold(0u64, |acc, &v| acc.checked_add(v))
}

/// A [`checked_sum`] as an error message shows it.
pub fn show_sum(sum: Option<u64>) -> String {
    sum.map_or("more than a u64".to_string(), |n| n.to_string())
}

/// Field check: a string must be a `YYYY-MM-DD` date.
pub fn date(v: &Json, r: &mut Reader) {
    let digit_to_zero = |b: u8| if b.is_ascii_digit() { b'0' } else { b };
    let well_formed = |d: &&str| d.bytes().map(digit_to_zero).eq("0000-00-00".bytes());
    if let Some(d) = v.as_str().filter(|d| !well_formed(d)) {
        r.fail(format_args!(" {d:?} is not YYYY-MM-DD"));
    }
}

/// Field check: a string must be a `0x`-prefixed fingerprint.
pub fn fingerprint(v: &Json, r: &mut Reader) {
    if let Some(fp) = v.as_str().filter(|fp| !(fp.starts_with("0x") && fp.len() > 2)) {
        r.fail(format_args!(" {fp:?} must be 0x-prefixed hex"));
    }
}

macro_rules! scalar_field {
    ($ty:ty, $expected:literal, $read:expr, $write:expr) => {
        impl Field for $ty {
            fn read(v: &Json, r: &mut Reader) -> Option<Self> {
                let read: fn(&Json) -> Option<$ty> = $read;
                let value = read(v);
                if value.is_none() {
                    r.fail($expected);
                }
                value
            }
            fn write(&self) -> Json {
                let write: fn(&$ty) -> Json = $write;
                write(self)
            }
        }
    };
}

// The writer renders a non-finite float as `null`, so a NaN produced
// upstream fails here on the way back in either form.
fn finite(v: &Json) -> Option<f64> {
    v.as_f64().filter(|f| f.is_finite())
}

scalar_field!(u64, " must be an unsigned integer", Json::as_u64, |n| Json::U64(*n));
scalar_field!(f64, " must be a finite number", finite, |f| Json::F64(*f));
scalar_field!(String, " must be a string", |v| Some(v.as_str()?.into()), |s| Json::Str(s.clone()));
scalar_field!(bool, " must be a boolean", Json::as_bool, |b| Json::Bool(*b));

/// Required-nullable: `null` ⇄ `None`.
impl<T: Field> Field for Option<T> {
    fn read(v: &Json, r: &mut Reader) -> Option<Self> {
        match v {
            Json::Null => Some(None),
            _ => T::read(v, r).map(Some),
        }
    }
    fn write(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::write)
    }
}

/// Every element is read even after one fails, so each sound element
/// still has its rules checked.
impl<T: Field> Field for Vec<T> {
    fn read(v: &Json, r: &mut Reader) -> Option<Self> {
        let Some(items) = v.as_array() else {
            r.fail(" must be an array");
            return None;
        };
        let read: Vec<Option<T>> = items
            .iter()
            .enumerate()
            .map(|(i, item)| r.at(format_args!("[{i}]"), |r| T::read(item, r)))
            .collect();
        read.into_iter().collect()
    }
    fn write(&self) -> Json {
        Json::Array(self.iter().map(T::write).collect())
    }
}

fn read_entries<T: Field, M: FromIterator<(String, T)>>(v: &Json, r: &mut Reader) -> Option<M> {
    let Some(pairs) = v.as_object() else {
        r.fail(" must be an object");
        return None;
    };
    let read: Vec<Option<(String, T)>> = pairs
        .iter()
        .map(|(name, value)| {
            Some((name.clone(), r.at(format_args!(".{name}"), |r| T::read(value, r))?))
        })
        .collect();
    read.into_iter().collect()
}

fn write_entries<'a, T: Field + 'a>(entries: impl Iterator<Item = (&'a String, &'a T)>) -> Json {
    Json::Object(entries.map(|(name, value)| (name.clone(), value.write())).collect())
}

/// A name → value map, name-sorted.
impl<T: Field> Field for BTreeMap<String, T> {
    fn read(v: &Json, r: &mut Reader) -> Option<Self> {
        read_entries(v, r)
    }
    fn write(&self) -> Json {
        write_entries(self.iter())
    }
}

/// A name → value map in document order.
impl<T: Field> Field for Vec<(String, T)> {
    fn read(v: &Json, r: &mut Reader) -> Option<Self> {
        read_entries(v, r)
    }
    fn write(&self) -> Json {
        write_entries(self.iter().map(|(name, value)| (name, value)))
    }
}

/// The JSON key of a record field: its identifier, minus the `r#` of a
/// raw identifier (`r#final` is the key `final`).
pub fn key(ident: &'static str) -> &'static str {
    ident.strip_prefix("r#").unwrap_or(ident)
}

/// Declare a module's report records: each struct (always `Debug`,
/// `Clone`, `PartialEq`) plus its [`Field`] impl. Fields are read and
/// written in declaration order under their own names. `rules = f;` after
/// a struct names its cross-field rules, a `fn(&Self, &mut Reader)`. A
/// struct declared `: Report` is a document root: it checks and writes the
/// `schema` field of its [`Report`] impl and gets `to_json` / `from_json`;
/// `pub fn validate;` after it emits the module's `validate(doc)`.
///
/// Field modifiers: `[is f]` runs the field check `f` on the raw value;
/// `[flatten]` reads and writes another record's fields in place;
/// `[optional if p]` is optional-absent (see the module docs).
macro_rules! record {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident $(: $root:ident)? {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident : $ty:ty $([$($modifier:tt)+])?
            ),* $(,)?
        }
        $(rules = $rules:path;)?
        $(pub fn $validate:ident;)?
    )+) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $name {
            pub(crate) fn read_fields(
                v: &$crate::json::Json,
                r: &mut $crate::schema::Reader,
            ) -> Option<Self> {
                $( let $field = $crate::schema::record!(@read v r $field $ty $([$($modifier)+])?); )*
                Some($name { $( $field: $field?, )* })
            }

            pub(crate) fn write_fields(&self, pairs: &mut Vec<(String, $crate::json::Json)>) {
                $( $crate::schema::record!(@write self pairs $field $([$($modifier)+])?); )*
            }

            $(
                #[doc = concat!("This ", stringify!($root), " as its document.")]
                pub fn to_json(&self) -> $crate::json::Json {
                    $crate::schema::Field::write(self)
                }

                /// Decode and validate in one walk; `Err` lists every violation.
                pub fn from_json(doc: &$crate::json::Json) -> Result<Self, Vec<String>> {
                    $crate::schema::from_json(doc)
                }
            )?
        }

        $(
            #[doc = concat!("Validate a document as a [`", stringify!($name), "`] — every")]
            /// violation `from_json` finds, not just the first: decode is validate.
            pub fn $validate(doc: &$crate::json::Json) -> Result<(), Vec<String>> {
                $crate::schema::from_json::<$name>(doc).map(drop)
            }
        )?

        impl $crate::schema::Field for $name {
            fn read(v: &$crate::json::Json, r: &mut $crate::schema::Reader) -> Option<Self> {
                r.ensure(v.as_object().is_some(), " must be an object")?;
                $( r.schema_id(v, <Self as $crate::schema::$root>::SCHEMA_ID); )?
                let value = Self::read_fields(v, r)?;
                $( $rules(&value, r); )?
                Some(value)
            }

            fn write(&self) -> $crate::json::Json {
                #[allow(unused_mut)]
                let mut pairs = Vec::new();
                $( pairs.push((
                    "schema".to_string(),
                    $crate::json::Json::Str(<Self as $crate::schema::$root>::SCHEMA_ID.into()),
                )); )?
                self.write_fields(&mut pairs);
                $crate::json::Json::Object(pairs)
            }
        }
    )+};
    (@read $v:ident $r:ident $field:ident $ty:ty) => {
        $r.field::<$ty>($v, $crate::schema::key(stringify!($field)))
    };
    (@read $v:ident $r:ident $field:ident $ty:ty [is $check:path]) => {
        $r.checked::<$ty>($v, $crate::schema::key(stringify!($field)), $check)
    };
    (@read $v:ident $r:ident $field:ident $ty:ty [flatten]) => {
        <$ty>::read_fields($v, $r)
    };
    (@read $v:ident $r:ident $field:ident $ty:ty [optional if $present:ident]) => {
        $r.optional::<$ty>($v, $crate::schema::key(stringify!($field)))
    };
    (@write $s:ident $pairs:ident $field:ident [flatten]) => {
        $s.$field.write_fields($pairs)
    };
    (@write $s:ident $pairs:ident $field:ident [optional if $present:ident]) => {
        if $s.$present() {
            $crate::schema::record!(@write $s $pairs $field)
        }
    };
    (@write $s:ident $pairs:ident $field:ident $([is $check:path])?) => {
        $pairs.push((
            $crate::schema::key(stringify!($field)).to_string(),
            $crate::schema::Field::write(&$s.$field),
        ))
    };
}
pub(crate) use record;

/// A document root: a record declared `: Report`.
pub trait Report: Field {
    const SCHEMA_ID: &'static str;

    /// One line on what a valid document holds, for `validate-metrics`.
    fn headline(&self) -> String;

    /// Violations of what a document is held to beyond its schema.
    fn invariants(_doc: &Json) -> Vec<String> {
        Vec::new()
    }
}

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
            validate: |doc| {
                let mut errors = from_json::<T>(doc).err().unwrap_or_default();
                errors.extend(T::invariants(doc));
                errors.is_empty().then_some(()).ok_or(errors)
            },
            summary: |doc| from_json::<T>(doc).map(|r| r.headline()).unwrap_or_default(),
        }
    }
}

/// Every report schema, in the order `validate-metrics` lists them.
pub const REPORT_SCHEMAS: &[ReportSchema] = &[
    ReportSchema::of::<crate::report::RunReport>(),
    ReportSchema::of::<crate::report::LegacyRunReport>(),
    ReportSchema::of::<crate::sweep::SweepReport>(),
    ReportSchema::of::<crate::suite::SuiteReport>(),
    ReportSchema::of::<crate::live::LiveReport>(),
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
