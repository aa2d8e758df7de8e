//! Rendering: aligned text tables and CSV writers for the reproduction
//! harness.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Render an aligned text table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    for r in rows {
        assert_eq!(r.len(), cols, "row width must match header width");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, cell) in r.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{:<width$}", cell, width = widths[i]);
        }
        // No trailing spaces.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    write_row(&mut out, &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    write_row(&mut out, &sep);
    for r in rows {
        write_row(&mut out, r);
    }
    out
}

/// Render rows as CSV (naive quoting: fields containing commas or quotes
/// are quoted with doubled quotes).
pub fn render_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let esc = |f: &str| {
        if f.contains(',') || f.contains('"') || f.contains('\n') {
            format!("\"{}\"", f.replace('"', "\"\""))
        } else {
            f.to_string()
        }
    };
    out.push_str(&headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for r in rows {
        out.push_str(&r.iter().map(|f| esc(f)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Write a string to `dir/name`, creating `dir` if needed.
///
/// The write is atomic: content lands in `name.tmp` first and is renamed
/// into place, so a run killed mid-write can never leave a truncated
/// artifact — readers see either the old file or the complete new one.
pub fn write_output(dir: &Path, name: &str, content: &str) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    write_atomic(&dir.join(name), content)
}

/// Atomically replace `path` with `content` (write `path.tmp`, rename).
pub fn write_atomic(path: &Path, content: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    fs::write(&tmp, content)?;
    fs::rename(&tmp, path)
}

/// The one way a schema'd report (`results/*.json`) reaches disk: the
/// report's document is validated as its own type `R` (decode plus
/// [`obs::schema::Report::invariants`], [`obs::schema::validate_as`]) and
/// then written atomically as its `pretty()` text, which ends in exactly
/// one newline; missing parent directories are created. An invalid
/// report is refused with every violation in the error, one per line, and
/// nothing is written.
pub fn write_report<R: obs::schema::Report>(path: &Path, report: &R) -> io::Result<()> {
    let doc = report.write();
    if let Err(violations) = obs::schema::validate_as::<R>(&doc) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "refusing to write an invalid report — {} violation(s):\n  {}",
                violations.len(),
                violations.join("\n  ")
            ),
        ));
    }
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)?;
    }
    write_atomic(path, &doc.pretty())
}

/// Format a count with thousands separators (for paper-style tables).
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Format a share as a percentage with two decimals.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["Month", "#Attacks"],
            &[vec!["2020-11".into(), "2,550".into()], vec!["2020-12".into(), "3,876".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Month"));
        assert!(lines[1].starts_with("-------"));
        assert!(lines[2].contains("2,550"));
        // Columns aligned: '#Attacks' column starts at same offset.
        let off = lines[0].find("#Attacks").unwrap();
        assert_eq!(&lines[2][off..off + 1], "2");
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn csv_escaping() {
        let c = render_csv(
            &["name", "note"],
            &[vec!["TransIP B.V.".into(), "hello, \"world\"".into()]],
        );
        assert_eq!(c.lines().nth(1).unwrap(), "TransIP B.V.,\"hello, \"\"world\"\"\"");
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(4_039_485), "4,039,485");
        assert_eq!(fmt_count(48_858), "48,858");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(fmt_pct(0.0121), "1.21%");
        assert_eq!(fmt_pct(1.0), "100.00%");
    }

    #[test]
    fn write_output_creates_dir() {
        let dir = std::env::temp_dir().join(format!("dnsimpact-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_output(&dir, "x.csv", "a,b\n").unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("x.csv")).unwrap(), "a,b\n");
        assert!(!dir.join("x.csv.tmp").exists(), "temp file renamed away");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_replaces_existing() {
        let dir =
            std::env::temp_dir().join(format!("dnsimpact-report-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.csv");
        write_atomic(&path, "old\n").unwrap();
        write_atomic(&path, "new\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new\n");
        assert!(!dir.join("f.csv.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
