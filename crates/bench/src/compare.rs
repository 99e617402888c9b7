//! Baseline comparison for `repro -- bench --compare <baseline.json>`.
//!
//! The whole suite is deterministic, so two runs of the *same* code
//! produce byte-identical `BENCH_eternal.json` documents — any nonzero
//! delta against the committed baseline means the change being tested
//! altered measured behaviour. The comparator parses both documents
//! with a minimal hand-rolled JSON reader (the workspace builds with no
//! external crates), flattens them to `path → value` maps, and reports
//! per-metric deltas; deltas beyond the threshold, missing/extra
//! metrics, schema changes, and string-value changes (state digests)
//! are regressions, and the CI perf job gates on them. Intentional
//! performance changes are recorded by regenerating the committed
//! baseline in the same PR.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default regression threshold: 5.00 % relative change per metric
/// (in hundredths of a percent). Determinism makes same-code runs
/// byte-identical, so even this is generous — it only leaves room for
/// deltas a PR author deems too small to matter.
pub const DEFAULT_THRESHOLD_PCT_X100: i128 = 500;

/// A leaf value of the flattened document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Leaf {
    /// An integer (the suite emits no floats).
    Num(i128),
    /// A string (digests, violation messages).
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl std::fmt::Display for Leaf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Leaf::Num(n) => write!(f, "{n}"),
            Leaf::Str(s) => write!(f, "\"{s}\""),
            Leaf::Bool(b) => write!(f, "{b}"),
            Leaf::Null => write!(f, "null"),
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of document".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string literal")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    }
                }
                0..=0x1f => return Err("unescaped control character in a string".into()),
                other => out.push(other as char),
            }
        }
    }

    fn parse_number(&mut self) -> Result<i128, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b == b'.' || b == b'e' || b == b'E')
        {
            return Err(format!(
                "non-integer number at byte {start} (the suite emits integers only)"
            ));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|_| format!("malformed number at byte {start}"))
    }

    fn parse_value(&mut self, path: &str, out: &mut BTreeMap<String, Leaf>) -> Result<(), String> {
        match self.peek()? {
            b'{' => {
                self.pos += 1;
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    let key = self.parse_string()?;
                    self.expect(b':')?;
                    let child = if path.is_empty() {
                        key
                    } else {
                        format!("{path}.{key}")
                    };
                    self.parse_value(&child, out)?;
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => {
                            return Err(format!("expected ',' or '}}', found {:?}", other as char))
                        }
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(());
                }
                let mut i = 0usize;
                loop {
                    self.parse_value(&format!("{path}[{i}]"), out)?;
                    i += 1;
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => {
                            return Err(format!("expected ',' or ']', found {:?}", other as char))
                        }
                    }
                }
            }
            b'"' => {
                let s = self.parse_string()?;
                out.insert(path.to_string(), Leaf::Str(s));
                Ok(())
            }
            b't' | b'f' => {
                let (word, v): (&[u8], bool) = if self.bytes[self.pos] == b't' {
                    (b"true", true)
                } else {
                    (b"false", false)
                };
                if self.bytes.get(self.pos..self.pos + word.len()) != Some(word) {
                    return Err(format!("malformed literal at byte {}", self.pos));
                }
                self.pos += word.len();
                out.insert(path.to_string(), Leaf::Bool(v));
                Ok(())
            }
            b'n' => {
                if self.bytes.get(self.pos..self.pos + 4) != Some(b"null") {
                    return Err(format!("malformed literal at byte {}", self.pos));
                }
                self.pos += 4;
                out.insert(path.to_string(), Leaf::Null);
                Ok(())
            }
            _ => {
                let n = self.parse_number()?;
                out.insert(path.to_string(), Leaf::Num(n));
                Ok(())
            }
        }
    }
}

/// Parses a JSON document into a flat `dotted.path[index] → leaf` map.
pub fn flatten(text: &str) -> Result<BTreeMap<String, Leaf>, String> {
    let mut cur = Cursor {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let mut out = BTreeMap::new();
    cur.parse_value("", &mut out)?;
    cur.skip_ws();
    if cur.pos != cur.bytes.len() {
        return Err(format!("trailing garbage at byte {}", cur.pos));
    }
    Ok(out)
}

/// One changed metric.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Flattened metric path.
    pub metric: String,
    /// Baseline value.
    pub baseline: Leaf,
    /// Current value.
    pub current: Leaf,
    /// Relative change in hundredths of a percent (numeric metrics
    /// only; `None` for type/string changes).
    pub delta_pct_x100: Option<i128>,
}

/// The comparison result.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Every metric that differs, in path order.
    pub deltas: Vec<Delta>,
    /// Metrics in the baseline but not the current run.
    pub missing: Vec<String>,
    /// Metrics in the current run but not the baseline.
    pub added: Vec<String>,
    /// Human-readable regressions (threshold breaches, schema drift);
    /// nonempty fails the gate.
    pub regressions: Vec<String>,
}

impl CompareReport {
    /// Whether the current run is within threshold of the baseline.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the per-metric delta table (empty string when nothing
    /// changed).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.deltas.is_empty() && self.missing.is_empty() && self.added.is_empty() {
            out.push_str("bench compare: no deltas — current run matches the baseline exactly\n");
            return out;
        }
        let _ = writeln!(
            out,
            "{:<55} {:>16} {:>16} {:>9}",
            "metric", "baseline", "current", "delta"
        );
        for d in &self.deltas {
            let delta = match d.delta_pct_x100 {
                Some(pct) => format!(
                    "{}{}.{:02}%",
                    if pct >= 0 { "+" } else { "-" },
                    pct.abs() / 100,
                    pct.abs() % 100
                ),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<55} {:>16} {:>16} {:>9}",
                d.metric,
                d.baseline.to_string(),
                d.current.to_string(),
                delta
            );
        }
        for m in &self.missing {
            let _ = writeln!(out, "{m:<55} (missing from current run)");
        }
        for m in &self.added {
            let _ = writeln!(out, "{m:<55} (not in baseline)");
        }
        out
    }
}

/// Relative change of `cur` vs `base` in hundredths of a percent.
fn pct_x100(base: i128, cur: i128) -> i128 {
    (cur - base).saturating_mul(10_000) / base.abs().max(1)
}

/// Compares a current suite document against a baseline. `threshold`
/// is the allowed relative change per numeric metric, in hundredths of
/// a percent. Identity keys (`schema`, `seed`, `quick`) and string
/// values must match exactly; structural drift is always a regression.
pub fn compare(baseline: &str, current: &str, threshold: i128) -> Result<CompareReport, String> {
    let base = flatten(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur = flatten(current).map_err(|e| format!("current: {e}"))?;
    let mut report = CompareReport::default();
    for (path, bv) in &base {
        let Some(cv) = cur.get(path) else {
            report.missing.push(path.clone());
            report.regressions.push(format!(
                "{path}: present in baseline, missing from current run"
            ));
            continue;
        };
        if bv == cv {
            continue;
        }
        let exact = path == "schema" || path == "seed" || path == "quick";
        let pct = match (bv, cv) {
            (Leaf::Num(b), Leaf::Num(c)) => Some(pct_x100(*b, *c)),
            _ => None,
        };
        report.deltas.push(Delta {
            metric: path.clone(),
            baseline: bv.clone(),
            current: cv.clone(),
            delta_pct_x100: pct,
        });
        match pct {
            Some(p) if !exact => {
                if p.abs() > threshold {
                    report.regressions.push(format!(
                        "{path}: {bv} -> {cv} ({}.{:02}% > {}.{:02}% threshold)",
                        p.abs() / 100,
                        p.abs() % 100,
                        threshold / 100,
                        threshold % 100
                    ));
                }
            }
            _ => {
                // Identity keys and non-numeric leaves admit no drift.
                report
                    .regressions
                    .push(format!("{path}: {bv} -> {cv} (must match exactly)"));
            }
        }
    }
    for path in cur.keys() {
        if !base.contains_key(path) {
            report.added.push(path.clone());
            report.regressions.push(format!(
                "{path}: not in baseline (regenerate the baseline?)"
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "schema": 3,
  "seed": 42,
  "a": {"frames": 100, "wire_bytes": 2000, "digest": "12345"},
  "list": [{"x": 1}, {"x": 2}],
  "ok": true,
  "violations": []
}"#;

    #[test]
    fn flatten_walks_objects_arrays_and_scalars() {
        let m = flatten(DOC).expect("parses");
        assert_eq!(m.get("schema"), Some(&Leaf::Num(3)));
        assert_eq!(m.get("a.frames"), Some(&Leaf::Num(100)));
        assert_eq!(m.get("a.digest"), Some(&Leaf::Str("12345".into())));
        assert_eq!(m.get("list[1].x"), Some(&Leaf::Num(2)));
        assert_eq!(m.get("ok"), Some(&Leaf::Bool(true)));
    }

    #[test]
    fn flatten_rejects_malformed_documents() {
        assert!(flatten("{\"a\": }").is_err());
        assert!(flatten("{\"a\": 1} trailing").is_err());
        assert!(flatten("{\"a\": 1.5}").is_err(), "floats are rejected");
    }

    /// Violation details are free text: whatever they contain, the
    /// chaos and explore exports stay strict JSON and give it back.
    #[test]
    fn hostile_violation_details_survive_the_exports() {
        use eternal::chaos::{run_campaign, CampaignConfig};
        use eternal::explore::{run_explore, ExploreConfig};
        const DETAIL: &str = "\"\\\n\t\u{1}";
        let detail_at = |json: String, path: &str| flatten(&json).expect("parses").remove(path);
        assert!(flatten("{\"a\": \"\n\"}").is_err(), "raw control character");

        let mut cfg = CampaignConfig::default();
        (cfg.steps, cfg.force_violation) = (1, true);
        let mut summary = run_campaign(&cfg);
        summary.violations[0].detail = DETAIL.into();
        let got = detail_at(summary.to_json(), "violations[0].detail");
        assert_eq!(got, Some(Leaf::Str(DETAIL.into())));

        let mut cfg = ExploreConfig::default();
        (cfg.budget, cfg.steps, cfg.force_violation) = (64, 1, true);
        let mut report = run_explore(&cfg);
        report.counterexample.as_mut().expect("planted").violations[0].detail = DETAIL.into();
        let got = detail_at(report.to_json(), "counterexample.violations[0].detail");
        assert_eq!(got, Some(Leaf::Str(DETAIL.into())));
    }

    #[test]
    fn identical_documents_compare_clean() {
        let r = compare(DOC, DOC, DEFAULT_THRESHOLD_PCT_X100).expect("compares");
        assert!(r.passed());
        assert!(r.deltas.is_empty());
        assert!(r.render().contains("no deltas"));
    }

    #[test]
    fn small_drift_reports_but_passes_large_drift_fails() {
        let near = DOC.replace("\"frames\": 100", "\"frames\": 103");
        let r = compare(DOC, &near, DEFAULT_THRESHOLD_PCT_X100).expect("compares");
        assert!(r.passed(), "{:?}", r.regressions);
        assert_eq!(r.deltas.len(), 1);
        assert_eq!(r.deltas[0].delta_pct_x100, Some(300));

        let far = DOC.replace("\"wire_bytes\": 2000", "\"wire_bytes\": 3000");
        let r = compare(DOC, &far, DEFAULT_THRESHOLD_PCT_X100).expect("compares");
        assert!(!r.passed());
        assert!(r.regressions[0].contains("wire_bytes"));
    }

    #[test]
    fn digest_and_schema_changes_always_fail() {
        let digest = DOC.replace("\"12345\"", "\"54321\"");
        assert!(!compare(DOC, &digest, 10_000).expect("compares").passed());
        let schema = DOC.replace("\"schema\": 3", "\"schema\": 2");
        assert!(!compare(DOC, &schema, 10_000).expect("compares").passed());
    }

    #[test]
    fn missing_and_added_metrics_always_fail() {
        let dropped = DOC.replace("\n  \"ok\": true,", "");
        assert_ne!(dropped, DOC, "the key must actually be removed");
        let r = compare(DOC, &dropped, 10_000).expect("compares");
        assert!(!r.passed());
        assert_eq!(r.missing, vec!["ok".to_string()]);
        let r = compare(&dropped, DOC, 10_000).expect("compares");
        assert!(!r.passed());
        assert_eq!(r.added, vec!["ok".to_string()]);
    }
}
