//! The one JSON writer behind every artefact, plus the Prometheus text
//! exposition of a metrics registry.
//!
//! [`JsonWriter`] streams a document into a `String`: it owns string
//! escaping, comma placement and the three container layouts the
//! artefacts use ([`Layout`]). There is no value tree and no reader —
//! artefacts are compared as bytes (`repro -- fingerprint`), never
//! parsed back. Times are integer nanoseconds of virtual time.

use crate::metrics::MetricsRegistry;
use std::fmt::{self, Display, Write as _};

/// How a container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented two spaces per open container; a
    /// document's outermost block ends with a newline.
    Block,
    /// One line, a space after each `:` and `,` — `{"a": 1, "b": 2}`.
    Spaced,
    /// One line, no spaces — `{"a":1,"b":2}`.
    Compact,
}

/// Streaming JSON writer. Callers open containers, write members in
/// document order and close what they opened. Keys and
/// [`JsonWriter::string`]s are escaped; [`JsonWriter::value`] takes what
/// is already JSON (a number, `true`, `null`, a rendered object).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Open containers, innermost last: (layout, closer, has members).
    open: Vec<(Layout, char, bool)>,
    /// A key is written and its value is due: no separator before it.
    after_key: bool,
}

impl JsonWriter {
    /// Opens an object as the next element.
    pub fn object(&mut self, layout: Layout) -> &mut Self {
        self.container(layout, '{', '}')
    }

    /// Opens an array as the next element.
    pub fn array(&mut self, layout: Layout) -> &mut Self {
        self.container(layout, '[', ']')
    }

    fn container(&mut self, layout: Layout, open: char, close: char) -> &mut Self {
        self.element();
        self.out.push(open);
        self.open.push((layout, close, false));
        self
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) -> &mut Self {
        let (layout, close, _) = self.open.pop().expect("end() without an open container");
        if layout == Layout::Block {
            self.newline();
        }
        self.out.push(close);
        if layout == Layout::Block && self.open.is_empty() {
            self.out.push('\n');
        }
        self
    }

    /// Writes an object member's key; its value is the next element.
    pub fn key(&mut self, name: impl Display) -> &mut Self {
        self.string(name);
        self.out.push(':');
        if !matches!(self.open.last(), Some((Layout::Compact, ..))) {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    /// Writes `v` verbatim as the next element.
    pub fn value(&mut self, v: impl Display) -> &mut Self {
        self.element();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes `s` as a quoted, escaped string.
    pub fn string(&mut self, s: impl Display) -> &mut Self {
        self.element();
        self.out.push('"');
        let _ = write!(Escaped(&mut self.out), "{s}");
        self.out.push('"');
        self
    }

    /// `key(name)` then `value(v)`.
    pub fn field(&mut self, name: impl Display, v: impl Display) -> &mut Self {
        self.key(name).value(v)
    }

    /// `key(name)` then `string(s)`.
    pub fn field_str(&mut self, name: impl Display, s: impl Display) -> &mut Self {
        self.key(name).string(s)
    }

    /// The finished document.
    pub fn finish(self) -> String {
        assert!(self.open.is_empty(), "finish() with an open container");
        self.out
    }

    /// Separator and line break due before the next element.
    fn element(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let Some((layout, _, members)) = self.open.last_mut() else {
            return;
        };
        let (layout, first) = (*layout, !std::mem::replace(members, true));
        if !first {
            self.out.push(',');
        }
        match layout {
            Layout::Block => self.newline(),
            Layout::Spaced if !first => self.out.push(' '),
            _ => {}
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }
}

/// Escapes what is written through it for a JSON string literal.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                '\t' => self.0.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(self.0, "\\u{:04x}", c as u32)?,
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

/// Sanitizes a dotted metric name into the Prometheus exposition
/// grammar (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other separators
/// become underscores.
fn prometheus_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Renders a registry snapshot in the Prometheus text exposition
/// format: counters and gauges as single samples, histograms as
/// summaries (`{quantile="…"}` samples plus `_sum`/`_count`). Dots in
/// metric names become underscores. Deterministic: the registry's
/// iteration order is sorted, and values are integers of virtual-time
/// nanoseconds.
pub fn registry_to_prometheus(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, value) in registry.counters() {
        let n = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {n} counter\n{n} {value}");
    }
    for (name, value) in registry.gauges() {
        let n = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge\n{n} {value}");
    }
    for (name, h) in registry.histograms() {
        let n = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {n} summary");
        for (q, v) in [("0.5", h.p50()), ("0.95", h.p95()), ("0.99", h.p99())] {
            let _ = writeln!(out, "{n}{{quantile=\"{q}\"}} {}", v.as_nanos());
        }
        let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum_nanos(), h.count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::Layout::{Block, Compact, Spaced};
    use super::*;
    use crate::time::Duration;

    fn string(s: &str) -> String {
        let mut w = JsonWriter::default();
        w.string(s);
        w.finish()
    }

    #[test]
    fn escape_covers_specials() {
        assert_eq!(string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(string("\r\t"), r#""\r\t""#);
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("naïve → 日本"), "\"naïve → 日本\"");
        for c in (0..0x20u8).filter(|c| !b"\n\r\t".contains(c)) {
            let got = string(&char::from(c).to_string());
            assert_eq!(got, format!("\"\\u{c:04x}\""), "control {c:#x}");
        }
        // Keys go through the same escaper; Display values are escaped
        // as they are formatted.
        let mut w = JsonWriter::default();
        w.object(Compact)
            .field_str("k\"", format_args!("{}\n", 1))
            .end();
        assert_eq!(w.finish(), r#"{"k\"":"1\n"}"#);
    }

    /// One, two and no members in every layout: the first member takes
    /// no comma, the last none after it.
    #[test]
    fn commas_and_empties_in_each_layout() {
        let render = |layout, n: u64| {
            let mut w = JsonWriter::default();
            w.object(layout);
            for i in 0..n {
                w.field(format_args!("k{i}"), i);
            }
            w.key("a").array(layout);
            for i in 0..n {
                w.value(i);
            }
            w.end().end();
            w.finish()
        };
        assert_eq!(render(Compact, 0), r#"{"a":[]}"#);
        assert_eq!(render(Compact, 1), r#"{"k0":0,"a":[0]}"#);
        assert_eq!(render(Compact, 2), r#"{"k0":0,"k1":1,"a":[0,1]}"#);
        assert_eq!(render(Spaced, 0), r#"{"a": []}"#);
        assert_eq!(render(Spaced, 2), r#"{"k0": 0, "k1": 1, "a": [0, 1]}"#);
        assert_eq!(render(Block, 0), "{\n  \"a\": [\n  ]\n}\n");
        assert_eq!(
            render(Block, 2),
            "{\n  \"k0\": 0,\n  \"k1\": 1,\n  \"a\": [\n    0,\n    1\n  ]\n}\n"
        );
        for (layout, want) in [(Compact, "{}"), (Spaced, "{}"), (Block, "{\n}\n")] {
            let mut w = JsonWriter::default();
            w.object(layout).end();
            assert_eq!(w.finish(), want);
        }
    }

    #[test]
    fn block_nests_inline_nests_compact() {
        let mut w = JsonWriter::default();
        w.object(Block).field("schema", 1).key("rows").array(Block);
        for i in 0..2 {
            w.object(Spaced).field("i", i).key("snap").object(Compact);
            w.field("n", i).key("d").array(Compact);
            w.array(Compact).value(0).value(i).end();
            w.end().end().end();
        }
        w.end().key("inner").object(Block).field("null", "null");
        w.end().key("flags").array(Spaced).string("a").string("b");
        w.end().end();
        assert_eq!(
            w.finish(),
            r#"{
  "schema": 1,
  "rows": [
    {"i": 0, "snap": {"n":0,"d":[[0,0]]}},
    {"i": 1, "snap": {"n":1,"d":[[0,1]]}}
  ],
  "inner": {
    "null": null
  },
  "flags": ["a", "b"]
}
"#
        );
    }

    #[test]
    #[should_panic(expected = "open container")]
    fn finish_rejects_an_unclosed_document() {
        let mut w = JsonWriter::default();
        w.object(Block);
        w.finish();
    }

    #[test]
    fn prometheus_exposition_covers_all_types() {
        let mut r = MetricsRegistry::new();
        r.counter_add("totem.broadcasts", 7);
        r.gauge_set("eternal.holding_depth", 3);
        r.histogram_record("orb.round_trip", Duration::from_micros(10));
        let text = registry_to_prometheus(&r);
        assert!(text.contains("# TYPE totem_broadcasts counter\ntotem_broadcasts 7\n"));
        assert!(text.contains("# TYPE eternal_holding_depth gauge\neternal_holding_depth 3\n"));
        assert!(text.contains("# TYPE orb_round_trip summary"));
        assert!(text.contains("orb_round_trip{quantile=\"0.5\"} 10000"));
        assert!(text.contains("orb_round_trip_sum 10000\norb_round_trip_count 1\n"));
        assert_eq!(prometheus_name("9lives.x-y"), "_9lives_x_y");
    }
}
