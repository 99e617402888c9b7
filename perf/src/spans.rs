//! The traced pass's span store: spans are kept in memory while the
//! benchmark runs and written once, at exit, as a Chrome trace-event
//! file (`chrome://tracing`, <https://ui.perfetto.dev>).

use crate::workloads::StepHook;
use eternal_sim::{Duration, SimTime};
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `eternal.step`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Id of the span that caused this one (0 = none). A span's id is
    /// its index + 1.
    pub parent: u32,
    /// The round the span belongs to (0 for probe batches).
    pub round: u32,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        round: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            round,
        });
        self.spans.len() as u32
    }

    /// Opens a span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, round: u32) -> u32 {
        let now = self.now_ns();
        self.push(name, now, now, parent, round)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as Chrome trace events. `keep` selects the
    /// spans to write: the statistics use every span, but a file with
    /// a million `eternal.step` events opens in no viewer.
    pub fn write_chrome(
        &self,
        path: &std::path::Path,
        keep: impl Fn(&Span) -> bool,
    ) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        let mut written = 0usize;
        for (i, s) in self.spans.iter().enumerate() {
            if !keep(s) {
                continue;
            }
            if written > 0 {
                out.write_all(b",\n")?;
            }
            // Span names are literals from this package: no escaping.
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"round\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1_000.0,
                (s.end_ns - s.start_ns) as f64 / 1_000.0,
                i + 1,
                s.parent,
                s.round,
            )?;
            written += 1;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()?;
        Ok(written)
    }
}

/// The per-event hook of an instrumented round: tracks the longest
/// virtual interval without a reply (the outage a client sees) and,
/// when given a tracer, records one span per simulator event.
pub struct StepRecorder<'a> {
    tracer: Option<&'a mut Tracer>,
    name: &'static str,
    parent: u32,
    round: u32,
    started_ns: u64,
    armed: bool,
    last_replies: u64,
    last_reply_at: SimTime,
    max_gap: Duration,
}

impl<'a> StepRecorder<'a> {
    /// A recorder for one round. With a tracer, each event becomes a
    /// span called `name` under `parent`.
    pub fn new(
        tracer: Option<&'a mut Tracer>,
        name: &'static str,
        parent: u32,
        round: u32,
    ) -> Self {
        StepRecorder {
            tracer,
            name,
            parent,
            round,
            started_ns: 0,
            armed: false,
            last_replies: 0,
            last_reply_at: SimTime::ZERO,
            max_gap: Duration::ZERO,
        }
    }

    /// Longest virtual interval between consecutive replies (or from
    /// the start of the timed region to the first) that ended after
    /// the last [`StepHook::arm`].
    pub fn max_reply_gap(&self) -> Duration {
        self.max_gap
    }
}

impl StepHook for StepRecorder<'_> {
    fn before(&mut self) {
        if let Some(t) = &self.tracer {
            self.started_ns = t.now_ns();
        }
    }

    fn after(&mut self, now: SimTime, replies: u64) {
        if let Some(t) = self.tracer.as_deref_mut() {
            let end = t.now_ns();
            t.push(self.name, self.started_ns, end, self.parent, self.round);
        }
        if replies > self.last_replies {
            self.last_replies = replies;
            self.max_gap = self.max_gap.max(now - self.last_reply_at);
            self.last_reply_at = now;
        }
    }

    fn arm(&mut self, now: SimTime) {
        // The first call is the start of the timed region. A later one
        // is an injected kill: gaps that ended before it are forgotten,
        // the gap that spans it counts from the last reply before it.
        if !self.armed {
            self.armed = true;
            self.last_reply_at = now;
        }
        self.max_gap = Duration::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_parents_and_file_shape() {
        let mut t = Tracer::new();
        let round = t.open("harness.round", 0, 1);
        let step = t.push("eternal.step", 10, 25, round, 1);
        t.close(round);
        assert_eq!((round, step), (1, 2));
        assert_eq!(t.spans()[1].parent, round);
        assert!(t.spans()[0].end_ns >= t.spans()[0].start_ns);

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("t.json");
        let n = t.write_chrome(&path, |s| s.name != "eternal.step").unwrap();
        assert_eq!(n, 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert!(text.contains("\"name\":\"harness.round\"") && !text.contains("eternal.step"));
        assert!(text.trim_end().ends_with("]}"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn outage_is_the_longest_reply_gap_after_the_last_arm() {
        let at = |us: u64| SimTime::from_nanos(us * 1_000);
        let mut r = StepRecorder::new(None, "eternal.step", 0, 1);
        r.arm(at(100));
        r.after(at(150), 0);
        r.after(at(400), 1); // 300 µs to the first reply
        r.after(at(500), 2);
        assert_eq!(r.max_reply_gap(), Duration::from_micros(300));
        r.arm(at(550)); // kill: earlier gaps forgotten
        r.after(at(560), 2);
        r.after(at(1_500), 3); // spans the kill: counts from 500
        r.after(at(1_600), 5);
        assert_eq!(r.max_reply_gap(), Duration::from_micros(1_000));
    }
}
