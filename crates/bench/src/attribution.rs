//! The `repro -- attribution` runner: one traced workload decomposed
//! into per-request latency attributions, rendered as the
//! byte-deterministic `ATTRIB_eternal.json` document plus the
//! human-readable where-does-the-time-go report.
//!
//! Document schema (`docs/ATTRIBUTION.md` has the field-by-field spec):
//!
//! ```text
//! {
//!   "schema": 2,
//!   "seed": …, "final_time_ns": …,
//!   "requests": …,
//!   "incomplete_rooted_at_replay": …, "incomplete_missing_parent": …,
//!   "non_monotone_chains": …, "span_collisions": …, "dropped_events": …,
//!   "phases": [ {phase, count, total_ns, p50_ns, p99_ns, max_ns} … ],
//!   "rtt":    { count, total_ns, p50_ns, p99_ns, max_ns },
//!   "top":    [ {trace_id, client_node, started_at_ns, rtt_ns,
//!                dominant, phases{…}, hops} … ],
//!   "violations": [ … ],
//!   "passed": true | false
//! }
//! ```
//!
//! Exit policy (mirrored by `repro`): at least one request must have
//! been attributed, every attributed request must tile exactly, and no
//! two recorded hops may share a derived span id — any tiling violation
//! or span collision fails the run. Same seed → byte-identical
//! document; every `top` entry's phase values sum to its `rtt_ns`, so
//! external validators can recheck the tiling from the JSON alone.

use eternal::app::{AppInvocation, ClientApp, CounterServant, KvStoreServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::gid::GroupId;
use eternal::properties::FaultToleranceProperties;
use eternal_cdr::{Any, Value};
use eternal_giop::ReplyStatus;
use eternal_obs::attribution::{attribute, AttributionReport, Phase};
use eternal_obs::export::{JsonWriter, Layout};
use eternal_obs::LogHistogram;
use eternal_sim::Duration;

/// A client whose `put` values span several Totem fragments, so the
/// attribution's critical-path rule (reassembly completes at the
/// *last* fragment's delivery) is exercised by real traffic, not just
/// unit fixtures. Deterministic: keys rotate over a small set, values
/// are a fixed 3000-byte pattern (two to three frames on the default
/// network).
#[derive(Debug)]
struct FragPutClient {
    server: GroupId,
    sent: u64,
    received: u64,
    limit: u64,
}

impl FragPutClient {
    fn new(server: GroupId, limit: u64) -> Self {
        FragPutClient {
            server,
            sent: 0,
            received: 0,
            limit,
        }
    }

    fn next(&mut self) -> AppInvocation {
        self.sent += 1;
        let key = format!("k{}", self.sent % 7);
        let value = "x".repeat(3_000);
        AppInvocation {
            server: self.server,
            operation: "put".to_owned(),
            args: KvStoreServant::put_args(&key, &value),
            response_expected: true,
        }
    }
}

impl ClientApp for FragPutClient {
    fn on_start(&mut self) -> Vec<AppInvocation> {
        vec![self.next(), self.next()]
    }

    fn on_reply(
        &mut self,
        _server: GroupId,
        _operation: &str,
        _status: ReplyStatus,
        _body: &[u8],
    ) -> Vec<AppInvocation> {
        self.received += 1;
        if self.received >= self.limit {
            return Vec::new();
        }
        vec![self.next()]
    }

    fn get_state(&self) -> Any {
        Any::from(Value::Struct(vec![
            Value::ULongLong(self.sent),
            Value::ULongLong(self.received),
        ]))
    }

    fn set_state(&mut self, state: &Any) {
        if let Value::Struct(m) = &state.value {
            if let [Value::ULongLong(sent), Value::ULongLong(received)] = m.as_slice() {
                self.sent = *sent;
                self.received = *received;
            }
        }
    }
}

/// The result of one attribution run.
#[derive(Debug, Clone)]
pub struct AttributionRun {
    /// `ATTRIB_eternal.json` contents (trailing newline included).
    pub json: String,
    /// The human-readable phase table + slowest-requests report.
    pub report: String,
    /// One-line human summary.
    pub summary: String,
    /// Whether the run met its exit policy (see module docs).
    pub passed: bool,
    /// The full decomposition, for callers that gate on phase
    /// percentiles (the bench suite's `attribution_overhead` section).
    pub attribution: AttributionReport,
}

/// How many slowest requests the JSON `top` array and the text report
/// carry.
pub const TOP_K: usize = 10;

/// Runs the attribution workload and renders its documents.
///
/// The scenario is the causal-tracing workload widened to cover every
/// phase: a streaming counter client (small single-fragment requests),
/// a fragmenting KV client (multi-fragment requests), and a mid-run
/// replica kill so a recovering replica's holding queue sees traffic.
pub fn attribution_run(seed: u64) -> AttributionRun {
    let config = ClusterConfig {
        trace: true,
        // Large enough that no span of this workload is evicted: an
        // evicted parent would surface as an incomplete chain and
        // understate the report.
        causal_capacity: 1 << 18,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config, seed);
    let counter = cluster.deploy_server(
        "attrib-counter",
        FaultToleranceProperties::active(3),
        || Box::new(CounterServant::default()),
    );
    let kv = cluster.deploy_server("attrib-kv", FaultToleranceProperties::active(2), || {
        Box::new(KvStoreServant::default())
    });
    let driver = cluster.deploy_client(
        "attrib-driver",
        FaultToleranceProperties::active(2),
        move |_| Box::new(StreamingClient::new(counter, "increment", 4)),
    );
    cluster.deploy_client(
        "attrib-frag-driver",
        FaultToleranceProperties::active(1),
        move |_| Box::new(FragPutClient::new(kv, 400)),
    );
    cluster.run_until_deployed();
    cluster.run_for(Duration::from_millis(40));

    // Kill one counter replica (server-side recovery: state transfer
    // rides the same totally ordered ring as the traffic) and one
    // streaming-client replica: the client's replacement *holds* the
    // replies delivered mid-recovery and replays them after set_state,
    // so the hold-residency phase appears on real reply-match chains.
    let victim = cluster.hosting(counter)[0];
    cluster.kill_replica(counter, victim);
    let client_victim = cluster.hosting(driver)[0];
    cluster.kill_replica(driver, client_victim);
    cluster.run_for(Duration::from_millis(120));

    let report = attribute(cluster.causal());
    let passed =
        !report.requests.is_empty() && report.violations.is_empty() && report.span_collisions == 0;
    let json = render_json(&report, seed, cluster.now().as_nanos(), passed);
    let text = report.render_text(TOP_K);
    let summary = format!(
        "attribution: seed={seed} requests={} rooted_at_replay={} missing_parent={} \
         non_monotone={} collisions={} dropped={} violations={} verdict={}",
        report.requests.len(),
        report.rooted_at_replay,
        report.missing_parent,
        report.non_monotone_chains,
        report.span_collisions,
        report.dropped_events,
        report.violations.len(),
        if passed { "PASS" } else { "FAIL" }
    );
    AttributionRun {
        json,
        report: text,
        summary,
        passed,
        attribution: report,
    }
}

/// The `count` … `max_ns` members shared by the `phases` rows and `rtt`.
fn histogram_fields(w: &mut JsonWriter, h: &LogHistogram) {
    w.field("count", h.count())
        .field("total_ns", h.sum_nanos())
        .field("p50_ns", h.percentile(50.0).as_nanos())
        .field("p99_ns", h.percentile(99.0).as_nanos())
        .field("max_ns", h.max().as_nanos());
}

fn render_json(report: &AttributionReport, seed: u64, final_time_ns: u64, passed: bool) -> String {
    let mut w = JsonWriter::default();
    w.object(Layout::Block)
        .field("schema", 2)
        .field("seed", seed)
        .field("final_time_ns", final_time_ns)
        .field("requests", report.requests.len())
        .field("incomplete_rooted_at_replay", report.rooted_at_replay)
        .field("incomplete_missing_parent", report.missing_parent)
        .field("non_monotone_chains", report.non_monotone_chains)
        .field("span_collisions", report.span_collisions)
        .field("dropped_events", report.dropped_events)
        .key("phases")
        .array(Layout::Block);
    for phase in Phase::ALL {
        w.object(Layout::Spaced).field_str("phase", phase.name());
        histogram_fields(&mut w, &report.phase_histograms[phase.index()]);
        w.end();
    }
    w.end().key("rtt").object(Layout::Spaced);
    histogram_fields(&mut w, &report.rtt_histogram);
    w.end().key("top").array(Layout::Block);
    for r in report.top_k(TOP_K) {
        w.object(Layout::Spaced)
            .field("trace_id", r.trace_id)
            .field("client_node", r.client_node)
            .field("started_at_ns", r.started_at.as_nanos())
            .field("rtt_ns", r.rtt.as_nanos())
            .field_str("dominant", r.dominant().name())
            .key("phases")
            .object(Layout::Spaced);
        for phase in Phase::ALL {
            w.field(phase.name(), r.phase_ns[phase.index()]);
        }
        w.end().field("hops", r.hops).end();
    }
    w.end().key("violations").array(Layout::Block);
    for v in &report.violations {
        w.string(v);
    }
    w.end().field("passed", passed).end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_run_passes_and_is_deterministic() {
        let a = attribution_run(42);
        assert!(a.passed, "{}", a.summary);
        let b = attribution_run(42);
        assert_eq!(a.json, b.json, "same seed must render byte-identically");
        // The JSON carries the tiling evidence: every top entry's
        // phases sum to its rtt (spot-checked here; CI rechecks from
        // the file).
        assert!(a.json.contains("\"passed\": true"));
        // The killed client replica's replacement held replies
        // mid-recovery; their replay must surface as hold residency.
        let hold_line = a
            .json
            .lines()
            .find(|l| l.contains("\"phase\": \"hold_residency\""))
            .expect("hold_residency phase rendered");
        assert!(
            !hold_line.contains("\"max_ns\": 0}"),
            "workload never exercised the holding queue: {hold_line}"
        );
    }

    #[test]
    fn fragmented_requests_are_attributed() {
        let run = attribution_run(7);
        // The KV client's 3000-byte puts span several fragments; the
        // report must still tile them exactly (passed implies zero
        // violations) and attribute a nonzero wire phase somewhere.
        assert!(run.passed, "{}", run.summary);
        assert!(run.json.contains("\"phase\": \"wire_retransmit\""));
    }
}
