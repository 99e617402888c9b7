//! Per-layer probes: tight loops into one public function of one
//! layer, on inputs of the workload's own sizes, reporting ns per call
//! and allocations per call. They price the steps of a request from
//! the outside; what they leave unexplained (`harness.explained_share`)
//! is what spans inside the crates must later account for.

use crate::alloc::AllocSnapshot;
use crate::gen::KvOp;
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{self, Counts, Input, Virtual, Workload};
use eternal::causal::HopCtx;
use eternal::gid::{ConnectionName, Direction, GroupId, TransferId};
use eternal::mechanisms::{GroupKind, GroupMeta, MechConfig, Mechanisms, Out};
use eternal::message::{fragment_eternal, EternalMessage, EternalReassembler};
use eternal::properties::FaultToleranceProperties;
use eternal_cdr::{Any, CdrDecoder, CdrEncoder, Endian};
use eternal_giop::{GiopMessage, RequestMessage, ServiceContextList};
use eternal_obs::causal::CausalRecorder;
use eternal_orb::{ClientConnection, ObjectKey, Orb, ServerConnection};
use eternal_sim::net::{NetworkConfig, NetworkModel, NodeId};
use eternal_sim::{Scheduler, SimTime};
use eternal_totem::{Action, Delivery, Frame, Timer, TotemConfig, TotemNode};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What the probes of one workload produced.
#[derive(Debug, Default)]
pub struct Probed {
    /// `(metric name, value)` for every probe metric of the catalogue.
    pub values: Vec<(&'static str, f64)>,
    /// Call counts and input sizes, for the report.
    pub notes: Vec<String>,
}

impl Probed {
    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// One probe's result.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    ns: f64,
    allocs: f64,
    calls: u64,
}

/// Calls below which a probe keeps going past its time slice (up to
/// four slices), so cheap functions are always measured over ≥ 10 000
/// calls; functions that take milliseconds per call are not.
const MIN_CALLS: u64 = 10_000;

/// Cost of reading the clock twice with nothing in between, subtracted
/// wherever a single call is timed on its own.
fn timer_overhead_ns() -> f64 {
    let mut best = f64::MAX;
    for _ in 0..2_000 {
        let t = Instant::now();
        let d = black_box(t).elapsed().as_nanos() as f64;
        best = best.min(d);
    }
    best
}

/// Runs `call` in chunks until `slice` has passed and reports the
/// fastest chunk (interference only adds time) per call.
fn probe(
    tracer: &mut Tracer,
    span: &'static str,
    slice: Duration,
    quick: bool,
    mut call: impl FnMut(),
) -> Cost {
    let id = tracer.open(span, 0, 0);
    // Size the chunk so that reading the clock is under 1 % of it.
    let mut chunk = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..chunk {
            call();
        }
        if t.elapsed() >= Duration::from_micros(20) || chunk >= 1 << 20 {
            break;
        }
        chunk *= 2;
    }
    let started = Instant::now();
    let allocs0 = AllocSnapshot::now();
    let mut chunks = Vec::new();
    let mut calls = 0u64;
    loop {
        let t = Instant::now();
        for _ in 0..chunk {
            call();
        }
        chunks.push(t.elapsed().as_nanos() as f64 / chunk as f64);
        calls += chunk;
        let elapsed = started.elapsed();
        let enough_calls = calls >= MIN_CALLS || elapsed >= slice * 4;
        if (elapsed >= slice && enough_calls) || (quick && chunks.len() >= 3) {
            break;
        }
    }
    let allocs = AllocSnapshot::now().since(allocs0);
    tracer.close(id);
    Cost {
        ns: stats::fastest(&stats::sorted(chunks)),
        allocs: allocs.calls as f64 / calls as f64,
        calls,
    }
}

/// The workload's shapes: what its requests, strings, servant state
/// and Eternal messages look like.
struct Shapes {
    /// `(operation, CDR arguments)` of representative requests, cycled.
    ops: Vec<(&'static str, Vec<u8>)>,
    /// Index into `ops` of the request of median size.
    median_op: usize,
    /// A string of the workload's typical size.
    string: String,
    /// The servant's application state after one round.
    state: Any,
    /// Payload of the largest Eternal message the workload sends often.
    big_payload: usize,
}

fn shapes(input: &Input) -> Shapes {
    let w = input.workload;
    let mut servant = workloads::new_servant(w);
    let (ops, string): (Vec<(&'static str, Vec<u8>)>, String) = match w {
        Workload::ActiveFrag => {
            let ops: Vec<_> = input
                .kv_ops
                .iter()
                .take(64)
                .map(workloads::kv_call)
                .collect();
            let mut values: Vec<&String> = input
                .kv_ops
                .iter()
                .filter_map(|op| match op {
                    KvOp::Put { value, .. } => Some(value),
                    KvOp::Get { .. } => None,
                })
                .collect();
            values.sort_by_key(|v| v.len());
            (ops, values[values.len() / 2].clone())
        }
        Workload::ActiveSmall | Workload::UnreplicatedRpc => {
            (vec![("increment", Vec::new())], "increment".to_owned())
        }
        Workload::Recovery350Kb | Workload::PassiveFailover => {
            (vec![("touch", Vec::new())], "touch".to_owned())
        }
    };
    // One round's worth of operations, so the state is as large as the
    // state the workload checkpoints or transfers.
    if w == Workload::ActiveFrag {
        for op in input.kv_ops.iter() {
            let (operation, args) = workloads::kv_call(op);
            servant
                .dispatch(operation, &args)
                .expect("generated op executes");
        }
    } else {
        servant.dispatch(ops[0].0, &[]).expect("operation executes");
    }
    let state = servant.get_state().expect("servant has state");
    let mut by_size: Vec<usize> = (0..ops.len()).collect();
    by_size.sort_by_key(|&i| ops[i].1.len());
    let median_op = by_size[by_size.len() / 2];
    let big_payload = match w {
        Workload::ActiveFrag => string.len(),
        Workload::Recovery350Kb => MechConfig::default().chunk_bytes,
        Workload::PassiveFailover => workloads::PASSIVE_STATE_BYTES,
        Workload::ActiveSmall | Workload::UnreplicatedRpc => 0,
    };
    Shapes {
        ops,
        median_op,
        string,
        state,
        big_payload,
    }
}

fn request_message(key: &ObjectKey, id: u32, operation: &str, args: &[u8]) -> GiopMessage {
    GiopMessage::Request(RequestMessage {
        service_context: ServiceContextList::new(),
        request_id: id,
        response_expected: true,
        object_key: key.as_bytes().to_vec(),
        operation: operation.to_owned(),
        body: args.to_vec(),
    })
}

/// Runs every probe of `input`'s workload within about `budget`.
pub fn run(input: &Input, budget: Duration, quick: bool, tracer: &mut Tracer) -> Probed {
    let w = input.workload;
    let cluster_workload = w != Workload::UnreplicatedRpc;
    // Fourteen loops and two closed-loop drivers share the budget.
    let slice = budget / 18;
    let sh = shapes(input);
    let mut out = Probed::default();
    let kb = |bytes: usize| bytes as f64 / 1024.0;

    // ------------------------------------------------------------ sim
    {
        // Events pending at once: one in the baseline's closed loop of
        // one; frames to three receivers plus timers in a cluster.
        let depth: u64 = if cluster_workload { 16 } else { 1 };
        let mut sched: Scheduler<u64> = Scheduler::new();
        let mut t = 0u64;
        for i in 0..depth {
            sched.schedule_at(SimTime::from_nanos(1_000 + i * 37), i);
        }
        let c = probe(tracer, "probe.sim.sched", slice, quick, || {
            let (now, e) = sched.pop().expect("nonempty");
            t = t.wrapping_add(e);
            sched.schedule_at(
                SimTime::from_nanos(now.as_nanos() + 2_400 + (t % 7) * 100),
                e,
            );
        });
        out.values.push(("sim.sched_ns_per_op", c.ns));
        out.notes.push(format!(
            "probe sim.sched: {} schedule_at+pop pairs at depth {depth}",
            c.calls
        ));

        let frame = sh
            .big_payload
            .clamp(96, NetworkConfig::default().frame_payload());
        let nodes = if cluster_workload { 4 } else { 2 };
        let mut net = NetworkModel::new(nodes, NetworkConfig::default(), input.seed);
        let mut now = SimTime::ZERO;
        let c = probe(tracer, "probe.sim.net_multicast", slice, quick, || {
            let d = net.multicast(NodeId(0), frame, now);
            now = d[0].at;
            black_box(d);
        });
        out.values.push(("sim.net_multicast_ns", c.ns));
        out.notes.push(format!(
            "probe sim.net_multicast: {} calls, {frame} B frames, {nodes} nodes",
            c.calls
        ));
    }

    // ------------------------------------------------------------ cdr
    {
        let s = &sh.string;
        let c = probe(tracer, "probe.cdr.string_encode", slice, quick, || {
            let mut enc = CdrEncoder::new(Endian::Big);
            enc.write_string(black_box(s)).expect("no NUL");
            black_box(enc.into_bytes());
        });
        out.values
            .push(("cdr.string_encode_ns_per_kb", c.ns / kb(s.len())));
        let mut enc = CdrEncoder::new(Endian::Big);
        enc.write_string(s).expect("no NUL");
        let encoded = enc.into_bytes();
        let d = probe(tracer, "probe.cdr.string_decode", slice, quick, || {
            let mut dec = CdrDecoder::new(black_box(&encoded), Endian::Big);
            black_box(dec.read_string().expect("decodes"));
        });
        out.values
            .push(("cdr.string_decode_ns_per_kb", d.ns / kb(s.len())));
        out.notes.push(format!(
            "probe cdr.string: {} B string, {} encodes, {} decodes",
            s.len(),
            c.calls,
            d.calls
        ));

        let state = &sh.state;
        let bytes = state.to_bytes().expect("state encodes");
        let c = probe(tracer, "probe.cdr.any_encode", slice, quick, || {
            black_box(black_box(state).to_bytes().expect("state encodes"));
        });
        let d = probe(tracer, "probe.cdr.any_decode", slice, quick, || {
            black_box(Any::from_bytes(black_box(&bytes)).expect("state decodes"));
        });
        out.values
            .push(("cdr.any_encode_ns_per_kb", c.ns / kb(bytes.len())));
        out.values
            .push(("cdr.any_decode_ns_per_kb", d.ns / kb(bytes.len())));
        out.values.push((
            "cdr.any_allocs_per_kb",
            (c.allocs + d.allocs) / kb(bytes.len()),
        ));
        out.notes.push(format!(
            "probe cdr.any: servant state of {} B, {} encodes, {} decodes",
            bytes.len(),
            c.calls,
            d.calls
        ));
    }

    // ----------------------------------------------------------- giop
    let key = ObjectKey::from("server");
    let (median_operation, median_args) = &sh.ops[sh.median_op];
    let request = request_message(&key, 7, median_operation, median_args);
    let request_wire = request.to_bytes().expect("request encodes");
    {
        let c = probe(tracer, "probe.giop.msg_encode", slice, quick, || {
            black_box(black_box(&request).to_bytes().expect("encodes"));
        });
        let d = probe(tracer, "probe.giop.msg_parse", slice, quick, || {
            black_box(GiopMessage::from_bytes(black_box(&request_wire)).expect("parses"));
        });
        out.values.push(("giop.msg_encode_ns", c.ns));
        out.values.push(("giop.msg_parse_ns", d.ns));
        out.values.push(("giop.msg_allocs", c.allocs + d.allocs));
        out.notes.push(format!(
            "probe giop: `{median_operation}` request of {} B, {} encodes, {} parses",
            request_wire.len(),
            c.calls,
            d.calls
        ));
    }

    // ------------------------------------------------------------ orb
    {
        let (build, handle, reply, calls) = orb_probe(w, &sh, &key, slice * 3, quick, tracer);
        out.values.push(("orb.build_request_ns", build));
        out.values.push(("orb.handle_request_ns", handle));
        out.values.push(("orb.handle_reply_ns", reply));
        out.notes
            .push(format!("probe orb: {calls} request/dispatch/reply triples"));
    }

    // ---------------------------------------------------------- totem
    if cluster_workload {
        let payload = if sh.big_payload == 0 {
            // Envelope + GIOP bytes of a small request.
            request_wire.len() + 64
        } else {
            NetworkConfig::default().frame_payload() - 32
        };
        let t = totem_probe(payload, input.seed, slice * 2, quick, tracer);
        out.values.push(("totem.token_visit_ns", t.token_visit_ns));
        out.values.push(("totem.regular_ns", t.regular_ns));
        out.values.push(("totem.broadcast_ns", t.broadcast_ns));
        out.values.push(("totem.handle_allocs", t.handle_allocs));
        out.notes.push(format!(
            "probe totem: 4-node ring, {payload} B payloads, {} token visits, {} regular frames handled, {} broadcasts",
            t.token_visits, t.regulars, t.broadcasts
        ));
    } else {
        for name in [
            "totem.token_visit_ns",
            "totem.regular_ns",
            "totem.broadcast_ns",
            "totem.handle_allocs",
        ] {
            out.values.push((name, 0.0));
        }
    }

    // -------------------------------------------------------- eternal
    if cluster_workload {
        let conn = ConnectionName {
            client: GroupId(1),
            server: GroupId(0),
        };
        let small = EternalMessage::Iiop {
            conn,
            direction: Direction::Request,
            op_seq: 7,
            bytes: request_wire.clone(),
        };
        let small_wire = small.to_bytes();
        let c = probe(tracer, "probe.eternal.msg_encode", slice, quick, || {
            black_box(black_box(&small).to_bytes());
        });
        let d = probe(tracer, "probe.eternal.msg_decode", slice, quick, || {
            black_box(EternalMessage::from_bytes(black_box(&small_wire)).expect("decodes"));
        });
        out.values.push(("eternal.msg_encode_ns", c.ns));
        out.values.push(("eternal.msg_decode_ns", d.ns));

        let big = match w {
            Workload::Recovery350Kb | Workload::PassiveFailover => EternalMessage::StateChunk {
                group: GroupId(0),
                transfer: TransferId(1),
                new_host: NodeId(2),
                index: 0,
                total: 31,
                bytes: vec![0x5a; sh.big_payload],
            },
            _ => small.clone(),
        };
        let big_wire = big.to_bytes();
        let max_payload = NetworkConfig::default().frame_payload() - 32;
        let mut id = 0u64;
        let f = probe(tracer, "probe.eternal.fragment", slice, quick, || {
            id += 1;
            black_box(fragment_eternal(
                NodeId(0),
                id,
                black_box(&big_wire),
                max_payload,
            ));
        });
        let mut reasm = EternalReassembler::new();
        let mut id = 0u64;
        let r = probe(tracer, "probe.eternal.reassemble", slice, quick, || {
            id += 1;
            // Fragmenting is part of the loop but not of the metric:
            // its cost, measured just above, is subtracted below.
            for frag in fragment_eternal(NodeId(0), id, &big_wire, max_payload) {
                black_box(reasm.push(&frag).expect("fragment accepted"));
            }
        });
        out.values
            .push(("eternal.fragment_ns_per_kb", f.ns / kb(big_wire.len())));
        out.values.push((
            "eternal.reassemble_ns_per_kb",
            (r.ns - f.ns).max(0.0) / kb(big_wire.len()),
        ));
        out.notes.push(format!(
            "probe eternal.msg: {} B Iiop message, {} encodes, {} decodes; fragment/reassemble: {} B message, {} and {} calls",
            small_wire.len(),
            c.calls,
            d.calls,
            big_wire.len(),
            f.calls,
            r.calls
        ));

        let (ns, calls) = on_delivered_probe(input, slice * 2, quick, tracer);
        out.values.push(("eternal.on_delivered_ns", ns));
        out.notes.push(format!(
            "probe eternal.on_delivered: {calls} requests dispatched at a node hosting a server replica"
        ));
    } else {
        for name in [
            "eternal.msg_encode_ns",
            "eternal.msg_decode_ns",
            "eternal.fragment_ns_per_kb",
            "eternal.reassemble_ns_per_kb",
            "eternal.on_delivered_ns",
        ] {
            out.values.push((name, 0.0));
        }
    }
    out
}

/// Client ORB → server ORB (POA dispatch into the workload's servant)
/// → client ORB, 64 requests at a time so each phase is timed as a
/// block. Returns mean ns per build, per handle_request, per
/// handle_reply, and the triples run.
fn orb_probe(
    w: Workload,
    sh: &Shapes,
    key: &ObjectKey,
    slice: Duration,
    quick: bool,
    tracer: &mut Tracer,
) -> (f64, f64, f64, u64) {
    const BLOCK: usize = 64;
    let span = tracer.open("probe.orb", 0, 0);
    let mut server_orb = Orb::new("P1");
    server_orb
        .poa_mut()
        .activate_checkpointable(key.clone(), workloads::new_servant(w));
    let mut server = ServerConnection::new(1);
    let mut client = ClientConnection::new(1);
    let (mut build, mut handle, mut reply) = (Vec::new(), Vec::new(), Vec::new());
    let mut next_op = 0usize;
    let mut calls = 0u64;
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let requests: Vec<Vec<u8>> = (0..BLOCK)
            .map(|_| {
                let (operation, args) = &sh.ops[next_op % sh.ops.len()];
                next_op += 1;
                client
                    .build_request(key, operation, args, true)
                    .expect("request encodes")
                    .1
            })
            .collect();
        build.push(t.elapsed().as_nanos() as f64 / BLOCK as f64);
        let t = Instant::now();
        let replies: Vec<Vec<u8>> = requests
            .iter()
            .map(|bytes| {
                server
                    .handle_request(bytes, server_orb.poa_mut())
                    .expect("request parses")
                    .expect("two-way")
            })
            .collect();
        handle.push(t.elapsed().as_nanos() as f64 / BLOCK as f64);
        let t = Instant::now();
        for bytes in &replies {
            black_box(client.handle_reply(bytes).expect("reply matches"));
        }
        reply.push(t.elapsed().as_nanos() as f64 / BLOCK as f64);
        calls += BLOCK as u64;
        let elapsed = started.elapsed();
        let enough = calls >= MIN_CALLS || elapsed >= slice * 4;
        if (elapsed >= slice && enough) || (quick && build.len() >= 3) {
            break;
        }
    }
    tracer.close(span);
    let fastest = |v: Vec<f64>| stats::fastest(&stats::sorted(v));
    (fastest(build), fastest(handle), fastest(reply), calls)
}

#[derive(Debug, Default)]
struct TotemCosts {
    token_visit_ns: f64,
    regular_ns: f64,
    broadcast_ns: f64,
    handle_allocs: f64,
    token_visits: u64,
    regulars: u64,
    broadcasts: u64,
}

enum RingEvent {
    Frame(NodeId, Frame),
    Timer(NodeId, Timer, u64),
}

/// A harness-owned 4-node Totem ring under closed-loop load: three
/// nodes each keep four payloads in flight, sending the next when one
/// of their own is delivered back to them. Every `handle_frame` and
/// `broadcast` call is timed on its own and classified by
/// `Frame::kind()`; a token counts as a visit only at its target.
fn totem_probe(
    payload: usize,
    seed: u64,
    slice: Duration,
    quick: bool,
    tracer: &mut Tracer,
) -> TotemCosts {
    let span = tracer.open("probe.totem", 0, 0);
    let overhead = timer_overhead_ns();
    let cfg = TotemConfig::default();
    let mut net = NetworkModel::new(4, NetworkConfig::default(), seed);
    let frame_payload = net.config().frame_payload();
    let mut sched: Scheduler<RingEvent> = Scheduler::new();
    let mut timer_gen: HashMap<(NodeId, Timer), u64> = HashMap::new();
    let mut nodes: Vec<TotemNode> = (0..4)
        .map(|i| TotemNode::new(NodeId(i), cfg.clone()))
        .collect();
    let mut pending: VecDeque<(NodeId, Vec<Action>)> = VecDeque::new();
    for node in nodes.iter_mut() {
        let actions = node.start();
        pending.push_back((node.id(), actions));
    }

    let (mut token_ns, mut regular_ns, mut broadcast_ns) = (0.0f64, 0.0f64, 0.0f64);
    let mut costs = TotemCosts::default();
    let (mut handle_calls, mut handle_allocs) = (0u64, 0u64);
    let mut loaded = false;
    let started = Instant::now();
    let data = vec![0xa5u8; payload];
    loop {
        // Apply queued actions; own deliveries trigger the next send.
        while let Some((src, actions)) = pending.pop_front() {
            let now = sched.now();
            for action in actions {
                match action {
                    Action::Multicast(frame) => {
                        let wire = frame.wire_len().min(frame_payload);
                        for d in net.multicast(src, wire, now) {
                            sched.schedule_at(d.at, RingEvent::Frame(d.dst, frame.clone()));
                        }
                    }
                    Action::SetTimer(timer, after) => {
                        let generation = timer_gen.entry((src, timer)).or_insert(0);
                        *generation += 1;
                        sched.schedule_at(now + after, RingEvent::Timer(src, timer, *generation));
                    }
                    Action::CancelTimer(timer) => {
                        *timer_gen.entry((src, timer)).or_insert(0) += 1;
                    }
                    Action::Deliver(Delivery::Message { sender, .. }) => {
                        if sender == src && src.0 < 3 {
                            let t = Instant::now();
                            let actions = nodes[src.0 as usize].broadcast(data.clone());
                            broadcast_ns += t.elapsed().as_nanos() as f64 - overhead;
                            costs.broadcasts += 1;
                            pending.push_back((src, actions));
                        }
                    }
                    Action::Deliver(Delivery::ConfigChange { members, .. }) => {
                        // Ring formed: start the closed loops once.
                        if members.len() == 4 && !loaded && src == NodeId(0) {
                            loaded = true;
                            for i in 0..3u32 {
                                for _ in 0..4 {
                                    let actions = nodes[i as usize].broadcast(data.clone());
                                    pending.push_back((NodeId(i), actions));
                                }
                            }
                        }
                    }
                }
            }
        }
        let Some((_, event)) = sched.pop() else {
            break;
        };
        match event {
            RingEvent::Frame(dst, frame) => {
                let kind = frame.kind();
                let visit = matches!(&frame, Frame::Token(t) if t.target == dst);
                let a0 = AllocSnapshot::now();
                let t = Instant::now();
                let actions = nodes[dst.0 as usize].handle_frame(frame);
                let ns = t.elapsed().as_nanos() as f64 - overhead;
                handle_allocs += AllocSnapshot::now().since(a0).calls;
                handle_calls += 1;
                if loaded {
                    if visit {
                        token_ns += ns;
                        costs.token_visits += 1;
                    } else if kind == "regular" {
                        regular_ns += ns;
                        costs.regulars += 1;
                    }
                }
                pending.push_back((dst, actions));
            }
            RingEvent::Timer(node, timer, generation) => {
                if timer_gen.get(&(node, timer)) == Some(&generation) {
                    let actions = nodes[node.0 as usize].handle_timer(timer);
                    pending.push_back((node, actions));
                }
            }
        }
        if handle_calls % 256 == 0 {
            let elapsed = started.elapsed();
            let enough = costs.token_visits >= MIN_CALLS || elapsed >= slice * 4;
            if (elapsed >= slice && enough) || (quick && costs.token_visits >= 100) {
                break;
            }
        }
    }
    tracer.close(span);
    let mean = |sum: f64, n: u64| {
        if n == 0 {
            0.0
        } else {
            (sum / n as f64).max(0.0)
        }
    };
    costs.token_visit_ns = mean(token_ns, costs.token_visits);
    costs.regular_ns = mean(regular_ns, costs.regulars);
    costs.broadcast_ns = mean(broadcast_ns, costs.broadcasts);
    costs.handle_allocs = mean(handle_allocs as f64, handle_calls);
    costs
}

/// `Mechanisms::on_delivered` of an IIOP request at a node hosting a
/// server replica of the workload's group, with an inert `HopCtx`. A
/// second `Mechanisms` hosts the workload's real client, so the
/// requests are the ones the workload sends; only the server node's
/// handling of requests is timed.
fn on_delivered_probe(
    input: &Input,
    slice: Duration,
    quick: bool,
    tracer: &mut Tracer,
) -> (f64, u64) {
    let span = tracer.open("probe.eternal.on_delivered", 0, 0);
    let w = input.workload;
    let overhead = timer_overhead_ns();
    let (server, client) = (GroupId(0), GroupId(1));
    let (server_node, client_node) = (NodeId(0), NodeId(3));
    let mut recorder = CausalRecorder::disabled();
    let (mut total_ns, mut calls) = (0.0f64, 0u64);
    let started = Instant::now();
    'episodes: loop {
        let mut mechs: Vec<Mechanisms> = [server_node, client_node]
            .into_iter()
            .map(|node| {
                let config = MechConfig {
                    exec_time: input.exec_time,
                    ..MechConfig::default()
                };
                let mut m = Mechanisms::new(node, config);
                let mut props = workloads::server_props(w);
                // One replica is enough: the probe times one node.
                props.initial_replicas = 1;
                props.min_replicas = 1;
                m.register_group(GroupMeta {
                    id: server,
                    name: "server".to_owned(),
                    props,
                    hosts: vec![server_node],
                    kind: GroupKind::Server(Box::new(move || workloads::new_servant(w))),
                });
                let client_input = input.clone();
                m.register_group(GroupMeta {
                    id: client,
                    name: "driver".to_owned(),
                    props: FaultToleranceProperties::active(1),
                    hosts: vec![client_node],
                    kind: GroupKind::Client(Box::new(move |_| {
                        workloads::new_client(&client_input, server)
                    })),
                });
                m
            })
            .collect();
        mechs[0].deploy_local_replica(server);
        mechs[1].deploy_local_replica(client);
        let mut queue: VecDeque<EternalMessage> = VecDeque::new();
        let mut now = SimTime::ZERO;
        let collect = |outs: Vec<Out>, queue: &mut VecDeque<EternalMessage>| {
            for out in outs {
                if let Out::Multicast { message, .. } = out {
                    queue.push_back(message);
                }
            }
        };
        let outs = {
            let mut ctx = HopCtx::new(&mut recorder, 0, 0, 0, 0);
            mechs[1].start_clients(now, &mut ctx)
        };
        collect(outs, &mut queue);
        while let Some(message) = queue.pop_front() {
            now = SimTime::from_nanos(now.as_nanos() + 100_000);
            let is_request = matches!(
                &message,
                EternalMessage::Iiop {
                    direction: Direction::Request,
                    ..
                }
            );
            // The total order delivers every message at every node.
            let copy = message.clone();
            let mut ctx = HopCtx::new(&mut recorder, 0, 0, 0, 0);
            let t = Instant::now();
            let outs = mechs[0].on_delivered(copy, now, &mut ctx);
            let ns = t.elapsed().as_nanos() as f64 - overhead;
            if is_request {
                total_ns += ns;
                calls += 1;
            }
            collect(outs, &mut queue);
            let outs = mechs[1].on_delivered(message, now, &mut ctx);
            collect(outs, &mut queue);
            if calls % 64 == 0 {
                let elapsed = started.elapsed();
                let enough = calls >= MIN_CALLS || elapsed >= slice * 4;
                if (elapsed >= slice && enough) || (quick && calls >= 64) {
                    break 'episodes;
                }
            }
        }
        if calls == 0 {
            break; // the client issued nothing: report 0 rather than spin
        }
    }
    tracer.close(span);
    let ns = if calls == 0 {
        0.0
    } else {
        (total_ns / calls as f64).max(0.0)
    };
    (ns, calls)
}

/// Host ns per request that the probes account for, from the outside:
/// each probe's cost times how often a request needs that step, read
/// from the traced round's counts. A model, stated in perf/README.md —
/// its residual is the point.
pub fn explained_ns_per_req(
    w: Workload,
    probed: &Probed,
    counts: &Counts,
    virt: &Virtual,
    steps: u64,
) -> f64 {
    let replies = virt.replies as f64;
    let per_req = |n: f64| n / replies;
    let events = per_req(steps as f64);
    let frames = per_req(virt.frames as f64);
    let mut ns =
        events * probed.get("sim.sched_ns_per_op") + frames * probed.get("sim.net_multicast_ns");
    // The client ORB builds each request and matches each reply once.
    ns += probed.get("orb.build_request_ns") + probed.get("orb.handle_reply_ns");
    if w == Workload::UnreplicatedRpc {
        return ns + probed.get("orb.handle_request_ns");
    }
    // Totem: a regular frame is handled by its three receivers, a token
    // by its target; every application fragment is one broadcast call.
    let regular_frames = per_req(
        counts
            .get("totem.broadcasts")
            .saturating_sub(counts.get("totem.frames_saved")) as f64,
    );
    let token_frames = (frames - regular_frames).max(0.0);
    ns += regular_frames * 3.0 * probed.get("totem.regular_ns")
        + token_frames * probed.get("totem.token_visit_ns")
        + per_req(counts.get("totem.broadcasts") as f64) * probed.get("totem.broadcast_ns");
    // Eternal: one request copy and one reply copy per server replica
    // are encoded once and decoded at four processors; each server
    // replica dispatches the request (ORB and servant included).
    let copies = 3.0;
    ns += copies * probed.get("eternal.msg_encode_ns")
        + copies * 4.0 * probed.get("eternal.msg_decode_ns")
        + 2.0 * probed.get("eternal.on_delivered_ns");
    // Every wire kB is fragmented once and reassembled at four nodes.
    let wire_kb = per_req(virt.wire_bytes as f64) / 1024.0;
    ns += wire_kb
        * (probed.get("eternal.fragment_ns_per_kb")
            + 4.0 * probed.get("eternal.reassemble_ns_per_kb"));
    // State capture and application: one encode and one decode of the
    // servant state per transfer or checkpoint.
    let state_kb = match w {
        Workload::Recovery350Kb => workloads::RECOVERY_STATE_BYTES,
        Workload::PassiveFailover => workloads::PASSIVE_STATE_BYTES,
        _ => 0,
    } as f64
        / 1024.0;
    let captures = match w {
        Workload::Recovery350Kb => 1.0,
        _ => counts.get("eternal.checkpoints_logged") as f64 / 2.0, // logged at both hosts
    };
    ns += per_req(captures)
        * state_kb
        * (probed.get("cdr.any_encode_ns_per_kb") + probed.get("cdr.any_decode_ns_per_kb"));
    ns
}
