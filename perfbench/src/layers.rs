//! Replay timings for layers the benchmark cannot wrap in a span from
//! outside: the gPTP codec, the FTA and the PI servo run inside the event
//! loop, and fleet generation runs inside `matrix::expand`. Each replay
//! calls the layer's public function in a tight loop on fixed inputs and
//! reports the median over several batches.

use clocksync::fabric::{FabricConfig, FleetShape, FleetTopology};
use clocksync::gptp::msg::{AnnounceBody, FollowUpTlv, Header, MessageType};
use clocksync::gptp::{ClockIdentity, ClockQuality, Message, PortIdentity, PtpTimestamp};
use clocksync::snapshot::{checkpoint_time, warm_prefix_config};
use clocksync::time::{ClockTime, Nanos, PiServo, ServoConfig};
use clocksync::{TestbedConfig, World, WorldSnapshot};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::Summary;

const BATCHES: usize = 7;

/// Median host nanoseconds per call of `op` over [`BATCHES`] batches of
/// `per_batch` calls.
fn ns_per_call(per_batch: u32, mut op: impl FnMut(u32)) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for i in 0..per_batch {
            op(i);
        }
        per_call.push(t.elapsed().as_nanos() as f64 / f64::from(per_batch));
    }
    Summary::of(&per_call).median
}

/// The five message types the simulated frame path carries.
fn sample_messages() -> Vec<(&'static str, Message)> {
    let port = PortIdentity::new(ClockIdentity::for_index(3), 1);
    let ts = PtpTimestamp::from_clock_time(ClockTime::from_nanos(1_234_567_890_123));
    vec![
        (
            "sync",
            Message::Sync {
                header: Header::new(MessageType::Sync, 1, port, 42, -3),
                origin: PtpTimestamp::default(),
            },
        ),
        (
            "follow_up",
            Message::FollowUp {
                header: Header::new(MessageType::FollowUp, 1, port, 42, -3),
                precise_origin: ts,
                tlv: FollowUpTlv {
                    cumulative_scaled_rate_offset: 1_234,
                    ..FollowUpTlv::default()
                },
            },
        ),
        (
            "pdelay_req",
            Message::PdelayReq {
                header: Header::new(MessageType::PdelayReq, 0, port, 7, 0),
            },
        ),
        (
            "pdelay_resp",
            Message::PdelayResp {
                header: Header::new(MessageType::PdelayResp, 0, port, 7, 0),
                request_receipt: ts,
                requesting_port: PortIdentity::new(ClockIdentity::for_index(2), 1),
            },
        ),
        (
            "announce",
            Message::Announce {
                header: Header::new(MessageType::Announce, 1, port, 9, -2),
                body: AnnounceBody {
                    current_utc_offset: 37,
                    priority1: 246,
                    quality: ClockQuality::default(),
                    priority2: 248,
                    gm_identity: ClockIdentity::for_index(3),
                    steps_removed: 1,
                    time_source: 0xA0,
                },
                path_trace: vec![ClockIdentity::for_index(3), ClockIdentity::for_index(8)],
            },
        ),
    ]
}

/// `(type, encode ns, decode ns)` per message type, timed on
/// `Message::encode` / `Message::decode`.
pub fn codec() -> Vec<(&'static str, f64, f64)> {
    sample_messages()
        .into_iter()
        .map(|(name, msg)| {
            let enc = ns_per_call(20_000, |_| {
                black_box(black_box(&msg).encode());
            });
            let wire = msg.encode();
            let dec = ns_per_call(20_000, |_| {
                let back = Message::decode(black_box(&wire)).expect("sample message decodes");
                black_box(back);
            });
            (name, enc, dec)
        })
        .collect()
}

/// Host ns per `fault_tolerant_average` over M = 4 domain offsets, f = 1.
pub fn fta_aggregate() -> f64 {
    let offsets: Vec<[Nanos; 4]> = (0..64i64)
        .map(|k| {
            let o = |d: i64| Nanos::from_nanos((k * 7919 + d * 104_729) % 2_001 - 1_000);
            [o(0), o(1), o(2), o(3)]
        })
        .collect();
    ns_per_call(100_000, |i| {
        let set = &offsets[i as usize % offsets.len()];
        black_box(clocksync::fta::fault_tolerant_average(black_box(set), 1));
    })
}

/// Host ns per `PiServo::sample` at the paper's 125 ms sync interval,
/// fed a locked-in offset sequence.
pub fn servo_sample() -> f64 {
    let interval = Nanos::from_millis(125);
    let mut servo = PiServo::new(ServoConfig::default(), interval);
    let mut local = ClockTime::from_nanos(1_000_000_000);
    ns_per_call(100_000, |i| {
        local = local + interval;
        let offset = Nanos::from_nanos(i64::from(i % 97) - 48);
        black_box(servo.sample(black_box(offset), local));
    })
}

/// Per-fleet host ms of `FleetTopology::generate`, `diameter` and
/// `condense`, median over passes of the four fleet shapes.
pub struct FleetTimes {
    pub generate_ms: f64,
    pub diameter_ms: f64,
    pub condense_ms: f64,
}

pub fn fleet(nodes: u32, seeds: &[(FleetShape, u64)], passes: usize) -> FleetTimes {
    let (mut gen, mut dia, mut con) = (Vec::new(), Vec::new(), Vec::new());
    let base = FabricConfig::default();
    for _ in 0..passes {
        for &(shape, seed) in seeds {
            let t = Instant::now();
            let fleet = FleetTopology::generate(nodes, shape, seed);
            gen.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            black_box(fleet.diameter());
            dia.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            black_box(fleet.condense(&base));
            con.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    FleetTimes {
        generate_ms: Summary::of(&gen).median,
        diameter_ms: Summary::of(&dia).median,
        condense_ms: Summary::of(&con).median,
    }
}

/// Host ms of each snapshot step at a configuration's warm-prefix
/// checkpoint, median over `passes`, plus the encoded size.
pub struct SnapshotTimes {
    pub capture_ms: f64,
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub restore_ms: f64,
    pub bytes: usize,
}

pub fn snapshot(cfg: &TestbedConfig, passes: usize) -> SnapshotTimes {
    let at = checkpoint_time(cfg).expect("benchmark workloads have a warm-up");
    let mut prefix = World::new(warm_prefix_config(cfg));
    prefix.run_until(at);
    let (mut cap, mut enc, mut dec, mut res) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..passes {
        let t = Instant::now();
        let snap = prefix.snapshot();
        cap.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let wire = snap.encode();
        enc.push(t.elapsed().as_secs_f64() * 1e3);
        bytes = wire.len();
        let t = Instant::now();
        let back = WorldSnapshot::decode(&wire).expect("own snapshot decodes");
        dec.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let world = World::restore(cfg.clone(), &back).expect("own snapshot restores");
        res.push(t.elapsed().as_secs_f64() * 1e3);
        black_box(world);
    }
    SnapshotTimes {
        capture_ms: Summary::of(&cap).median,
        encode_ms: Summary::of(&enc).median,
        decode_ms: Summary::of(&dec).median,
        restore_ms: Summary::of(&res).median,
        bytes,
    }
}
