//! Pins the expansion of every spec the repository ships to one digest.
//!
//! Each digest is FNV-1a over every plan of the spec, in enumeration
//! order: its index, content hash, run seed, coordinate label, warm-prefix
//! label and the `Debug` rendering of its materialized configuration. A
//! refactor of the axis machinery must leave every digest unchanged —
//! that is the proof that run hashes, derived seeds, artifact names and
//! the simulated configurations are all byte-identical.
//!
//! Covered: every builtin campaign spec, the `frontier-sweep` probe
//! specs at each cell's interval ends, and one hand-written spec that
//! sets the axes no builtin sets.

use tsn_campaign::{expand, CampaignSpec, FrontierSpec};

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(spec: &CampaignSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for p in expand(spec).expect("valid spec") {
        let line = format!(
            "{}|{}|{}|{}|{}|{:?}\n",
            p.index,
            p.hash,
            p.seed,
            p.coord.label(),
            p.coord.prefix_label(),
            p.config
        );
        h = fnv1a(line.as_bytes(), h);
    }
    h
}

/// Sets every axis the builtins leave empty.
const UNCOVERED_AXES: &str = r#"{"name":"uncovered-axes","base":{"preset":"quick","duration_s":12,"warmup_s":4},"scenarios":["baseline","fault_injection"],"grid":{"seeds":[5,6],"kernels":["identical","diverse"],"fault_rate_per_hour":[0,4],"partition_s":[0,3],"asymmetry_ns":[0,150],"adv_offset_ns":[20000],"fta_f":[1]}}"#;

fn specs() -> Vec<(String, CampaignSpec)> {
    let mut out: Vec<(String, CampaignSpec)> = CampaignSpec::BUILTINS
        .iter()
        .map(|name| (name.to_string(), CampaignSpec::builtin(name).unwrap()))
        .collect();
    let frontier = FrontierSpec::builtin("frontier-sweep").unwrap();
    for (i, cell) in frontier.cells.iter().enumerate() {
        for (end, probe) in [("min", frontier.axis.min), ("max", frontier.axis.max)] {
            out.push((
                format!("frontier-sweep/cell{i}/{end}"),
                frontier.probe_spec(cell, probe),
            ));
        }
    }
    out.push((
        "uncovered-axes".to_string(),
        CampaignSpec::parse(UNCOVERED_AXES).unwrap(),
    ));
    out
}

const PINNED: [(&str, u64); 15] = [
    ("quick-baseline", 0xdb90ff7b5d56390a),
    ("repro-all", 0xb0b5847254ddfbd7),
    ("abl2-domains", 0xec5ac71b9c05a5c2),
    ("abl3-sync-interval", 0x18dfe04f2577da81),
    ("adversary-sweep", 0xbd7a20acc79df1b2),
    ("election-sweep", 0x6fae7e2c83f0dd16),
    ("fabric-sweep", 0x483b261b3df574c7),
    ("fleet-sweep", 0x2e0a3647d53c148e),
    ("frontier-sweep/cell0/min", 0x37f6d49eebc2feb1),
    ("frontier-sweep/cell0/max", 0x71bbf91d38dc63d8),
    ("frontier-sweep/cell1/min", 0xd911ad764f3c02ad),
    ("frontier-sweep/cell1/max", 0xd843d69ab9a248d4),
    ("frontier-sweep/cell2/min", 0x4c7c4c072bb3ced2),
    ("frontier-sweep/cell2/max", 0x87c9cfb6de46c261),
    ("uncovered-axes", 0xab6b447761b568ca),
];

#[test]
fn plan_digests_are_pinned() {
    let actual: Vec<(String, u64)> = specs()
        .iter()
        .map(|(name, spec)| (name.clone(), digest(spec)))
        .collect();
    let rendered: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(actual, pinned, "plan digests moved; now:\n{rendered}");
}
