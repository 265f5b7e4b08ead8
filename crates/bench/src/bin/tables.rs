//! Regenerates the paper's Tables 1–4 from the implementation itself
//! (experiments E1–E4): the message vocabularies, the timeout summary, and
//! the simulated architecture parameters.
//!
//! ```text
//! cargo run --release -p ftdircmp-bench --bin tables [-- --table N]
//! ```

use ftdircmp_core::{MsgType, SystemConfig, TimeoutKind};
use ftdircmp_stats::table::Table;

fn table1() {
    println!("Table 1. Message types used by DirCMP.\n");
    let mut t = Table::with_columns(&["Type", "Description"]);
    for m in MsgType::ALL.iter().filter(|m| !m.is_ft_only()) {
        t.row(vec![m.name().into(), m.description().into()]);
    }
    println!("{}", t.render());
}

fn table2() {
    println!("Table 2. New message types for FtDirCMP.\n");
    let mut t = Table::with_columns(&["Type", "Description"]);
    for m in MsgType::ALL.iter().filter(|m| m.is_ft_only()) {
        t.row(vec![m.name().into(), m.description().into()]);
    }
    println!("{}", t.render());
}

fn table3() {
    println!("Table 3. Timeouts summary.\n");
    let cfg = SystemConfig::default();
    let mut t = Table::with_columns(&[
        "Timeout",
        "Activated",
        "Where",
        "Deactivated",
        "On trigger",
        "Default (cycles)",
    ]);
    let rows: [(&TimeoutKind, [&str; 4], u64); 4] = [
        (
            &TimeoutKind::LostRequest,
            [
                "When a request is issued.",
                "At the requesting L1 (or L2 for memory-facing requests).",
                "When the request is satisfied.",
                "The request is reissued with a new serial number.",
            ],
            cfg.ft.lost_request_timeout,
        ),
        (
            &TimeoutKind::LostUnblock,
            [
                "When a request is answered (even writeback requests).",
                "At the responding L2 or memory.",
                "When the unblock (or writeback) message is received.",
                "An UnblockPing/WbPing is sent to the cache that should have sent it.",
            ],
            cfg.ft.lost_unblock_timeout,
        ),
        (
            &TimeoutKind::LostAckBd,
            [
                "When the AckO message is sent.",
                "At the node that sends the AckO.",
                "When the AckBD message is received.",
                "The AckO is reissued with a new serial number.",
            ],
            cfg.ft.lost_ackbd_timeout,
        ),
        (
            &TimeoutKind::LostData,
            [
                "When a node enters backup state (extension; DESIGN.md §4).",
                "At the backup holder.",
                "When the backup is deleted (AckO received).",
                "An OwnershipPing is sent to the data's destination.",
            ],
            cfg.ft.lost_data_timeout,
        ),
    ];
    for (kind, cols, cycles) in rows {
        t.row(vec![
            kind.label().into(),
            cols[0].into(),
            cols[1].into(),
            cols[2].into(),
            cols[3].into(),
            cycles.to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn table4() {
    println!("Table 4. Characteristics of simulated architectures.\n");
    let c = SystemConfig::default();
    let mut t = Table::with_columns(&["Parameter", "Value"]);
    let rows: Vec<(&str, String)> = vec![
        ("Tiles (cores / L1s / L2 banks)", c.tiles.to_string()),
        ("Cache line size", format!("{} bytes", c.line_bytes)),
        (
            "L1 cache",
            format!(
                "{} KB, {}-way, {}-cycle hit",
                c.l1_bytes / 1024,
                c.l1_assoc,
                c.l1_hit_cycles
            ),
        ),
        (
            "Shared L2 cache (per bank)",
            format!(
                "{} KB, {}-way, {}-cycle hit ({} MB total)",
                c.l2_bank_bytes / 1024,
                c.l2_assoc,
                c.l2_hit_cycles,
                c.l2_bank_bytes * u64::from(c.tiles) / (1024 * 1024)
            ),
        ),
        ("Memory access time", format!("{} cycles", c.mem_cycles)),
        ("Memory interleaving", format!("{}-way", c.mem_controllers)),
        (
            "Topology",
            format!(
                "{}x{} 2D mesh, dimension-ordered routing",
                c.mesh.width, c.mesh.height
            ),
        ),
        (
            "Non-data message size",
            format!("{} bytes", c.control_msg_bytes),
        ),
        ("Data message size", format!("{} bytes", c.data_msg_bytes)),
        (
            "Channel bandwidth",
            format!("{} bytes/cycle per link", c.mesh.link_bytes_per_cycle),
        ),
        (
            "Router latency",
            format!("{} cycles/hop", c.mesh.router_latency),
        ),
        (
            "Lost request timeout",
            format!("{} cycles", c.ft.lost_request_timeout),
        ),
        (
            "Lost unblock timeout",
            format!("{} cycles", c.ft.lost_unblock_timeout),
        ),
        (
            "Lost backup deletion acknowledgment",
            format!("{} cycles", c.ft.lost_ackbd_timeout),
        ),
        (
            "Request serial number size",
            format!("{} bits", c.ft.serial_bits),
        ),
    ];
    for (k, v) in rows {
        t.row(vec![k.into(), v]);
    }
    println!("{}", t.render());
}

fn main() {
    let which = ftdircmp_bench::BenchArgs::parse()
        .u64_flag("--table", 0)
        .unwrap_or_else(|e| e.exit());
    match which {
        1 => table1(),
        2 => table2(),
        3 => table3(),
        4 => table4(),
        _ => {
            table1();
            table2();
            table3();
            table4();
        }
    }
}
