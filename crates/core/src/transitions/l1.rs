//! Reified transition table for the L1 cache controller.
//!
//! Facet families:
//! * `Cache` (mandatory, default `I`): stable MOESI permission of the
//!   resident line, plus the FT blocked states `Mb`/`Eb` (§3.1).
//! * `Miss`: an allocated miss MSHR — `IS` (load, no line), `IM` (store, no
//!   line), `SM`/`OM` (store upgrade with the old copy still resident).
//! * `Wb`: an allocated writeback MSHR — `MI`/`OI`/`EI` by evicted
//!   permission, `II` once the data was surrendered to a forward.
//! * `Backup`: an FT data backup — `B` (created when forwarding owned data)
//!   or `Bw` (created when completing a writeback), held until AckO (§3.1).

use super::Resource::{
    AckBdPend, Backup, Mshr, TimerLostAckBd, TimerLostData, TimerLostRequest, WbMshr,
};
use super::{
    cpu, defer, ignore, impossible, msg, tmo, Controller, ControllerTable, CpuOp, Exception,
    StateDecl,
};
use crate::msg::MsgType;
use crate::proto::TimeoutKind;

fn states() -> Vec<StateDecl> {
    vec![
        StateDecl::new("I", "Cache", "invalid / not present"),
        StateDecl::new("S", "Cache", "shared, clean"),
        StateDecl::new("E", "Cache", "exclusive, clean"),
        StateDecl::new("O", "Cache", "owned, dirty, shared"),
        StateDecl::new("M", "Cache", "modified, dirty, exclusive"),
        StateDecl::new("Mb", "Cache", "modified, blocked until AckBD (§3.1)")
            .ft()
            .implies(&[AckBdPend, TimerLostAckBd]),
        StateDecl::new("Eb", "Cache", "exclusive, blocked until AckBD (§3.1)")
            .ft()
            .implies(&[AckBdPend, TimerLostAckBd]),
        StateDecl::new("IS", "Miss", "load miss outstanding")
            .implies(&[Mshr])
            .ft_implies(&[TimerLostRequest]),
        StateDecl::new("IM", "Miss", "store miss outstanding")
            .implies(&[Mshr])
            .ft_implies(&[TimerLostRequest]),
        StateDecl::new("SM", "Miss", "store upgrade from S outstanding")
            .implies(&[Mshr])
            .ft_implies(&[TimerLostRequest]),
        StateDecl::new("OM", "Miss", "store upgrade from O outstanding")
            .implies(&[Mshr])
            .ft_implies(&[TimerLostRequest]),
        StateDecl::new("MI", "Wb", "writeback of M outstanding")
            .implies(&[WbMshr])
            .ft_implies(&[TimerLostRequest]),
        StateDecl::new("OI", "Wb", "writeback of O outstanding")
            .implies(&[WbMshr])
            .ft_implies(&[TimerLostRequest]),
        StateDecl::new("EI", "Wb", "writeback of clean E outstanding")
            .implies(&[WbMshr])
            .ft_implies(&[TimerLostRequest]),
        StateDecl::new(
            "II",
            "Wb",
            "writeback whose data was surrendered to a forward",
        )
        .implies(&[WbMshr])
        .ft_implies(&[TimerLostRequest]),
        StateDecl::new(
            "B",
            "Backup",
            "backup of data forwarded to another L1 (§3.1)",
        )
        .ft()
        .implies(&[Backup, TimerLostData]),
        StateDecl::new(
            "Bw",
            "Backup",
            "backup of data written back to the home (§3.1)",
        )
        .ft()
        .implies(&[Backup, TimerLostData]),
    ]
}

#[allow(clippy::too_many_lines)]
fn rows() -> Vec<super::Transition> {
    super::transitions![
        // ---- CPU operations -------------------------------------------
        { [I] @ cpu(CpuOp::Load) => [IS];
          sends [GetS -> Home]; alloc [Mshr]; ft_alloc [TimerLostRequest];
          paper "read miss" },
        { [I] @ cpu(CpuOp::Store) => [IM];
          sends [GetX -> Home]; alloc [Mshr]; ft_alloc [TimerLostRequest];
          paper "write miss" },
        { [S, E, O, M] @ cpu(CpuOp::Load) => same },
        { [Mb, Eb] @ cpu(CpuOp::Load) => same; gate FtOnly },
        { [M] @ cpu(CpuOp::Store) => [M] },
        { [E] @ cpu(CpuOp::Store), if "silent upgrade" => [M] },
        { [Mb] @ cpu(CpuOp::Store) => [Mb]; gate FtOnly },
        { [Eb] @ cpu(CpuOp::Store), if "silent upgrade while blocked" => [Mb]; gate FtOnly },
        { [S] @ cpu(CpuOp::Store), if "upgrade miss" => [S, SM];
          sends [GetX -> Home]; alloc [Mshr]; ft_alloc [TimerLostRequest] },
        { [O] @ cpu(CpuOp::Store), if "upgrade miss" => [O, OM];
          sends [GetX -> Home]; alloc [Mshr]; ft_alloc [TimerLostRequest] },
        { [MI, OI, EI, II] @ cpu(CpuOp::Load), if "stalled behind writeback" => same },
        { [MI, OI, EI, II] @ cpu(CpuOp::Store), if "stalled behind writeback" => same },
        { [S] @ cpu(CpuOp::Evict), if "silent eviction" => [] },
        { [E] @ cpu(CpuOp::Evict) => [EI];
          sends [Put -> Home]; alloc [WbMshr]; ft_alloc [TimerLostRequest];
          paper "three-phase writeback" },
        { [M] @ cpu(CpuOp::Evict) => [MI];
          sends [Put -> Home]; alloc [WbMshr]; ft_alloc [TimerLostRequest] },
        { [O] @ cpu(CpuOp::Evict) => [OI];
          sends [Put -> Home]; alloc [WbMshr]; ft_alloc [TimerLostRequest] },
        // ---- Data / DataEx / Ack: miss completion ---------------------
        { [IS] @ msg(MsgType::Data), if "read miss completes shared" => [S];
          sends [Unblock -> Home]; free [Mshr]; ft_free [TimerLostRequest] },
        { [IS] @ msg(MsgType::DataEx), if "clean exclusive grant, acks complete" => [E];
          gate NonFtOnly; sends [UnblockEx -> Home]; free [Mshr] },
        { [IS] @ msg(MsgType::DataEx), if "dirty exclusive grant, acks complete" => [M];
          gate NonFtOnly; sends [UnblockEx -> Home]; free [Mshr] },
        { [IS] @ msg(MsgType::DataEx), if "clean exclusive grant, acks complete" => [Eb];
          gate FtOnly; sends [UnblockEx -> Home, AckO -> AckPeer];
          free [Mshr, TimerLostRequest]; alloc [AckBdPend, TimerLostAckBd];
          paper "§3.1 ownership handshake" },
        { [IS] @ msg(MsgType::DataEx), if "dirty exclusive grant, acks complete" => [Mb];
          gate FtOnly; sends [UnblockEx -> Home, AckO -> AckPeer];
          free [Mshr, TimerLostRequest]; alloc [AckBdPend, TimerLostAckBd];
          paper "§3.1 ownership handshake" },
        { [IS, IM] @ msg(MsgType::DataEx), if "invalidation acks outstanding" => same },
        { [IM] @ msg(MsgType::DataEx), if "acks complete" => [M];
          gate NonFtOnly; sends [UnblockEx -> Home]; free [Mshr] },
        { [IM] @ msg(MsgType::DataEx), if "acks complete" => [Mb];
          gate FtOnly; sends [UnblockEx -> Home, AckO -> AckPeer];
          free [Mshr, TimerLostRequest]; alloc [AckBdPend, TimerLostAckBd];
          paper "§3.1 ownership handshake" },
        { [SM] @ msg(MsgType::DataEx), if "upgrade grant without data" => [M];
          sends [UnblockEx -> Home]; free [Mshr]; ft_free [TimerLostRequest] },
        { [SM] @ msg(MsgType::DataEx), if "data from previous owner, acks complete" => [M];
          gate NonFtOnly; sends [UnblockEx -> Home]; free [Mshr] },
        { [SM] @ msg(MsgType::DataEx), if "data from previous owner, acks complete" => [Mb];
          gate FtOnly; sends [UnblockEx -> Home, AckO -> AckPeer];
          free [Mshr, TimerLostRequest]; alloc [AckBdPend, TimerLostAckBd] },
        { [SM] @ msg(MsgType::DataEx), if "invalidation acks outstanding" => [SM] },
        { [OM] @ msg(MsgType::DataEx), if "upgrade grant, acks complete" => [M];
          sends [UnblockEx -> Home]; free [Mshr]; ft_free [TimerLostRequest] },
        { [OM] @ msg(MsgType::DataEx), if "invalidation acks outstanding" => [OM] },
        { [IS, IM, SM, OM] @ msg(MsgType::Ack), if "acks outstanding" => same },
        { [IS] @ msg(MsgType::Ack), if "final ack, clean exclusive grant" => [E];
          gate NonFtOnly; sends [UnblockEx -> Home]; free [Mshr] },
        { [IS] @ msg(MsgType::Ack), if "final ack, dirty exclusive grant" => [M];
          gate NonFtOnly; sends [UnblockEx -> Home]; free [Mshr] },
        { [IS] @ msg(MsgType::Ack), if "final ack, clean exclusive grant" => [Eb];
          gate FtOnly; sends [UnblockEx -> Home, AckO -> AckPeer];
          free [Mshr, TimerLostRequest]; alloc [AckBdPend, TimerLostAckBd] },
        { [IS] @ msg(MsgType::Ack), if "final ack, dirty exclusive grant" => [Mb];
          gate FtOnly; sends [UnblockEx -> Home, AckO -> AckPeer];
          free [Mshr, TimerLostRequest]; alloc [AckBdPend, TimerLostAckBd] },
        { [IM] @ msg(MsgType::Ack), if "final ack completes store" => [M];
          gate NonFtOnly; sends [UnblockEx -> Home]; free [Mshr] },
        { [IM] @ msg(MsgType::Ack), if "final ack completes store" => [Mb];
          gate FtOnly; sends [UnblockEx -> Home, AckO -> AckPeer];
          free [Mshr, TimerLostRequest]; alloc [AckBdPend, TimerLostAckBd] },
        { [SM] @ msg(MsgType::Ack), if "final ack, upgrade without data" => [M];
          sends [UnblockEx -> Home]; free [Mshr]; ft_free [TimerLostRequest] },
        { [SM] @ msg(MsgType::Ack), if "final ack, data held" => [M];
          gate NonFtOnly; sends [UnblockEx -> Home]; free [Mshr] },
        { [SM] @ msg(MsgType::Ack), if "final ack, data held" => [Mb];
          gate FtOnly; sends [UnblockEx -> Home, AckO -> AckPeer];
          free [Mshr, TimerLostRequest]; alloc [AckBdPend, TimerLostAckBd] },
        { [OM] @ msg(MsgType::Ack), if "final ack, upgrade without data" => [M];
          sends [UnblockEx -> Home]; free [Mshr]; ft_free [TimerLostRequest] },
        // ---- Invalidations --------------------------------------------
        { [I] @ msg(MsgType::Inv), if "stale: no line" => [I];
          sends [Ack -> Requester] },
        { [S, O] @ msg(MsgType::Inv) => []; sends [Ack -> Requester] },
        // A delayed Inv can reach a (re-acquired) exclusive owner even
        // under plain DirCMP when the network reorders it past a complete
        // later transaction; the ack it triggers is stale and discarded.
        { [E, M] @ msg(MsgType::Inv), if "stale: exclusive line kept" => same;
          sends [Ack -> Requester] },
        { [Mb, Eb] @ msg(MsgType::Inv), if "blocked line kept" => same;
          gate FtOnly; sends [Ack -> Requester] },
        { [IS, IM] @ msg(MsgType::Inv), if "no line yet" => same; sends [Ack -> Requester] },
        { [SM, OM] @ msg(MsgType::Inv), if "upgrade loses the line" => [I, IM];
          sends [Ack -> Requester] },
        // ---- Forwards -------------------------------------------------
        { [M] @ msg(MsgType::FwdGetS) => [O]; sends [Data -> Requester];
          paper "owner downgrades" },
        { [E] @ msg(MsgType::FwdGetS) => [O]; sends [Data -> Requester] },
        { [O] @ msg(MsgType::FwdGetS) => [O]; sends [Data -> Requester] },
        { [Mb, Eb] @ msg(MsgType::FwdGetS), if "deferred until AckBD" => same; gate FtOnly },
        { [MI, OI, EI] @ msg(MsgType::FwdGetS), if "writeback in flight supplies data" => same;
          sends [Data -> Requester] },
        { [M, E, O] @ msg(MsgType::FwdGetX) => []; gate NonFtOnly; sends [DataEx -> Requester] },
        { [M] @ msg(MsgType::FwdGetX) => [B]; gate FtOnly;
          sends [DataEx -> Requester]; alloc [Backup, TimerLostData];
          paper "§3.1 backup creation" },
        { [E, O] @ msg(MsgType::FwdGetX) => [B]; gate FtOnly;
          sends [DataEx -> Requester]; alloc [Backup, TimerLostData] },
        { [S] @ msg(MsgType::FwdGetX), if "non-owner copy dropped" => [] },
        { [Mb, Eb] @ msg(MsgType::FwdGetX), if "deferred until AckBD" => same; gate FtOnly },
        { [MI, OI, EI] @ msg(MsgType::FwdGetX), if "writeback surrenders data" => [II];
          gate NonFtOnly; sends [DataEx -> Requester] },
        { [MI, OI, EI] @ msg(MsgType::FwdGetX), if "writeback surrenders data" => [II, B];
          gate FtOnly; sends [DataEx -> Requester]; alloc [Backup, TimerLostData] },
        { [B] @ msg(MsgType::FwdGetX), if "backup re-targets the new requester" => [B];
          gate FtOnly; sends [DataEx -> Requester]; paper "§3.3" },
        // ---- Writeback acknowledgements -------------------------------
        { [MI, OI] @ msg(MsgType::WbAck), if "writeback proceeds" => [];
          gate NonFtOnly; sends [WbData -> Sender]; free [WbMshr] },
        { [EI] @ msg(MsgType::WbAck), if "writeback proceeds (home always wants data)" => [];
          gate NonFtOnly; sends [WbData -> Sender]; free [WbMshr] },
        { [MI] @ msg(MsgType::WbAck), if "writeback proceeds" => [Bw];
          gate FtOnly; sends [WbData -> Sender];
          free [WbMshr, TimerLostRequest]; alloc [Backup, TimerLostData];
          paper "§3.1 writeback backup" },
        { [OI] @ msg(MsgType::WbAck), if "writeback proceeds" => [Bw];
          gate FtOnly; sends [WbData -> Sender];
          free [WbMshr, TimerLostRequest]; alloc [Backup, TimerLostData] },
        { [EI] @ msg(MsgType::WbAck), if "writeback proceeds (home always wants data)" => [Bw];
          gate FtOnly; sends [WbData -> Sender];
          free [WbMshr, TimerLostRequest]; alloc [Backup, TimerLostData] },
        { [II] @ msg(MsgType::WbAck), if "data surrendered: cancel" => [];
          sends [WbNoData -> Sender]; free [WbMshr]; ft_free [TimerLostRequest] },
        { [MI, EI] @ msg(MsgType::WbAck), if "stale put: line reinstated" => [M];
          free [WbMshr]; ft_free [TimerLostRequest] },
        { [OI] @ msg(MsgType::WbAck), if "stale put: line reinstated" => [O];
          free [WbMshr]; ft_free [TimerLostRequest] },
        { [II] @ msg(MsgType::WbAck), if "stale put, no data left" => [];
          free [WbMshr]; ft_free [TimerLostRequest] },
        // ---- Ownership handshake (§3.1) -------------------------------
        { [B, Bw] @ msg(MsgType::AckO) => []; gate FtOnly;
          sends [AckBD -> Sender]; free [Backup, TimerLostData]; paper "§3.1" },
        { [I] @ msg(MsgType::AckO), if "no backup: idempotent re-ack" => [I];
          gate FtOnly; sends [AckBD -> Sender]; paper "§3.4" },
        { [Mb] @ msg(MsgType::AckBD) => [M]; gate FtOnly;
          free [AckBdPend, TimerLostAckBd]; paper "§3.1 unblock" },
        { [Eb] @ msg(MsgType::AckBD) => [E]; gate FtOnly;
          free [AckBdPend, TimerLostAckBd]; paper "§3.1 unblock" },
        // ---- Recovery pings -------------------------------------------
        { [IS, IM, SM, OM] @ msg(MsgType::UnblockPing), if "miss still pending: ignored" => same;
          gate FtOnly },
        { [M] @ msg(MsgType::UnblockPing), if "idempotent re-unblock" => [M];
          gate FtOnly; sends [UnblockEx -> Sender]; paper "§3.4" },
        { [E, Mb, Eb] @ msg(MsgType::UnblockPing), if "idempotent re-unblock" => same;
          gate FtOnly; sends [UnblockEx -> Sender] },
        { [S, O] @ msg(MsgType::UnblockPing), if "idempotent re-unblock" => same;
          gate FtOnly; sends [Unblock -> Sender] },
        { [I] @ msg(MsgType::UnblockPing), if "replayed from completion record (shared)" => [I];
          gate FtOnly; sends [Unblock -> Sender] },
        { [I] @ msg(MsgType::UnblockPing), if "replayed from completion record (exclusive)" => [I];
          gate FtOnly; sends [UnblockEx -> Sender] },
        { [MI, EI, II] @ msg(MsgType::UnblockPing), if "conservative re-unblock from wb" => same;
          gate FtOnly; sends [UnblockEx -> Sender] },
        { [OI] @ msg(MsgType::UnblockPing), if "conservative re-unblock from wb" => [OI];
          gate FtOnly; sends [Unblock -> Sender] },
        { [MI, OI, EI] @ msg(MsgType::WbPing), if "ping completes writeback" => [Bw];
          gate FtOnly; sends [WbData -> Sender];
          free [WbMshr, TimerLostRequest]; alloc [Backup, TimerLostData] },
        { [II] @ msg(MsgType::WbPing), if "data surrendered: cancel" => [];
          gate FtOnly; sends [WbNoData -> Sender]; free [WbMshr, TimerLostRequest] },
        { [Bw] @ msg(MsgType::WbPing), if "backup re-sends writeback data" => [Bw];
          gate FtOnly; sends [WbData -> Sender]; paper "§3.3" },
        { [I] @ msg(MsgType::WbPing), if "no writeback in flight" => [I];
          gate FtOnly; sends [WbCancel -> Sender] },
        { [S, E, O, M, Mb, Eb, MI, OI, EI, II] @ msg(MsgType::OwnershipPing) => same;
          gate FtOnly; sends [AckO -> Sender] },
        { [B, Bw] @ msg(MsgType::OwnershipPing), if "holder acknowledges ownership" => same;
          gate FtOnly; sends [AckO -> Sender] },
        { [IS] @ msg(MsgType::OwnershipPing), if "miss in flight: ownership refused" => [IS];
          gate FtOnly; sends [NackO -> Sender]; paper "§3.3" },
        { [IM, SM, OM] @ msg(MsgType::OwnershipPing),
          if "miss in flight: ownership refused" => same; gate FtOnly; sends [NackO -> Sender] },
        { [I] @ msg(MsgType::OwnershipPing), if "no copy" => [I];
          gate FtOnly; sends [NackO -> Sender] },
        { [B] @ msg(MsgType::NackO), if "backup re-supplies data" => [B];
          gate FtOnly; sends [DataEx -> BackupDest]; paper "§3.3 recovery" },
        { [Bw] @ msg(MsgType::NackO), if "backup re-supplies data" => [Bw];
          gate FtOnly; sends [WbData -> BackupDest] },
        // ---- Timeouts (§3.2 / §3.5) -----------------------------------
        { [IS] @ tmo(TimeoutKind::LostRequest), if "reissue with fresh serial" => [IS];
          gate FtOnly; sends [GetS -> Home]; paper "§3.2" },
        { [IM, SM, OM] @ tmo(TimeoutKind::LostRequest), if "reissue with fresh serial" => same;
          gate FtOnly; sends [GetX -> Home] },
        { [MI, OI, EI, II] @ tmo(TimeoutKind::LostRequest), if "reissue writeback" => same;
          gate FtOnly; sends [Put -> Home] },
        { [Mb] @ tmo(TimeoutKind::LostAckBd), if "re-send AckO with fresh serial" => [Mb];
          gate FtOnly; sends [AckO -> AckPeer]; paper "§3.4" },
        { [Eb] @ tmo(TimeoutKind::LostAckBd), if "re-send AckO with fresh serial" => [Eb];
          gate FtOnly; sends [AckO -> AckPeer] },
        { [B] @ tmo(TimeoutKind::LostData), if "probe the owner" => [B];
          gate FtOnly; sends [OwnershipPing -> BackupDest]; paper "§3.3" },
        { [Bw] @ tmo(TimeoutKind::LostData), if "probe the owner" => [Bw];
          gate FtOnly; sends [OwnershipPing -> BackupDest] },
    ]
}

fn exceptions() -> Vec<Exception> {
    use MsgType as T;
    let mut ex = Vec::new();
    for t in [
        T::GetX,
        T::GetS,
        T::Put,
        T::Unblock,
        T::UnblockEx,
        T::WbData,
        T::WbNoData,
        T::WbCancel,
    ] {
        ex.push(impossible("*", msg(t), "never routed to an L1"));
    }
    ex.push(impossible(
        "*",
        tmo(TimeoutKind::LostUnblock),
        "L1 never arms lost-unblock timers",
    ));
    for t in [
        T::Data,
        T::DataEx,
        T::Ack,
        T::Inv,
        T::FwdGetS,
        T::FwdGetX,
        T::WbAck,
        T::AckO,
        T::AckBD,
        T::UnblockPing,
        T::WbPing,
        T::OwnershipPing,
        T::NackO,
    ] {
        ex.push(ignore(
            "*",
            msg(t),
            "stale serial or no matching structure: discarded",
        ));
    }
    for k in [
        TimeoutKind::LostRequest,
        TimeoutKind::LostAckBd,
        TimeoutKind::LostData,
    ] {
        ex.push(ignore("*", tmo(k), "stale timer generation: no-op"));
    }
    for s in ["IS", "IM", "SM", "OM"] {
        ex.push(impossible(
            s,
            cpu(CpuOp::Load),
            "the CPU blocks on its outstanding miss",
        ));
        ex.push(impossible(
            s,
            cpu(CpuOp::Store),
            "the CPU blocks on its outstanding miss",
        ));
    }
    for s in ["B", "Bw"] {
        ex.push(defer(s, cpu(CpuOp::Load), "cache facet handles the access"));
        ex.push(defer(
            s,
            cpu(CpuOp::Store),
            "cache facet handles the access",
        ));
        ex.push(defer(
            s,
            cpu(CpuOp::Evict),
            "backups are not cache entries; the cache facet decides",
        ));
    }
    ex.push(impossible("I", cpu(CpuOp::Evict), "no resident line"));
    for s in ["Mb", "Eb"] {
        ex.push(impossible(
            s,
            cpu(CpuOp::Evict),
            "blocked lines are not eviction candidates",
        ));
    }
    for s in ["IS", "IM"] {
        ex.push(impossible(
            s,
            cpu(CpuOp::Evict),
            "no cache entry while the miss is pending",
        ));
    }
    for s in ["MI", "OI", "EI", "II"] {
        ex.push(impossible(
            s,
            cpu(CpuOp::Evict),
            "no cache entry during a writeback",
        ));
    }
    for s in ["SM", "OM"] {
        ex.push(ignore(
            s,
            cpu(CpuOp::Evict),
            "eviction races with in-flight upgrades are excluded from the model",
        ));
    }
    ex
}

super::state_ids! {
    /// Ids of the states `L1Controller::table_facets` reports.
    L1Ids {
        i => "I",
        s => "S",
        e => "E",
        o => "O",
        m => "M",
        mb => "Mb",
        eb => "Eb",
        is => "IS",
        im => "IM",
        sm => "SM",
        om => "OM",
        mi => "MI",
        oi => "OI",
        ei => "EI",
        ii => "II",
        b => "B",
        bw => "Bw",
    }
}

pub(super) fn build() -> Result<(ControllerTable, L1Ids), String> {
    let table = ControllerTable::new(Controller::L1, states(), rows(), exceptions())?;
    let ids = L1Ids::resolve(&table)?;
    Ok((table, ids))
}
