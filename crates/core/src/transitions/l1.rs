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
    crate::transitions![
        // ---- CPU operations -------------------------------------------
        { [I] @ cpu(CpuOp::Load) => [IS];
          sends [GetS -> Home]; alloc [Mshr]; ft_alloc [TimerLostRequest];
          paper "read miss" },
        { [I] @ cpu(CpuOp::Store) => [IM];
          sends [GetX -> Home]; alloc [Mshr]; ft_alloc [TimerLostRequest];
          paper "write miss" },
        { [S] @ cpu(CpuOp::Load) => [S] },
        { [E] @ cpu(CpuOp::Load) => [E] },
        { [O] @ cpu(CpuOp::Load) => [O] },
        { [M] @ cpu(CpuOp::Load) => [M] },
        { [Mb] @ cpu(CpuOp::Load) => [Mb]; gate FtOnly },
        { [Eb] @ cpu(CpuOp::Load) => [Eb]; gate FtOnly },
        { [M] @ cpu(CpuOp::Store) => [M] },
        { [E] @ cpu(CpuOp::Store), if "silent upgrade" => [M] },
        { [Mb] @ cpu(CpuOp::Store) => [Mb]; gate FtOnly },
        { [Eb] @ cpu(CpuOp::Store), if "silent upgrade while blocked" => [Mb]; gate FtOnly },
        { [S] @ cpu(CpuOp::Store), if "upgrade miss" => [S, SM];
          sends [GetX -> Home]; alloc [Mshr]; ft_alloc [TimerLostRequest] },
        { [O] @ cpu(CpuOp::Store), if "upgrade miss" => [O, OM];
          sends [GetX -> Home]; alloc [Mshr]; ft_alloc [TimerLostRequest] },
        { [MI] @ cpu(CpuOp::Load), if "stalled behind writeback" => [MI] },
        { [OI] @ cpu(CpuOp::Load), if "stalled behind writeback" => [OI] },
        { [EI] @ cpu(CpuOp::Load), if "stalled behind writeback" => [EI] },
        { [II] @ cpu(CpuOp::Load), if "stalled behind writeback" => [II] },
        { [MI] @ cpu(CpuOp::Store), if "stalled behind writeback" => [MI] },
        { [OI] @ cpu(CpuOp::Store), if "stalled behind writeback" => [OI] },
        { [EI] @ cpu(CpuOp::Store), if "stalled behind writeback" => [EI] },
        { [II] @ cpu(CpuOp::Store), if "stalled behind writeback" => [II] },
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
        { [IS] @ msg(MsgType::DataEx), if "invalidation acks outstanding" => [IS] },
        { [IM] @ msg(MsgType::DataEx), if "invalidation acks outstanding" => [IM] },
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
        { [IS] @ msg(MsgType::Ack), if "acks outstanding" => [IS] },
        { [IM] @ msg(MsgType::Ack), if "acks outstanding" => [IM] },
        { [SM] @ msg(MsgType::Ack), if "acks outstanding" => [SM] },
        { [OM] @ msg(MsgType::Ack), if "acks outstanding" => [OM] },
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
        { [S] @ msg(MsgType::Inv) => []; sends [Ack -> Requester] },
        { [O] @ msg(MsgType::Inv) => []; sends [Ack -> Requester] },
        // A delayed Inv can reach a (re-acquired) exclusive owner even
        // under plain DirCMP when the network reorders it past a complete
        // later transaction; the ack it triggers is stale and discarded.
        { [E] @ msg(MsgType::Inv), if "stale: exclusive line kept" => [E];
          sends [Ack -> Requester] },
        { [M] @ msg(MsgType::Inv), if "stale: exclusive line kept" => [M];
          sends [Ack -> Requester] },
        { [Mb] @ msg(MsgType::Inv), if "blocked line kept" => [Mb];
          gate FtOnly; sends [Ack -> Requester] },
        { [Eb] @ msg(MsgType::Inv), if "blocked line kept" => [Eb];
          gate FtOnly; sends [Ack -> Requester] },
        { [IS] @ msg(MsgType::Inv), if "no line yet" => [IS]; sends [Ack -> Requester] },
        { [IM] @ msg(MsgType::Inv), if "no line yet" => [IM]; sends [Ack -> Requester] },
        { [SM] @ msg(MsgType::Inv), if "upgrade loses the line" => [I, IM];
          sends [Ack -> Requester] },
        { [OM] @ msg(MsgType::Inv), if "upgrade loses the line" => [I, IM];
          sends [Ack -> Requester] },
        // ---- Forwards -------------------------------------------------
        { [M] @ msg(MsgType::FwdGetS) => [O]; sends [Data -> Requester];
          paper "owner downgrades" },
        { [E] @ msg(MsgType::FwdGetS) => [O]; sends [Data -> Requester] },
        { [O] @ msg(MsgType::FwdGetS) => [O]; sends [Data -> Requester] },
        { [Mb] @ msg(MsgType::FwdGetS), if "deferred until AckBD" => [Mb]; gate FtOnly },
        { [Eb] @ msg(MsgType::FwdGetS), if "deferred until AckBD" => [Eb]; gate FtOnly },
        { [MI] @ msg(MsgType::FwdGetS), if "writeback in flight supplies data" => [MI];
          sends [Data -> Requester] },
        { [OI] @ msg(MsgType::FwdGetS), if "writeback in flight supplies data" => [OI];
          sends [Data -> Requester] },
        { [EI] @ msg(MsgType::FwdGetS), if "writeback in flight supplies data" => [EI];
          sends [Data -> Requester] },
        { [M] @ msg(MsgType::FwdGetX) => []; gate NonFtOnly; sends [DataEx -> Requester] },
        { [E] @ msg(MsgType::FwdGetX) => []; gate NonFtOnly; sends [DataEx -> Requester] },
        { [O] @ msg(MsgType::FwdGetX) => []; gate NonFtOnly; sends [DataEx -> Requester] },
        { [M] @ msg(MsgType::FwdGetX) => [B]; gate FtOnly;
          sends [DataEx -> Requester]; alloc [Backup, TimerLostData];
          paper "§3.1 backup creation" },
        { [E] @ msg(MsgType::FwdGetX) => [B]; gate FtOnly;
          sends [DataEx -> Requester]; alloc [Backup, TimerLostData] },
        { [O] @ msg(MsgType::FwdGetX) => [B]; gate FtOnly;
          sends [DataEx -> Requester]; alloc [Backup, TimerLostData] },
        { [S] @ msg(MsgType::FwdGetX), if "non-owner copy dropped" => [] },
        { [Mb] @ msg(MsgType::FwdGetX), if "deferred until AckBD" => [Mb]; gate FtOnly },
        { [Eb] @ msg(MsgType::FwdGetX), if "deferred until AckBD" => [Eb]; gate FtOnly },
        { [MI] @ msg(MsgType::FwdGetX), if "writeback surrenders data" => [II];
          gate NonFtOnly; sends [DataEx -> Requester] },
        { [OI] @ msg(MsgType::FwdGetX), if "writeback surrenders data" => [II];
          gate NonFtOnly; sends [DataEx -> Requester] },
        { [EI] @ msg(MsgType::FwdGetX), if "writeback surrenders data" => [II];
          gate NonFtOnly; sends [DataEx -> Requester] },
        { [MI] @ msg(MsgType::FwdGetX), if "writeback surrenders data" => [II, B];
          gate FtOnly; sends [DataEx -> Requester]; alloc [Backup, TimerLostData] },
        { [OI] @ msg(MsgType::FwdGetX), if "writeback surrenders data" => [II, B];
          gate FtOnly; sends [DataEx -> Requester]; alloc [Backup, TimerLostData] },
        { [EI] @ msg(MsgType::FwdGetX), if "writeback surrenders data" => [II, B];
          gate FtOnly; sends [DataEx -> Requester]; alloc [Backup, TimerLostData] },
        { [B] @ msg(MsgType::FwdGetX), if "backup re-targets the new requester" => [B];
          gate FtOnly; sends [DataEx -> Requester]; paper "§3.3" },
        // ---- Writeback acknowledgements -------------------------------
        { [MI] @ msg(MsgType::WbAck), if "writeback proceeds" => [];
          gate NonFtOnly; sends [WbData -> Sender]; free [WbMshr] },
        { [OI] @ msg(MsgType::WbAck), if "writeback proceeds" => [];
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
        { [MI] @ msg(MsgType::WbAck), if "stale put: line reinstated" => [M];
          free [WbMshr]; ft_free [TimerLostRequest] },
        { [EI] @ msg(MsgType::WbAck), if "stale put: line reinstated" => [M];
          free [WbMshr]; ft_free [TimerLostRequest] },
        { [OI] @ msg(MsgType::WbAck), if "stale put: line reinstated" => [O];
          free [WbMshr]; ft_free [TimerLostRequest] },
        { [II] @ msg(MsgType::WbAck), if "stale put, no data left" => [];
          free [WbMshr]; ft_free [TimerLostRequest] },
        // ---- Ownership handshake (§3.1) -------------------------------
        { [B] @ msg(MsgType::AckO) => []; gate FtOnly;
          sends [AckBD -> Sender]; free [Backup, TimerLostData]; paper "§3.1" },
        { [Bw] @ msg(MsgType::AckO) => []; gate FtOnly;
          sends [AckBD -> Sender]; free [Backup, TimerLostData]; paper "§3.1" },
        { [I] @ msg(MsgType::AckO), if "no backup: idempotent re-ack" => [I];
          gate FtOnly; sends [AckBD -> Sender]; paper "§3.4" },
        { [Mb] @ msg(MsgType::AckBD) => [M]; gate FtOnly;
          free [AckBdPend, TimerLostAckBd]; paper "§3.1 unblock" },
        { [Eb] @ msg(MsgType::AckBD) => [E]; gate FtOnly;
          free [AckBdPend, TimerLostAckBd]; paper "§3.1 unblock" },
        // ---- Recovery pings -------------------------------------------
        { [IS] @ msg(MsgType::UnblockPing), if "miss still pending: ignored" => [IS];
          gate FtOnly },
        { [IM] @ msg(MsgType::UnblockPing), if "miss still pending: ignored" => [IM];
          gate FtOnly },
        { [SM] @ msg(MsgType::UnblockPing), if "miss still pending: ignored" => [SM];
          gate FtOnly },
        { [OM] @ msg(MsgType::UnblockPing), if "miss still pending: ignored" => [OM];
          gate FtOnly },
        { [M] @ msg(MsgType::UnblockPing), if "idempotent re-unblock" => [M];
          gate FtOnly; sends [UnblockEx -> Sender]; paper "§3.4" },
        { [E] @ msg(MsgType::UnblockPing), if "idempotent re-unblock" => [E];
          gate FtOnly; sends [UnblockEx -> Sender] },
        { [Mb] @ msg(MsgType::UnblockPing), if "idempotent re-unblock" => [Mb];
          gate FtOnly; sends [UnblockEx -> Sender] },
        { [Eb] @ msg(MsgType::UnblockPing), if "idempotent re-unblock" => [Eb];
          gate FtOnly; sends [UnblockEx -> Sender] },
        { [S] @ msg(MsgType::UnblockPing), if "idempotent re-unblock" => [S];
          gate FtOnly; sends [Unblock -> Sender] },
        { [O] @ msg(MsgType::UnblockPing), if "idempotent re-unblock" => [O];
          gate FtOnly; sends [Unblock -> Sender] },
        { [I] @ msg(MsgType::UnblockPing), if "replayed from completion record (shared)" => [I];
          gate FtOnly; sends [Unblock -> Sender] },
        { [I] @ msg(MsgType::UnblockPing), if "replayed from completion record (exclusive)" => [I];
          gate FtOnly; sends [UnblockEx -> Sender] },
        { [MI] @ msg(MsgType::UnblockPing), if "conservative re-unblock from wb" => [MI];
          gate FtOnly; sends [UnblockEx -> Sender] },
        { [EI] @ msg(MsgType::UnblockPing), if "conservative re-unblock from wb" => [EI];
          gate FtOnly; sends [UnblockEx -> Sender] },
        { [II] @ msg(MsgType::UnblockPing), if "conservative re-unblock from wb" => [II];
          gate FtOnly; sends [UnblockEx -> Sender] },
        { [OI] @ msg(MsgType::UnblockPing), if "conservative re-unblock from wb" => [OI];
          gate FtOnly; sends [Unblock -> Sender] },
        { [MI] @ msg(MsgType::WbPing), if "ping completes writeback" => [Bw];
          gate FtOnly; sends [WbData -> Sender];
          free [WbMshr, TimerLostRequest]; alloc [Backup, TimerLostData] },
        { [OI] @ msg(MsgType::WbPing), if "ping completes writeback" => [Bw];
          gate FtOnly; sends [WbData -> Sender];
          free [WbMshr, TimerLostRequest]; alloc [Backup, TimerLostData] },
        { [EI] @ msg(MsgType::WbPing), if "ping completes writeback" => [Bw];
          gate FtOnly; sends [WbData -> Sender];
          free [WbMshr, TimerLostRequest]; alloc [Backup, TimerLostData] },
        { [II] @ msg(MsgType::WbPing), if "data surrendered: cancel" => [];
          gate FtOnly; sends [WbNoData -> Sender]; free [WbMshr, TimerLostRequest] },
        { [Bw] @ msg(MsgType::WbPing), if "backup re-sends writeback data" => [Bw];
          gate FtOnly; sends [WbData -> Sender]; paper "§3.3" },
        { [I] @ msg(MsgType::WbPing), if "no writeback in flight" => [I];
          gate FtOnly; sends [WbCancel -> Sender] },
        { [S] @ msg(MsgType::OwnershipPing) => [S]; gate FtOnly; sends [AckO -> Sender] },
        { [E] @ msg(MsgType::OwnershipPing) => [E]; gate FtOnly; sends [AckO -> Sender] },
        { [O] @ msg(MsgType::OwnershipPing) => [O]; gate FtOnly; sends [AckO -> Sender] },
        { [M] @ msg(MsgType::OwnershipPing) => [M]; gate FtOnly; sends [AckO -> Sender] },
        { [Mb] @ msg(MsgType::OwnershipPing) => [Mb]; gate FtOnly; sends [AckO -> Sender] },
        { [Eb] @ msg(MsgType::OwnershipPing) => [Eb]; gate FtOnly; sends [AckO -> Sender] },
        { [MI] @ msg(MsgType::OwnershipPing) => [MI]; gate FtOnly; sends [AckO -> Sender] },
        { [OI] @ msg(MsgType::OwnershipPing) => [OI]; gate FtOnly; sends [AckO -> Sender] },
        { [EI] @ msg(MsgType::OwnershipPing) => [EI]; gate FtOnly; sends [AckO -> Sender] },
        { [II] @ msg(MsgType::OwnershipPing) => [II]; gate FtOnly; sends [AckO -> Sender] },
        { [B] @ msg(MsgType::OwnershipPing), if "holder acknowledges ownership" => [B];
          gate FtOnly; sends [AckO -> Sender] },
        { [Bw] @ msg(MsgType::OwnershipPing), if "holder acknowledges ownership" => [Bw];
          gate FtOnly; sends [AckO -> Sender] },
        { [IS] @ msg(MsgType::OwnershipPing), if "miss in flight: ownership refused" => [IS];
          gate FtOnly; sends [NackO -> Sender]; paper "§3.3" },
        { [IM] @ msg(MsgType::OwnershipPing), if "miss in flight: ownership refused" => [IM];
          gate FtOnly; sends [NackO -> Sender] },
        { [SM] @ msg(MsgType::OwnershipPing), if "miss in flight: ownership refused" => [SM];
          gate FtOnly; sends [NackO -> Sender] },
        { [OM] @ msg(MsgType::OwnershipPing), if "miss in flight: ownership refused" => [OM];
          gate FtOnly; sends [NackO -> Sender] },
        { [I] @ msg(MsgType::OwnershipPing), if "no copy" => [I];
          gate FtOnly; sends [NackO -> Sender] },
        { [B] @ msg(MsgType::NackO), if "backup re-supplies data" => [B];
          gate FtOnly; sends [DataEx -> BackupDest]; paper "§3.3 recovery" },
        { [Bw] @ msg(MsgType::NackO), if "backup re-supplies data" => [Bw];
          gate FtOnly; sends [WbData -> BackupDest] },
        // ---- Timeouts (§3.2 / §3.5) -----------------------------------
        { [IS] @ tmo(TimeoutKind::LostRequest), if "reissue with fresh serial" => [IS];
          gate FtOnly; sends [GetS -> Home]; paper "§3.2" },
        { [IM] @ tmo(TimeoutKind::LostRequest), if "reissue with fresh serial" => [IM];
          gate FtOnly; sends [GetX -> Home] },
        { [SM] @ tmo(TimeoutKind::LostRequest), if "reissue with fresh serial" => [SM];
          gate FtOnly; sends [GetX -> Home] },
        { [OM] @ tmo(TimeoutKind::LostRequest), if "reissue with fresh serial" => [OM];
          gate FtOnly; sends [GetX -> Home] },
        { [MI] @ tmo(TimeoutKind::LostRequest), if "reissue writeback" => [MI];
          gate FtOnly; sends [Put -> Home] },
        { [OI] @ tmo(TimeoutKind::LostRequest), if "reissue writeback" => [OI];
          gate FtOnly; sends [Put -> Home] },
        { [EI] @ tmo(TimeoutKind::LostRequest), if "reissue writeback" => [EI];
          gate FtOnly; sends [Put -> Home] },
        { [II] @ tmo(TimeoutKind::LostRequest), if "reissue writeback" => [II];
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
