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
    cpu, defer, ignore, impossible, msg, tmo, Controller, ControllerTable, CpuOp, Event, Exception,
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
        // ---- Victim selection (a fill evicts the line) ----------------
        { [S] @ Event::Victim, if "silent eviction" => [] },
        { [E] @ Event::Victim => [EI];
          sends [Put -> Home]; alloc [WbMshr]; ft_alloc [TimerLostRequest];
          paper "three-phase writeback" },
        { [M] @ Event::Victim => [MI];
          sends [Put -> Home]; alloc [WbMshr]; ft_alloc [TimerLostRequest] },
        { [O] @ Event::Victim => [OI];
          sends [Put -> Home]; alloc [WbMshr]; ft_alloc [TimerLostRequest] },
        // ---- Data / DataEx / Ack: miss completion ---------------------
        // The guards read the miss once the message is taken into it.
        { [IS] @ msg(MsgType::Data), if "read miss completes shared" => [S];
          sends [Unblock -> Home]; free [Mshr]; ft_free [TimerLostRequest] },
        { [IS, IM, SM, OM] @ msg(MsgType::DataEx),
          if AcksOutstanding "invalidation acks outstanding" => same },
        { [SM, OM] @ msg(MsgType::DataEx), if NoData "upgrade grant without data" => [M];
          sends [UnblockEx -> Home]; free [Mshr]; ft_free [TimerLostRequest] },
        { [IS] @ msg(MsgType::DataEx), if DirtyGrant "dirty exclusive grant, acks complete" => [M];
          gate NonFtOnly; sends [UnblockEx -> Home]; free [Mshr] },
        { [IS] @ msg(MsgType::DataEx), if DirtyGrant "dirty exclusive grant, acks complete" => [Mb];
          gate FtOnly; sends [AckO -> AckPeer, UnblockEx -> Home];
          free [Mshr, TimerLostRequest]; alloc [AckBdPend, TimerLostAckBd];
          paper "§3.1 ownership handshake" },
        { [IS] @ msg(MsgType::DataEx), if "clean exclusive grant, acks complete" => [E];
          gate NonFtOnly; sends [UnblockEx -> Home]; free [Mshr] },
        { [IS] @ msg(MsgType::DataEx), if "clean exclusive grant, acks complete" => [Eb];
          gate FtOnly; sends [AckO -> AckPeer, UnblockEx -> Home];
          free [Mshr, TimerLostRequest]; alloc [AckBdPend, TimerLostAckBd];
          paper "§3.1 ownership handshake" },
        { [IM, SM, OM] @ msg(MsgType::DataEx), if "exclusive grant with data, acks complete" => [M];
          gate NonFtOnly; sends [UnblockEx -> Home]; free [Mshr] },
        { [IM, SM, OM] @ msg(MsgType::DataEx), if "exclusive grant with data, acks complete" => [Mb];
          gate FtOnly; sends [AckO -> AckPeer, UnblockEx -> Home];
          free [Mshr, TimerLostRequest]; alloc [AckBdPend, TimerLostAckBd];
          paper "§3.1 ownership handshake" },
        { [IS, IM, SM, OM] @ msg(MsgType::Ack), if AcksOutstanding "acks outstanding" => same },
        { [SM, OM] @ msg(MsgType::Ack), if NoData "final ack, upgrade without data" => [M];
          sends [UnblockEx -> Home]; free [Mshr]; ft_free [TimerLostRequest] },
        { [IS] @ msg(MsgType::Ack), if DirtyGrant "final ack, dirty exclusive grant" => [M];
          gate NonFtOnly; sends [UnblockEx -> Home]; free [Mshr] },
        { [IS] @ msg(MsgType::Ack), if DirtyGrant "final ack, dirty exclusive grant" => [Mb];
          gate FtOnly; sends [AckO -> AckPeer, UnblockEx -> Home];
          free [Mshr, TimerLostRequest]; alloc [AckBdPend, TimerLostAckBd] },
        { [IS] @ msg(MsgType::Ack), if "final ack, clean exclusive grant" => [E];
          gate NonFtOnly; sends [UnblockEx -> Home]; free [Mshr] },
        { [IS] @ msg(MsgType::Ack), if "final ack, clean exclusive grant" => [Eb];
          gate FtOnly; sends [AckO -> AckPeer, UnblockEx -> Home];
          free [Mshr, TimerLostRequest]; alloc [AckBdPend, TimerLostAckBd] },
        { [IM, SM, OM] @ msg(MsgType::Ack), if "final ack, data held" => [M];
          gate NonFtOnly; sends [UnblockEx -> Home]; free [Mshr] },
        { [IM, SM, OM] @ msg(MsgType::Ack), if "final ack, data held" => [Mb];
          gate FtOnly; sends [AckO -> AckPeer, UnblockEx -> Home];
          free [Mshr, TimerLostRequest]; alloc [AckBdPend, TimerLostAckBd] },
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
        { [M, E, O] @ msg(MsgType::FwdGetS) => [O]; sends [Data -> Requester];
          paper "owner downgrades" },
        { [Mb, Eb] @ msg(MsgType::FwdGetS), if "deferred until AckBD" => same; gate FtOnly },
        { [MI, OI, EI] @ msg(MsgType::FwdGetS), if "writeback in flight supplies data" => same;
          sends [Data -> Requester] },
        { [M, E, O] @ msg(MsgType::FwdGetX) => []; gate NonFtOnly; sends [DataEx -> Requester] },
        { [M, E, O] @ msg(MsgType::FwdGetX) => [B]; gate FtOnly;
          sends [DataEx -> Requester]; alloc [Backup, TimerLostData];
          paper "§3.1 backup creation" },
        { [OM] @ msg(MsgType::FwdGetX), if "an earlier writer takes the line: the upgrade refetches" => [I, IM];
          gate NonFtOnly; sends [DataEx -> Requester] },
        { [OM] @ msg(MsgType::FwdGetX), if "an earlier writer takes the line: the upgrade refetches" => [I, IM, B];
          gate FtOnly; sends [DataEx -> Requester]; alloc [Backup, TimerLostData] },
        { [S] @ msg(MsgType::FwdGetX), if "non-owner copy dropped (stale)" => [] },
        { [Mb, Eb] @ msg(MsgType::FwdGetX), if "deferred until AckBD" => same; gate FtOnly },
        { [MI, OI, EI] @ msg(MsgType::FwdGetX), if "writeback surrenders data" => [II];
          gate NonFtOnly; sends [DataEx -> Requester] },
        { [MI, OI, EI] @ msg(MsgType::FwdGetX), if "writeback surrenders data" => [II, B];
          gate FtOnly; sends [DataEx -> Requester]; alloc [Backup, TimerLostData] },
        { [B, Bw] @ msg(MsgType::FwdGetX), if "backup re-targets the new requester" => [B];
          gate FtOnly; sends [DataEx -> Requester]; paper "§3.3" },
        // ---- Writeback acknowledgements -------------------------------
        { [MI, EI] @ msg(MsgType::WbAck), if WbStale "stale put: line reinstated" => [M];
          free [WbMshr]; ft_free [TimerLostRequest] },
        { [OI] @ msg(MsgType::WbAck), if WbStale "stale put: line reinstated" => [O];
          free [WbMshr]; ft_free [TimerLostRequest] },
        { [II] @ msg(MsgType::WbAck), if WbStale "stale put, no data left" => [];
          free [WbMshr]; ft_free [TimerLostRequest] },
        { [MI, OI, EI] @ msg(MsgType::WbAck), if "writeback proceeds (clean data too)" => [];
          gate NonFtOnly; sends [WbData -> Sender]; free [WbMshr] },
        { [MI, OI, EI] @ msg(MsgType::WbAck), if "writeback proceeds (clean data too)" => [Bw];
          gate FtOnly; sends [WbData -> Sender];
          free [WbMshr, TimerLostRequest]; alloc [Backup, TimerLostData];
          paper "§3.1 writeback backup" },
        { [II] @ msg(MsgType::WbAck), if "data surrendered: cancel" => [];
          sends [WbNoData -> Sender]; free [WbMshr]; ft_free [TimerLostRequest] },
        // ---- Ownership handshake (§3.1) -------------------------------
        { [B, Bw] @ msg(MsgType::AckO) => []; gate FtOnly;
          sends [AckBD -> Sender]; free [Backup, TimerLostData]; paper "§3.1" },
        { [I, S, E, O, M, Mb, Eb] @ msg(MsgType::AckO), if "no backup: idempotent re-ack" => same;
          gate FtOnly; sends [AckBD -> Sender]; paper "§3.4" },
        { [Mb] @ msg(MsgType::AckBD) => [M]; gate FtOnly;
          free [AckBdPend, TimerLostAckBd]; paper "§3.1 unblock" },
        { [Eb] @ msg(MsgType::AckBD) => [E]; gate FtOnly;
          free [AckBdPend, TimerLostAckBd]; paper "§3.1 unblock" },
        // ---- Recovery pings -------------------------------------------
        // An UnblockPing names the kind of request it waits on: the pending
        // miss's, else a completed transaction's, whose unblock the
        // completion record replays; else the line's state answers.
        { [IS, IM, SM, OM] @ msg(MsgType::UnblockPing),
          if PingsMiss "miss still pending: ignored, its reissue recovers" => same; gate FtOnly },
        { [IS, IM, SM, OM, MI, OI, EI, II, I, S, E, O, M, Mb, Eb] @ msg(MsgType::UnblockPing),
          if Replay(Unblock) "replayed from completion record (shared)" => same;
          gate FtOnly; sends [Unblock -> Sender]; paper "§3.4" },
        { [IS, IM, SM, OM, MI, OI, EI, II, I, S, E, O, M, Mb, Eb] @ msg(MsgType::UnblockPing),
          if Replay(UnblockEx) "replayed from completion record (exclusive)" => same;
          gate FtOnly; sends [UnblockEx -> Sender] },
        { [IS, IM, SM, OM, MI, OI, EI, II, I, S, E, O, M, Mb, Eb] @ msg(MsgType::UnblockPing),
          if Replay(AckO) "replayed from completion record (exclusive, AckO piggybacked)" => same;
          gate FtOnly; sends [UnblockEx -> Sender, AckO -> Sender] },
        { [IS, IM, SM, OM, OI, I, S, O] @ msg(MsgType::UnblockPing),
          if "no record: shared re-unblock" => same; gate FtOnly; sends [Unblock -> Sender] },
        { [MI, EI, E, M] @ msg(MsgType::UnblockPing), if "no record: exclusive re-unblock" => same;
          gate FtOnly; sends [UnblockEx -> Sender] },
        { [II] @ msg(MsgType::UnblockPing), if WbExclusive "no record: exclusive re-unblock" => [II];
          gate FtOnly; sends [UnblockEx -> Sender] },
        { [II] @ msg(MsgType::UnblockPing), if "no record: shared re-unblock" => [II];
          gate FtOnly; sends [Unblock -> Sender] },
        { [Mb, Eb] @ msg(MsgType::UnblockPing),
          if OwesAckO "no record: exclusive re-unblock, the AckO owed rides" => same;
          gate FtOnly; sends [UnblockEx -> Sender, AckO -> Sender] },
        { [Mb, Eb] @ msg(MsgType::UnblockPing), if "no record: exclusive re-unblock" => same;
          gate FtOnly; sends [UnblockEx -> Sender] },
        { [MI, OI, EI] @ msg(MsgType::WbPing), if "ping completes writeback" => [Bw];
          gate FtOnly; sends [WbData -> Sender];
          free [WbMshr, TimerLostRequest]; alloc [Backup, TimerLostData] },
        { [II] @ msg(MsgType::WbPing), if "data surrendered: cancel" => [];
          gate FtOnly; sends [WbNoData -> Sender]; free [WbMshr, TimerLostRequest] },
        { [Bw] @ msg(MsgType::WbPing), if "backup re-sends writeback data" => [Bw];
          gate FtOnly; sends [WbData -> Sender]; paper "§3.3" },
        { [I, S, E, O, M, Mb, Eb] @ msg(MsgType::WbPing), if "no writeback in flight" => same;
          gate FtOnly; sends [WbCancel -> Sender] },
        { [S, E, O, M, Mb, Eb, MI, OI, EI, II] @ msg(MsgType::OwnershipPing) => same;
          gate FtOnly; sends [AckO -> Sender] },
        { [B, Bw] @ msg(MsgType::OwnershipPing), if "holder acknowledges ownership" => same;
          gate FtOnly; sends [AckO -> Sender] },
        { [IS, IM, SM, OM] @ msg(MsgType::OwnershipPing),
          if "miss in flight: ownership refused" => same; gate FtOnly; sends [NackO -> Sender];
          paper "§3.3" },
        { [I] @ msg(MsgType::OwnershipPing), if "no copy" => [I];
          gate FtOnly; sends [NackO -> Sender] },
        { [B] @ msg(MsgType::NackO), if "backup re-supplies data" => [B];
          gate FtOnly; sends [DataEx -> BackupDest]; paper "§3.3 recovery" },
        { [Bw] @ msg(MsgType::NackO), if "backup re-supplies data" => [Bw];
          gate FtOnly; sends [WbData -> BackupDest] },
        // ---- Timeouts (§3.2 / §3.5) -----------------------------------
        // A firing answers the record whose timer slot carries its
        // generation.
        { [IS] @ tmo(TimeoutKind::LostRequest), if "reissue with fresh serial" => [IS];
          gate FtOnly; sends [GetS -> Home]; paper "§3.2" },
        { [IM, SM, OM] @ tmo(TimeoutKind::LostRequest), if "reissue with fresh serial" => same;
          gate FtOnly; sends [GetX -> Home] },
        { [MI, OI, EI, II] @ tmo(TimeoutKind::LostRequest), if "reissue writeback" => same;
          gate FtOnly; sends [Put -> Home] },
        { [Mb, Eb] @ tmo(TimeoutKind::LostAckBd), if "re-send AckO with fresh serial" => same;
          gate FtOnly; sends [AckO -> AckPeer]; paper "§3.4" },
        { [B, Bw] @ tmo(TimeoutKind::LostData), if "probe the owner" => same;
          gate FtOnly; sends [OwnershipPing -> BackupDest]; paper "§3.3" },
    ]
}

fn exceptions() -> Vec<Exception> {
    use MsgType as T;
    let never_routed = [
        T::GetX,
        T::GetS,
        T::Put,
        T::Unblock,
        T::UnblockEx,
        T::WbData,
        T::WbNoData,
        T::WbCancel,
    ];
    let mut ex = Vec::new();
    for t in MsgType::ALL {
        ex.push(if never_routed.contains(&t) {
            impossible("*", msg(t), "never routed to an L1")
        } else {
            ignore(
                "*",
                msg(t),
                "stale serial or no matching structure: discarded",
            )
        });
    }
    for k in TimeoutKind::ALL {
        ex.push(if k == TimeoutKind::LostUnblock {
            impossible("*", tmo(k), "L1 never arms lost-unblock timers")
        } else {
            ignore("*", tmo(k), "stale timer generation: no-op")
        });
    }
    for s in ["IS", "IM", "SM", "OM"] {
        for op in CpuOp::ALL {
            ex.push(impossible(
                s,
                cpu(op),
                "the CPU blocks on its outstanding miss",
            ));
        }
        let reason = "a line with a miss in flight is never chosen as victim";
        ex.push(impossible(s, Event::Victim, reason));
    }
    for s in ["B", "Bw"] {
        for op in CpuOp::ALL {
            ex.push(defer(s, cpu(op), "cache facet handles the access"));
        }
        let reason = "backups are not cache entries; the cache facet decides";
        ex.push(defer(s, Event::Victim, reason));
    }
    // Victim selection is an internal event: a fill only evicts a resident
    // line that is neither blocked nor upgrading.
    ex.push(impossible("I", Event::Victim, "no resident line"));
    for s in ["Mb", "Eb"] {
        ex.push(impossible(
            s,
            Event::Victim,
            "blocked lines are not eviction candidates",
        ));
    }
    for s in ["MI", "OI", "EI", "II"] {
        ex.push(impossible(
            s,
            Event::Victim,
            "no cache entry during a writeback",
        ));
    }
    ex
}

super::state_ids! {
    /// Ids of the states `L1Controller` reports.
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

impl L1Ids {
    /// Whether state id `id` is a line state (the `Cache` family).
    #[inline]
    pub(crate) fn is_cache(&self, id: u8) -> bool {
        [self.i, self.s, self.e, self.o, self.m, self.mb, self.eb].contains(&id)
    }

    /// Whether state id `id` is a writeback (the `Wb` family).
    #[inline]
    pub(crate) fn is_wb(&self, id: u8) -> bool {
        [self.mi, self.oi, self.ei, self.ii].contains(&id)
    }
}

pub(super) fn build() -> Result<(ControllerTable, L1Ids), String> {
    let table = ControllerTable::new(Controller::L1, states(), rows(), exceptions())?;
    let ids = L1Ids::resolve(&table)?;
    Ok((table, ids))
}
