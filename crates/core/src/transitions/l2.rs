//! Reified transition table for an L2 bank (directory) controller.
//!
//! Facet families:
//! * `Line` (mandatory, default `NP`): directory-visible line state —
//!   `NP` not present, `RO` resident with the bank holding data and no L1
//!   owner, `MT` an L1 owner holds the line.
//! * `Tbe`: an allocated transaction buffer entry, named by its stage.
//! * `Ext`: the §3.1.1 external-unblock record (`EXT`) — the bank has
//!   unblocked the requester but memory's AckBD is still outstanding.
//! * `MemBk`: backup of data written back to memory (`MB`), held until
//!   memory acknowledges ownership (§3.1).

use super::Resource::{
    ExtPending, MemBackup, Tbe, TimerLostAckBd, TimerLostData, TimerLostRequest, TimerLostUnblock,
};
use super::{
    defer, ignore, impossible, msg, tmo, Controller, ControllerTable, Event, Exception, StateDecl,
};
use crate::msg::MsgType;
use crate::proto::TimeoutKind;

const TBE_STATES: [&str; 8] = [
    "WaitMem",
    "WaitUnblock",
    "WaitFillUnblock",
    "WaitWbData",
    "WaitWbAckBd",
    "WaitRecall",
    "WaitRecallAckBd",
    "WaitMemWbAck",
];

fn states() -> Vec<StateDecl> {
    vec![
        StateDecl::new("NP", "Line", "not present in this bank"),
        StateDecl::new("RO", "Line", "resident, bank holds data, no L1 owner"),
        StateDecl::new("MT", "Line", "an L1 owner holds the line"),
        StateDecl::new("WaitMem", "Tbe", "fill requested from memory")
            .implies(&[Tbe])
            .ft_implies(&[TimerLostRequest]),
        StateDecl::new("WaitUnblock", "Tbe", "grant sent, waiting for Unblock")
            .implies(&[Tbe])
            .ft_implies(&[TimerLostUnblock]),
        StateDecl::new(
            "WaitFillUnblock",
            "Tbe",
            "memory's fill forwarded, waiting for the unblock; the fill's lost-request timer still armed",
        )
        .ft()
        .implies(&[Tbe, TimerLostUnblock, TimerLostRequest]),
        StateDecl::new(
            "WaitWbData",
            "Tbe",
            "WbAck sent, waiting for writeback data",
        )
        .implies(&[Tbe])
        .ft_implies(&[TimerLostUnblock]),
        StateDecl::new(
            "WaitWbAckBd",
            "Tbe",
            "writeback data taken, waiting for AckBD",
        )
        .ft()
        .implies(&[Tbe, TimerLostAckBd, TimerLostUnblock]),
        StateDecl::new("WaitRecall", "Tbe", "victim recall in progress")
            .implies(&[Tbe])
            .ft_implies(&[TimerLostUnblock]),
        StateDecl::new(
            "WaitRecallAckBd",
            "Tbe",
            "recall data taken, waiting for AckBD",
        )
        .ft()
        .implies(&[Tbe, TimerLostAckBd, TimerLostUnblock]),
        StateDecl::new(
            "WaitMemWbAck",
            "Tbe",
            "Put sent to memory, waiting for WbAck",
        )
        .implies(&[Tbe])
        .ft_implies(&[TimerLostRequest]),
        StateDecl::new("EXT", "Ext", "external unblock pending at memory (§3.1.1)")
            .ft()
            .implies(&[ExtPending, TimerLostAckBd]),
        StateDecl::new(
            "MB",
            "MemBk",
            "backup of data written back to memory (§3.1)",
        )
        .ft()
        .implies(&[MemBackup, TimerLostData]),
    ]
}

#[allow(clippy::too_many_lines)]
fn rows() -> Vec<super::Transition> {
    super::transitions![
        // ---- Request admission & service ------------------------------
        { [NP] @ msg(MsgType::GetS), if "miss: fill from memory" => [WaitMem];
          sends [GetX -> MemCtl]; alloc [Tbe]; ft_alloc [TimerLostRequest];
          paper "§2 L2 miss" },
        { [NP] @ msg(MsgType::GetX), if "miss: fill from memory" => [WaitMem];
          sends [GetX -> MemCtl]; alloc [Tbe]; ft_alloc [TimerLostRequest] },
        { [RO] @ msg(MsgType::GetS), if Sharers "sharers exist: shared grant" => [RO, WaitUnblock];
          sends [Data -> Requester]; alloc [Tbe]; ft_alloc [TimerLostUnblock] },
        { [RO] @ msg(MsgType::GetS), if "no sharers: exclusive grant" => [RO, WaitUnblock];
          sends [DataEx -> Requester]; alloc [Tbe]; ft_alloc [TimerLostUnblock] },
        { [RO] @ msg(MsgType::GetX), if "exclusive grant with invalidations" => [RO, WaitUnblock];
          sends [DataEx -> Requester, Inv -> Sharers];
          alloc [Tbe]; ft_alloc [TimerLostUnblock] },
        { [MT] @ msg(MsgType::GetS), if Migratory "migratory grant" => [MT, WaitUnblock];
          sends [FwdGetX -> OwnerL1]; alloc [Tbe]; ft_alloc [TimerLostUnblock];
          paper "migratory sharing" },
        { [MT] @ msg(MsgType::GetS), if "forward to owner" => [MT, WaitUnblock];
          sends [FwdGetS -> OwnerL1]; alloc [Tbe]; ft_alloc [TimerLostUnblock] },
        { [MT] @ msg(MsgType::GetX), if FromOwner "owner upgrade" => [MT, WaitUnblock];
          sends [DataEx -> Requester, Inv -> Sharers];
          alloc [Tbe]; ft_alloc [TimerLostUnblock] },
        { [MT] @ msg(MsgType::GetX), if "forward to owner" => [MT, WaitUnblock];
          sends [FwdGetX -> OwnerL1, Inv -> Sharers];
          alloc [Tbe]; ft_alloc [TimerLostUnblock] },
        { [MT] @ msg(MsgType::Put), if FromOwner "from the current owner" => [MT, WaitWbData];
          sends [WbAck -> Requester]; alloc [Tbe]; ft_alloc [TimerLostUnblock];
          paper "three-phase writeback" },
        { [MT] @ msg(MsgType::Put), if "not the owner: stale put acknowledged" => [MT];
          sends [WbAck -> Sender] },
        { [NP, RO] @ msg(MsgType::Put), if "stale put acknowledged" => same;
          sends [WbAck -> Sender] },
        // ---- Reissues at the busy home (§3.2) -------------------------
        { [WaitMem] @ msg(MsgType::GetS), if "reissue: adopt its serial" => same;
          gate FtOnly; paper "§3.2" },
        { [WaitMem] @ msg(MsgType::GetX), if "reissue: adopt its serial" => same; gate FtOnly },
        { [WaitUnblock, WaitFillUnblock] @ msg(MsgType::GetS), if Granted(FwdGetS) "reissue: forward again" => same;
          gate FtOnly; sends [FwdGetS -> OwnerL1] },
        { [WaitUnblock, WaitFillUnblock] @ msg(MsgType::GetS), if Granted(FwdGetX) "reissue: migratory forward again" => same;
          gate FtOnly; sends [FwdGetX -> OwnerL1] },
        { [WaitUnblock, WaitFillUnblock] @ msg(MsgType::GetS), if Granted(Data) "reissue: shared grant again" => same;
          gate FtOnly; sends [Data -> Requester] },
        { [WaitUnblock, WaitFillUnblock] @ msg(MsgType::GetS), if "reissue: exclusive grant again" => same;
          gate FtOnly; sends [DataEx -> Requester] },
        { [WaitUnblock, WaitFillUnblock] @ msg(MsgType::GetX), if Granted(FwdGetX) "reissue: invalidate, forward again" => same;
          gate FtOnly; sends [Inv -> Sharers, FwdGetX -> OwnerL1] },
        { [WaitUnblock, WaitFillUnblock] @ msg(MsgType::GetX), if "reissue: invalidate, grant again" => same;
          gate FtOnly; sends [Inv -> Sharers, DataEx -> Requester] },
        { [WaitWbData] @ msg(MsgType::Put), if "reissue: adopt its serial, acknowledge again" => same;
          gate FtOnly; sends [WbAck -> Requester] },
        { [WaitWbAckBd] @ msg(MsgType::Put), if "reissue: adopt its serial" => same; gate FtOnly },
        // ---- Unblocks -------------------------------------------------
        { [WaitFillUnblock] @ msg(MsgType::UnblockEx),
          if "fill from memory: external unblock pending" => [MT, EXT];
          gate FtOnly; sends [UnblockEx -> MemCtl, AckO -> MemCtl];
          free [Tbe, TimerLostUnblock, TimerLostRequest]; alloc [ExtPending, TimerLostAckBd];
          paper "§3.1.1" },
        { [WaitFillUnblock] @ msg(MsgType::Unblock),
          if "shared ack of a fill: external unblock pending" => [EXT];
          gate FtOnly; sends [UnblockEx -> MemCtl, AckO -> MemCtl];
          free [Tbe, TimerLostUnblock, TimerLostRequest]; alloc [ExtPending, TimerLostAckBd] },
        { [WaitUnblock] @ msg(MsgType::UnblockEx),
          if FromMem "fill from memory: external unblock pending" => [MT, EXT];
          gate FtOnly; sends [UnblockEx -> MemCtl, AckO -> MemCtl];
          free [Tbe, TimerLostUnblock]; alloc [ExtPending, TimerLostAckBd] },
        { [WaitUnblock] @ msg(MsgType::UnblockEx),
          if "exclusive grant acknowledged (a piggybacked AckO is delivered first)" => [MT];
          free [Tbe]; ft_free [TimerLostUnblock] },
        { [WaitUnblock] @ msg(MsgType::Unblock),
          if FromMem "shared ack of a fill: external unblock pending" => [EXT];
          gate FtOnly; sends [UnblockEx -> MemCtl, AckO -> MemCtl];
          free [Tbe, TimerLostUnblock]; alloc [ExtPending, TimerLostAckBd] },
        { [WaitUnblock] @ msg(MsgType::Unblock), if "shared grant acknowledged" => [];
          free [Tbe]; ft_free [TimerLostUnblock] },
        // ---- Writeback data -------------------------------------------
        { [WaitWbData] @ msg(MsgType::WbData), if "writeback data accepted" => [RO];
          gate NonFtOnly; free [Tbe] },
        { [WaitWbData] @ msg(MsgType::WbData),
          if "writeback data accepted: ownership handshake" => [RO, WaitWbAckBd];
          gate FtOnly; sends [AckO -> Sender]; alloc [TimerLostAckBd];
          paper "§3.1" },
        { [WaitWbData] @ msg(MsgType::WbNoData), if NoCopies "no data: line dropped" => [NP];
          free [Tbe]; ft_free [TimerLostUnblock] },
        { [WaitWbData] @ msg(MsgType::WbNoData), if "copies remain" => [RO];
          free [Tbe]; ft_free [TimerLostUnblock] },
        { [WaitWbData] @ msg(MsgType::WbCancel), if NoCopies "cancelled: line dropped" => [NP];
          free [Tbe]; ft_free [TimerLostUnblock] },
        { [WaitWbData] @ msg(MsgType::WbCancel), if "cancelled: copies remain" => [RO];
          free [Tbe]; ft_free [TimerLostUnblock] },
        { [WaitWbAckBd] @ msg(MsgType::AckBD), if "handshake complete" => [];
          gate FtOnly; free [Tbe, TimerLostAckBd, TimerLostUnblock] },
        // ---- Memory fill ----------------------------------------------
        { [WaitMem] @ msg(MsgType::DataEx), if "memory fill" => [RO, WaitUnblock];
          gate NonFtOnly; sends [DataEx -> Blocker, UnblockEx -> MemCtl] },
        { [WaitMem] @ msg(MsgType::DataEx), if "memory fill: its request timer stays armed" => [RO, WaitFillUnblock];
          gate FtOnly; sends [DataEx -> Blocker]; alloc [TimerLostUnblock] },
        // ---- Victim selection (internal bank eviction) ----------------
        { [RO] @ Event::Victim, if Sharers "sharers exist: recall" => [WaitRecall];
          sends [Inv -> Sharers]; alloc [Tbe]; ft_alloc [TimerLostUnblock] },
        { [RO] @ Event::Victim, if Dirty "dirty, uncached above: write back" => [WaitMemWbAck];
          sends [Put -> MemCtl]; alloc [Tbe]; ft_alloc [TimerLostRequest] },
        { [RO] @ Event::Victim, if "clean, uncached above: silent drop" => [] },
        { [MT] @ Event::Victim, if "owner holds the line: recall" => [WaitRecall];
          sends [FwdGetX -> OwnerL1, Inv -> Sharers];
          alloc [Tbe]; ft_alloc [TimerLostUnblock] },
        // ---- Victim recall --------------------------------------------
        { [WaitRecall] @ msg(MsgType::DataEx), if "recall data from owner" => [WaitRecallAckBd];
          gate FtOnly; sends [AckO -> Sender]; alloc [TimerLostAckBd] },
        { [WaitRecall] @ msg(MsgType::DataEx), if RecallPending "recall data, acks pending" => [WaitRecall];
          gate NonFtOnly },
        { [WaitRecall] @ msg(MsgType::DataEx), if RecallDirty "recall complete, dirty: write back" => [WaitMemWbAck];
          gate NonFtOnly; sends [Put -> MemCtl]; free [Tbe]; alloc [Tbe] },
        { [WaitRecall] @ msg(MsgType::DataEx), if "recall complete, clean: dropped" => [];
          gate NonFtOnly; free [Tbe] },
        { [WaitRecall] @ msg(MsgType::Ack), if RecallPending "sharer invalidated, more pending" => [WaitRecall] },
        { [WaitRecall] @ msg(MsgType::Ack), if RecallDirty "last ack, dirty: write back" => [WaitMemWbAck];
          sends [Put -> MemCtl]; free [Tbe]; alloc [Tbe];
          ft_free [TimerLostUnblock]; ft_alloc [TimerLostRequest] },
        { [WaitRecall] @ msg(MsgType::Ack), if "last ack, clean: dropped" => [];
          free [Tbe]; ft_free [TimerLostUnblock] },
        { [WaitRecallAckBd] @ msg(MsgType::Ack), if "sharer invalidated" => [WaitRecallAckBd];
          gate FtOnly },
        { [WaitRecallAckBd] @ msg(MsgType::AckBD), if RecallPending "acks still pending" => [WaitRecall];
          gate FtOnly; free [TimerLostAckBd] },
        { [WaitRecallAckBd] @ msg(MsgType::AckBD), if RecallDirty "recall complete, dirty: write back" => [WaitMemWbAck];
          gate FtOnly; sends [Put -> MemCtl];
          free [Tbe, TimerLostAckBd, TimerLostUnblock]; alloc [Tbe, TimerLostRequest] },
        { [WaitRecallAckBd] @ msg(MsgType::AckBD), if "recall complete, clean: dropped" => [];
          gate FtOnly; free [Tbe, TimerLostAckBd, TimerLostUnblock] },
        // ---- Writeback to memory --------------------------------------
        { [WaitMemWbAck] @ msg(MsgType::WbAck), if WbStale "stale writeback: dropped" => [];
          free [Tbe]; ft_free [TimerLostRequest] },
        { [WaitMemWbAck] @ msg(MsgType::WbAck), if "memory writeback proceeds" => [];
          gate NonFtOnly; sends [WbData -> Sender]; free [Tbe] },
        { [WaitMemWbAck] @ msg(MsgType::WbAck), if "memory writeback proceeds" => [MB];
          gate FtOnly; sends [WbData -> Sender];
          free [Tbe, TimerLostRequest]; alloc [MemBackup, TimerLostData];
          paper "§3.1" },
        // ---- Ownership handshake --------------------------------------
        // An AckO or AckBD answers by its sender: from memory the `EXT` and
        // `MB` records or the line, from an L1 the TBE or the line.
        { [MB] @ msg(MsgType::AckO), if "memory took ownership" => [];
          gate FtOnly; sends [AckBD -> MemCtl]; free [MemBackup, TimerLostData] },
        { [WaitUnblock, WaitFillUnblock] @ msg(MsgType::AckO), if "requester acknowledges ownership" => same;
          gate FtOnly; sends [AckBD -> Sender] },
        { [NP, RO, MT] @ msg(MsgType::AckO), if "no backup: idempotent re-ack" => same;
          gate FtOnly; sends [AckBD -> Sender]; paper "§3.4" },
        { [EXT] @ msg(MsgType::AckBD), if "external unblock complete" => [];
          gate FtOnly; free [ExtPending, TimerLostAckBd]; paper "§3.1.1" },
        // ---- Recovery pings -------------------------------------------
        { [WaitMem] @ msg(MsgType::UnblockPing), if "fill still pending: ignored" => [WaitMem];
          gate FtOnly },
        { [EXT] @ msg(MsgType::UnblockPing), if "re-send external unblock" => [EXT];
          gate FtOnly; sends [UnblockEx -> Sender, AckO -> Sender] },
        { [NP] @ msg(MsgType::UnblockPing), if "idempotent re-unblock" => [NP];
          gate FtOnly; sends [UnblockEx -> Sender, AckO -> Sender]; paper "§3.4" },
        { [RO, MT] @ msg(MsgType::UnblockPing), if "idempotent re-unblock" => same;
          gate FtOnly; sends [UnblockEx -> Sender, AckO -> Sender] },
        { [WaitMemWbAck] @ msg(MsgType::WbPing), if "ping completes memory writeback" => [MB];
          gate FtOnly; sends [WbData -> Sender];
          free [Tbe, TimerLostRequest]; alloc [MemBackup, TimerLostData] },
        { [MB] @ msg(MsgType::WbPing), if "backup re-sends data" => [MB];
          gate FtOnly; sends [WbData -> Sender]; paper "§3.3" },
        { [NP, RO, MT] @ msg(MsgType::WbPing), if "no writeback in flight" => same;
          gate FtOnly; sends [WbCancel -> Sender] },
        { [WaitWbData] @ msg(MsgType::OwnershipPing), if "writeback in flight: refused" => [WaitWbData];
          gate FtOnly; sends [NackO -> Sender]; paper "§3.3" },
        { [NP, RO, MT] @ msg(MsgType::OwnershipPing) => same; gate FtOnly; sends [AckO -> Sender] },
        { [MB] @ msg(MsgType::NackO), if "memory refused: re-send data" => [MB];
          gate FtOnly; sends [WbData -> MemCtl]; paper "§3.3" },
        // ---- Timeouts -------------------------------------------------
        // A firing answers the record whose timer slot carries its
        // generation.
        { [WaitUnblock, WaitFillUnblock] @ tmo(TimeoutKind::LostUnblock), if "ping the blocker" => same;
          gate FtOnly; sends [UnblockPing -> Blocker]; paper "§3.5" },
        { [WaitWbData] @ tmo(TimeoutKind::LostUnblock), if "ping the writer" => [WaitWbData];
          gate FtOnly; sends [WbPing -> Blocker] },
        { [WaitRecall] @ tmo(TimeoutKind::LostUnblock), if NeedsData "re-prod owner and sharers" => [WaitRecall];
          gate FtOnly; sends [FwdGetX -> OwnerL1, Inv -> Sharers] },
        { [WaitRecall] @ tmo(TimeoutKind::LostUnblock), if "re-prod sharers" => [WaitRecall];
          gate FtOnly; sends [Inv -> Sharers] },
        { [WaitRecallAckBd] @ tmo(TimeoutKind::LostUnblock), if "re-prod sharers" => [WaitRecallAckBd];
          gate FtOnly; sends [Inv -> Sharers] },
        { [WaitWbAckBd] @ tmo(TimeoutKind::LostUnblock), if "inert while AckBD pending" => [WaitWbAckBd];
          gate FtOnly },
        { [WaitMem] @ tmo(TimeoutKind::LostRequest), if "reissue fill" => [WaitMem];
          gate FtOnly; sends [GetX -> MemCtl]; paper "§3.2" },
        { [WaitFillUnblock] @ tmo(TimeoutKind::LostRequest),
          if "fill already answered: a fresh serial, nothing re-sent" => [WaitUnblock];
          gate FtOnly; free [TimerLostRequest] },
        { [WaitMemWbAck] @ tmo(TimeoutKind::LostRequest), if "reissue writeback" => [WaitMemWbAck];
          gate FtOnly; sends [Put -> MemCtl] },
        { [WaitWbAckBd] @ tmo(TimeoutKind::LostAckBd), if "re-send AckO" => [WaitWbAckBd];
          gate FtOnly; sends [AckO -> Blocker]; paper "§3.4" },
        { [WaitRecallAckBd] @ tmo(TimeoutKind::LostAckBd), if "re-send AckO" => [WaitRecallAckBd];
          gate FtOnly; sends [AckO -> OwnerL1] },
        { [EXT] @ tmo(TimeoutKind::LostAckBd), if "re-send external unblock" => [EXT];
          gate FtOnly; sends [UnblockEx -> MemCtl, AckO -> MemCtl] },
        { [MB] @ tmo(TimeoutKind::LostData), if "probe memory" => [MB];
          gate FtOnly; sends [OwnershipPing -> MemCtl]; paper "§3.3" },
    ]
}

fn exceptions() -> Vec<Exception> {
    use MsgType as T;
    let mut ex = Vec::new();
    for t in [T::Inv, T::FwdGetS, T::FwdGetX] {
        ex.push(impossible("*", msg(t), "never routed to an L2 bank"));
    }
    for t in [
        T::Unblock,
        T::UnblockEx,
        T::WbData,
        T::WbNoData,
        T::WbCancel,
        T::Data,
        T::DataEx,
        T::Ack,
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
            "stale serial or no matching TBE: discarded",
        ));
    }
    for k in TimeoutKind::ALL {
        ex.push(ignore("*", tmo(k), "stale timer generation: no-op"));
    }
    for s in TBE_STATES {
        for t in [T::GetS, T::GetX, T::Put] {
            // The transaction's own reissues have rows (§3.2).
            let reissue = match s {
                "WaitMem" | "WaitUnblock" | "WaitFillUnblock" => t != T::Put,
                "WaitWbData" | "WaitWbAckBd" => t == T::Put,
                _ => false,
            };
            if !reissue {
                ex.push(ignore(
                    s,
                    msg(t),
                    "queued behind the active transaction (a reissue refreshes the queued serial)",
                ));
            }
        }
    }
    for s in ["EXT", "MB"] {
        for t in [T::GetS, T::GetX, T::Put] {
            ex.push(defer(
                s,
                msg(t),
                "Line facet services the request (§3.1.1 relaxation)",
            ));
        }
    }
    // Victim selection is an internal event: the bank only evicts lines
    // with no active transaction, external-unblock record, or backup.
    ex.push(impossible(
        "NP",
        Event::Victim,
        "absent lines cannot be victims",
    ));
    for s in TBE_STATES {
        ex.push(impossible(
            s,
            Event::Victim,
            "a line with an active transaction is never chosen as victim",
        ));
    }
    ex.push(impossible(
        "EXT",
        Event::Victim,
        "ext-blocked lines are never chosen as victims",
    ));
    ex.push(impossible(
        "MB",
        Event::Victim,
        "backup lines are not cache-resident",
    ));
    ex
}

super::state_ids! {
    /// Ids of the states `L2Controller::facets` reports. A TBE stage is
    /// mostly set from a row's next states, so not every id is read by name.
    #[allow(dead_code)]
    L2Ids {
        np => "NP",
        ro => "RO",
        mt => "MT",
        wait_mem => "WaitMem",
        wait_unblock => "WaitUnblock",
        wait_fill_unblock => "WaitFillUnblock",
        wait_wb_data => "WaitWbData",
        wait_wb_ack_bd => "WaitWbAckBd",
        wait_recall => "WaitRecall",
        wait_recall_ack_bd => "WaitRecallAckBd",
        wait_mem_wb_ack => "WaitMemWbAck",
        ext => "EXT",
        mb => "MB",
    }
}

impl L2Ids {
    /// Whether state id `id` is a TBE stage (the `Tbe` family).
    #[inline]
    pub(crate) fn is_stage(&self, id: u8) -> bool {
        ![self.np, self.ro, self.mt, self.ext, self.mb].contains(&id)
    }
}

pub(super) fn build() -> Result<(ControllerTable, L2Ids), String> {
    let table = ControllerTable::new(Controller::L2, states(), rows(), exceptions())?;
    let ids = L2Ids::resolve(&table)?;
    Ok((table, ids))
}
