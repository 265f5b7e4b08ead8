//! Reified transition table for the memory controller.
//!
//! Facet families:
//! * `Line` (mandatory, default `U`): `U` — memory owns the line (its copy
//!   is up to date, and under FT doubles as the implicit backup of any
//!   exclusive grant), `C` — the chip (some L2 bank) owns the line.
//! * `Tbe`: an allocated transaction buffer entry, named by its stage.

use super::Resource::{Tbe, TimerLostAckBd, TimerLostUnblock};
use super::{ignore, impossible, msg, tmo, Controller, ControllerTable, Exception, StateDecl};
use crate::msg::MsgType;
use crate::proto::TimeoutKind;

fn states() -> Vec<StateDecl> {
    vec![
        StateDecl::new("U", "Line", "memory owns the line"),
        StateDecl::new("C", "Line", "the chip (an L2 bank) owns the line"),
        StateDecl::new(
            "WaitUnblock",
            "Tbe",
            "exclusive grant sent, waiting for UnblockEx",
        )
        .implies(&[Tbe])
        .ft_implies(&[TimerLostUnblock]),
        StateDecl::new(
            "WaitWbData",
            "Tbe",
            "WbAck sent, waiting for writeback data",
        )
        .implies(&[Tbe])
        .ft_implies(&[TimerLostUnblock]),
        StateDecl::new(
            "WaitAckBd",
            "Tbe",
            "writeback data taken, waiting for AckBD",
        )
        .ft()
        .implies(&[Tbe, TimerLostAckBd]),
    ]
}

fn rows() -> Vec<super::Transition> {
    super::transitions![
        // ---- Requests -------------------------------------------------
        { [U] @ msg(MsgType::GetX), if "fill: memory always grants exclusively" => [U, WaitUnblock];
          sends [DataEx -> Requester]; alloc [Tbe]; ft_alloc [TimerLostUnblock];
          paper "§2; the retained copy is the implicit backup (§3.1)" },
        { [C] @ msg(MsgType::GetX), if "reissued fill" => [C, WaitUnblock];
          sends [DataEx -> Requester]; alloc [Tbe]; ft_alloc [TimerLostUnblock] },
        { [C] @ msg(MsgType::Put), if "writeback from the owning chip" => [C, WaitWbData];
          sends [WbAck -> Requester]; alloc [Tbe]; ft_alloc [TimerLostUnblock];
          paper "three-phase writeback" },
        { [U] @ msg(MsgType::Put), if "stale put acknowledged" => [U];
          sends [WbAck -> Sender] },
        { [WaitUnblock] @ msg(MsgType::GetX), if "reissue: adopt its serial, grant again" => same;
          gate FtOnly; sends [DataEx -> Requester]; paper "§3.2" },
        { [WaitWbData] @ msg(MsgType::Put), if "reissue: adopt its serial, acknowledge again" => same;
          gate FtOnly; sends [WbAck -> Requester] },
        { [WaitAckBd] @ msg(MsgType::Put), if "reissue: adopt its serial" => same;
          gate FtOnly },
        // ---- Unblocks -------------------------------------------------
        { [WaitUnblock] @ msg(MsgType::UnblockEx),
          if "grant acknowledged (a piggybacked AckO is delivered first)" => [C];
          free [Tbe]; ft_free [TimerLostUnblock]; paper "§3.1.1" },
        // ---- Writeback data -------------------------------------------
        { [WaitWbData] @ msg(MsgType::WbData), if "writeback data accepted" => [U];
          gate NonFtOnly; free [Tbe] },
        { [WaitWbData] @ msg(MsgType::WbData),
          if "writeback data accepted: ownership handshake" => [U, WaitAckBd];
          gate FtOnly; sends [AckO -> Sender];
          free [TimerLostUnblock]; alloc [TimerLostAckBd]; paper "§3.1" },
        { [WaitWbData] @ msg(MsgType::WbNoData), if "no data: chip copy dropped" => [U];
          free [Tbe]; ft_free [TimerLostUnblock] },
        { [WaitWbData] @ msg(MsgType::WbCancel), if "cancelled: chip copy dropped" => [U];
          free [Tbe]; ft_free [TimerLostUnblock] },
        { [WaitAckBd] @ msg(MsgType::AckBD), if "handshake complete" => [];
          gate FtOnly; free [Tbe, TimerLostAckBd] },
        // ---- Ownership probes -----------------------------------------
        { [WaitWbData] @ msg(MsgType::OwnershipPing), if "writeback in flight: refused" => [WaitWbData];
          gate FtOnly; sends [NackO -> Sender]; paper "§3.3" },
        { [WaitUnblock, WaitAckBd, U, C] @ msg(MsgType::OwnershipPing) => same;
          gate FtOnly; sends [AckO -> Sender] },
        { [U] @ msg(MsgType::AckO), if "idempotent re-ack" => [U];
          gate FtOnly; sends [AckBD -> Sender]; paper "§3.4" },
        { [C] @ msg(MsgType::AckO), if "idempotent re-ack" => [C];
          gate FtOnly; sends [AckBD -> Sender] },
        // ---- Timeouts -------------------------------------------------
        { [WaitUnblock] @ tmo(TimeoutKind::LostUnblock), if "ping the blocker" => [WaitUnblock];
          gate FtOnly; sends [UnblockPing -> Blocker]; paper "§3.5" },
        { [WaitWbData] @ tmo(TimeoutKind::LostUnblock), if "ping the writer" => [WaitWbData];
          gate FtOnly; sends [WbPing -> Blocker] },
        { [WaitAckBd] @ tmo(TimeoutKind::LostAckBd), if "re-send AckO" => [WaitAckBd];
          gate FtOnly; sends [AckO -> Blocker]; paper "§3.4" },
    ]
}

fn exceptions() -> Vec<Exception> {
    use MsgType as T;
    let mut ex = Vec::new();
    for t in [
        T::WbAck,
        T::Inv,
        T::Ack,
        T::Data,
        T::DataEx,
        T::FwdGetS,
        T::FwdGetX,
        T::UnblockPing,
        T::WbPing,
        T::NackO,
    ] {
        ex.push(impossible(
            "*",
            msg(t),
            "never routed to the memory controller",
        ));
    }
    ex.push(impossible(
        "*",
        msg(T::GetS),
        "the L2 always fetches exclusively (GetX)",
    ));
    ex.push(impossible(
        "*",
        msg(T::Unblock),
        "the L2 always unblocks exclusively (UnblockEx)",
    ));
    ex.push(impossible(
        "*",
        tmo(TimeoutKind::LostRequest),
        "memory never issues requests",
    ));
    ex.push(impossible(
        "*",
        tmo(TimeoutKind::LostData),
        "memory keeps no explicit backup (its retained copy is implicit)",
    ));
    for t in [
        T::UnblockEx,
        T::WbData,
        T::WbNoData,
        T::WbCancel,
        T::AckBD,
        T::AckO,
        T::OwnershipPing,
    ] {
        ex.push(ignore(
            "*",
            msg(t),
            "stale serial or no matching TBE: discarded",
        ));
    }
    for k in [TimeoutKind::LostUnblock, TimeoutKind::LostAckBd] {
        ex.push(ignore("*", tmo(k), "stale timer generation: no-op"));
    }
    for (s, t) in [
        ("WaitUnblock", T::Put),
        ("WaitWbData", T::GetX),
        ("WaitAckBd", T::GetX),
    ] {
        ex.push(ignore(
            s,
            msg(t),
            "queued behind the active transaction (a reissue refreshes the queued serial)",
        ));
    }
    ex
}

super::state_ids! {
    /// Ids of the states `MemController::facets` reports.
    MemIds {
        u => "U",
        c => "C",
        wait_unblock => "WaitUnblock",
        wait_wb_data => "WaitWbData",
        wait_ack_bd => "WaitAckBd",
    }
}

pub(super) fn build() -> Result<(ControllerTable, MemIds), String> {
    let table = ControllerTable::new(Controller::Mem, states(), rows(), exceptions())?;
    let ids = MemIds::resolve(&table)?;
    Ok((table, ids))
}
