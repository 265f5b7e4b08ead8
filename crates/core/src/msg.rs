//! Coherence message vocabulary (paper Tables 1 and 2).

use ftdircmp_noc::VcClass;

use crate::data::LineData;
use crate::ids::{LineAddr, NodeId};
use crate::serial::SerialNum;

/// Every message type used by DirCMP (Table 1) and the additional types
/// introduced by FtDirCMP (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MsgType {
    // ---- DirCMP (Table 1) ----
    /// Request data and permission to write.
    GetX,
    /// Request data and permission to read.
    GetS,
    /// Sent by the L1 to initiate a write-back (also L2→memory).
    Put,
    /// Sent by the L2 to let the L1 actually perform the write-back.
    WbAck,
    /// Invalidation request sent to invalidate sharers before granting
    /// exclusive access.
    Inv,
    /// Invalidation acknowledgment (sent to the requester).
    Ack,
    /// Message carrying data and read permission.
    Data,
    /// Message carrying data and write permission (or exclusive-clean
    /// permission when answering a `GetS` with no sharers).
    DataEx,
    /// Informs the directory that the data has been received and the sender
    /// is now a sharer.
    Unblock,
    /// Informs the directory that the data has been received and the sender
    /// now has exclusive access to the line.
    UnblockEx,
    /// Write-back containing data.
    WbData,
    /// Write-back containing no data (clean line).
    WbNoData,
    /// `GetS` forwarded by the directory to the current owner.
    FwdGetS,
    /// `GetX` forwarded by the directory to the current owner (also used,
    /// with the home L2 as requester, to recall a line the L2 is evicting).
    FwdGetX,

    // ---- FtDirCMP (Table 2) ----
    /// Ownership acknowledgment.
    AckO,
    /// Backup deletion acknowledgment.
    AckBD,
    /// Requests confirmation whether a cache miss is still in progress.
    UnblockPing,
    /// Requests confirmation whether a writeback is still in progress.
    WbPing,
    /// Confirms that a previous writeback has already finished.
    WbCancel,
    /// Requests confirmation of ownership (sent by a node stuck in backup
    /// state; see DESIGN.md §4 on the interpretation of this message).
    OwnershipPing,
    /// Not-ownership acknowledgment: the pinged node never received the
    /// owned data, so the backup must resend it.
    NackO,
}

impl MsgType {
    /// All message types, DirCMP first.
    pub const ALL: [MsgType; 21] = [
        MsgType::GetX,
        MsgType::GetS,
        MsgType::Put,
        MsgType::WbAck,
        MsgType::Inv,
        MsgType::Ack,
        MsgType::Data,
        MsgType::DataEx,
        MsgType::Unblock,
        MsgType::UnblockEx,
        MsgType::WbData,
        MsgType::WbNoData,
        MsgType::FwdGetS,
        MsgType::FwdGetX,
        MsgType::AckO,
        MsgType::AckBD,
        MsgType::UnblockPing,
        MsgType::WbPing,
        MsgType::WbCancel,
        MsgType::OwnershipPing,
        MsgType::NackO,
    ];

    /// Whether this type only exists in FtDirCMP (Table 2).
    pub fn is_ft_only(self) -> bool {
        matches!(
            self,
            MsgType::AckO
                | MsgType::AckBD
                | MsgType::UnblockPing
                | MsgType::WbPing
                | MsgType::WbCancel
                | MsgType::OwnershipPing
                | MsgType::NackO
        )
    }

    /// Whether messages of this type may carry line data.
    pub(crate) fn may_carry_data(self) -> bool {
        matches!(self, MsgType::Data | MsgType::DataEx | MsgType::WbData)
    }

    /// Virtual-channel class this type travels on.
    pub(crate) fn vc_class(self) -> VcClass {
        match self {
            MsgType::GetX | MsgType::GetS | MsgType::Put => VcClass::Request,
            MsgType::Inv | MsgType::FwdGetS | MsgType::FwdGetX => VcClass::Forward,
            MsgType::Ack | MsgType::Data | MsgType::DataEx | MsgType::WbAck => VcClass::Response,
            MsgType::Unblock | MsgType::UnblockEx | MsgType::WbData | MsgType::WbNoData => {
                VcClass::Unblock
            }
            MsgType::AckO | MsgType::AckBD => VcClass::OwnershipAck,
            MsgType::UnblockPing
            | MsgType::WbPing
            | MsgType::WbCancel
            | MsgType::OwnershipPing
            | MsgType::NackO => VcClass::Ping,
        }
    }

    /// One-line description, as in the paper's tables.
    pub fn description(self) -> &'static str {
        match self {
            MsgType::GetX => "Request data and permission to write.",
            MsgType::GetS => "Request data and permission to read.",
            MsgType::Put => "Sent by the L1 to initiate a write-back.",
            MsgType::WbAck => "Sent by the L2 to let the L1 actually perform the write-back.",
            MsgType::Inv => {
                "Invalidation request sent to invalidate sharers before granting exclusive access."
            }
            MsgType::Ack => "Invalidation acknowledgment.",
            MsgType::Data => "Message carrying data and read permission.",
            MsgType::DataEx => "Message carrying data and write permission.",
            MsgType::Unblock => {
                "Informs the L2 that the data has been received and the sender is now a sharer."
            }
            MsgType::UnblockEx => {
                "Informs the L2 that the data has been received and the sender has now exclusive access to the line."
            }
            MsgType::WbData => "Write-back containing data.",
            MsgType::WbNoData => "Write-back containing no data.",
            MsgType::FwdGetS => "GetS forwarded by the directory to the current owner.",
            MsgType::FwdGetX => "GetX forwarded by the directory to the current owner.",
            MsgType::AckO => "Ownership acknowledgment.",
            MsgType::AckBD => "Backup deletion acknowledgment.",
            MsgType::UnblockPing => {
                "Requests confirmation whether a cache miss is still in progress."
            }
            MsgType::WbPing => "Requests confirmation whether a writeback is still in progress.",
            MsgType::WbCancel => "Confirms that a previous writeback has already finished.",
            MsgType::OwnershipPing => "Requests confirmation of ownership.",
            MsgType::NackO => "Not ownership acknowledgment.",
        }
    }

    /// Short name, as printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            MsgType::GetX => "GetX",
            MsgType::GetS => "GetS",
            MsgType::Put => "Put",
            MsgType::WbAck => "WbAck",
            MsgType::Inv => "Inv",
            MsgType::Ack => "Ack",
            MsgType::Data => "Data",
            MsgType::DataEx => "DataEx",
            MsgType::Unblock => "Unblock",
            MsgType::UnblockEx => "UnblockEx",
            MsgType::WbData => "WbData",
            MsgType::WbNoData => "WbNoData",
            MsgType::FwdGetS => "FwdGetS",
            MsgType::FwdGetX => "FwdGetX",
            MsgType::AckO => "AckO",
            MsgType::AckBD => "AckBD",
            MsgType::UnblockPing => "UnblockPing",
            MsgType::WbPing => "WbPing",
            MsgType::WbCancel => "WbCancel",
            MsgType::OwnershipPing => "OwnershipPing",
            MsgType::NackO => "NackO",
        }
    }

    /// Dense index into [`MsgType::ALL`], which lists the variants in
    /// declaration order (a unit test pins that).
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for MsgType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A coherence protocol message.
///
/// Control messages are 8 bytes and data messages 72 bytes on the wire
/// (Table 4); FtDirCMP's serial number and CRC fit in the existing header
/// padding, so both protocols use the same sizes (see DESIGN.md §4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Message type.
    pub(crate) mtype: MsgType,
    /// Cache line the message concerns.
    pub(crate) addr: LineAddr,
    /// Sending node.
    pub(crate) src: NodeId,
    /// Destination node.
    pub(crate) dst: NodeId,
    /// The original requester of the transaction this message belongs to
    /// (meaningful on forwards, invalidations, and responses).
    pub(crate) requester: NodeId,
    /// Request serial number (always `SerialNum::ZERO` under DirCMP).
    pub(crate) serial: SerialNum,
    /// Number of invalidation acknowledgments the requester must collect
    /// before the miss is complete (carried by `DataEx` and `FwdGetX`).
    pub(crate) ack_count: u8,
    /// Line data, if this message carries any.
    pub(crate) data: Option<LineData>,
    /// FtDirCMP: an ownership acknowledgment is piggybacked on this message
    /// (only meaningful on `Unblock`/`UnblockEx`, §3.1).
    pub(crate) piggy_acko: bool,
    /// The write-back acknowledgment tells the evicting cache its Put is
    /// stale: ownership already moved (race with a forwarded request).
    pub(crate) wb_stale: bool,
    /// The write-back acknowledgment asks the evicting cache to include the
    /// line data in its `WbData` (as opposed to a clean `WbNoData`).
    pub(crate) wb_wants_data: bool,
    /// The carried data is dirty with respect to memory. An exclusive grant
    /// of dirty data must install as `M`, never `E` (a silent-clean `E`
    /// eviction would otherwise lose the only up-to-date copy).
    pub(crate) data_dirty: bool,
    /// `UnblockPing` only: the directory's open transaction is a GetX. The
    /// pinged cache disambiguates *which* transaction the ping refers to by
    /// kind — per-line serialization makes (line, requester, kind) unique,
    /// whereas small serial numbers may collide across transactions.
    pub(crate) ping_for_store: bool,
}

impl Message {
    /// Creates a message with the common fields; extras default to zero.
    pub fn new(mtype: MsgType, addr: LineAddr, src: NodeId, dst: NodeId) -> Self {
        Message {
            mtype,
            addr,
            src,
            dst,
            requester: src,
            serial: SerialNum::ZERO,
            ack_count: 0,
            data: None,
            piggy_acko: false,
            wb_stale: false,
            wb_wants_data: false,
            data_dirty: false,
            ping_for_store: false,
        }
    }

    /// Builder-style: sets the original requester.
    pub(crate) fn requester(mut self, requester: NodeId) -> Self {
        self.requester = requester;
        self
    }

    /// Builder-style: sets the serial number.
    pub(crate) fn serial(mut self, serial: SerialNum) -> Self {
        self.serial = serial;
        self
    }

    /// Builder-style: attaches line data.
    ///
    /// # Panics
    ///
    /// Panics if this message type cannot carry data.
    pub(crate) fn data(mut self, data: LineData) -> Self {
        assert!(
            self.mtype.may_carry_data(),
            "{} cannot carry data",
            self.mtype
        );
        self.data = Some(data);
        self
    }

    /// Builder-style: sets the invalidation-ack count.
    pub(crate) fn acks(mut self, n: u8) -> Self {
        self.ack_count = n;
        self
    }

    /// Builder-style: piggybacks an ownership acknowledgment.
    pub(crate) fn with_acko(mut self) -> Self {
        self.piggy_acko = true;
        self
    }

    /// Builder-style: marks the carried data dirty with respect to memory.
    pub(crate) fn dirty(mut self, dirty: bool) -> Self {
        self.data_dirty = dirty;
        self
    }

    /// Size on the wire in bytes given the configured control/data sizes.
    pub(crate) fn size_bytes(&self, control_bytes: u32, data_bytes: u32) -> u32 {
        if self.data.is_some() {
            data_bytes
        } else {
            control_bytes
        }
    }

    /// Virtual-channel class.
    pub(crate) fn vc_class(&self) -> VcClass {
        self.mtype.vc_class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(t: MsgType) -> Message {
        Message::new(t, LineAddr(4), NodeId::L1(0), NodeId::L2(4))
    }

    #[test]
    fn all_types_present_and_unique() {
        for (i, t) in MsgType::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
        // Table 1 has 12 entries + our 2 explicit forward types, Table 2 has 7.
        let ft = MsgType::ALL.iter().filter(|t| t.is_ft_only()).count();
        assert_eq!(ft, 7);
        assert_eq!(MsgType::ALL.len(), 21);
        // The transition tables keep one legality bit per type in a `u32`.
        assert!(MsgType::ALL.len() <= 32);
    }

    #[test]
    fn only_data_messages_carry_data() {
        for t in MsgType::ALL {
            let carries = t.may_carry_data();
            assert_eq!(
                carries,
                matches!(t, MsgType::Data | MsgType::DataEx | MsgType::WbData),
                "{t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot carry data")]
    fn attaching_data_to_control_message_panics() {
        let _ = msg(MsgType::GetS).data(LineData::pristine());
    }

    #[test]
    fn ft_messages_use_the_two_extra_vcs() {
        // Paper §3.6: FtDirCMP requires two more virtual channels.
        for t in MsgType::ALL {
            if t.is_ft_only() {
                assert!(
                    matches!(t.vc_class(), VcClass::OwnershipAck | VcClass::Ping),
                    "{t} should use an FT-only VC"
                );
            } else {
                assert!(
                    !matches!(t.vc_class(), VcClass::OwnershipAck | VcClass::Ping),
                    "{t} should use a DirCMP VC"
                );
            }
        }
    }

    #[test]
    fn size_depends_on_data_presence() {
        let control = msg(MsgType::GetS);
        assert_eq!(control.size_bytes(8, 72), 8);
        let data = msg(MsgType::Data).data(LineData::pristine());
        assert_eq!(data.size_bytes(8, 72), 72);
    }

    #[test]
    fn builder_sets_fields() {
        let m = msg(MsgType::DataEx)
            .requester(NodeId::L1(5))
            .serial(SerialNum::new(9, 8))
            .data(LineData::pristine())
            .acks(3);
        assert_eq!(m.requester, NodeId::L1(5));
        assert_eq!(m.serial, SerialNum::new(9, 8));
        assert_eq!(m.ack_count, 3);
        assert!(m.data.is_some());
        let u = msg(MsgType::UnblockEx).with_acko();
        assert!(u.piggy_acko);
    }

    #[test]
    fn names_and_descriptions_nonempty() {
        for t in MsgType::ALL {
            assert!(!t.name().is_empty());
            assert!(!t.description().is_empty());
            assert_eq!(t.to_string(), t.name());
        }
    }
}
