//! Identifiers and addressing for the simulated cluster.

use std::fmt;

/// Identifier of a memory blade.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BladeId(pub u32);

/// Identifier of a compute node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u32);

/// A remote-memory address: a blade plus a byte offset into its region.
///
/// ```rust
/// use smart_rnic::{BladeId, RemoteAddr};
///
/// let a = RemoteAddr::new(BladeId(1), 0x100);
/// assert_eq!(a.offset(8).offset_bytes, 0x108);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RemoteAddr {
    /// Which blade the address lives on.
    pub blade: BladeId,
    /// Byte offset into the blade's registered region.
    pub offset_bytes: u64,
}

impl RemoteAddr {
    /// Builds an address from blade and offset.
    pub fn new(blade: BladeId, offset_bytes: u64) -> Self {
        RemoteAddr {
            blade,
            offset_bytes,
        }
    }

    /// Returns this address advanced by `delta` bytes.
    #[must_use]
    pub fn offset(self, delta: u64) -> Self {
        RemoteAddr {
            blade: self.blade,
            offset_bytes: self.offset_bytes + delta,
        }
    }

    /// Stable shared-cell identity for `smart-check` probes: the top bit
    /// marks a remote cell (so these never collide with the small
    /// counter-allocated `SimHandle::fresh_probe_id` ids), the blade id
    /// sits in bits 48–62 and the byte offset below (regions are far
    /// smaller than 2^48 bytes, so the packing is collision-free).
    pub fn cell_id(self) -> u64 {
        (1 << 63) | ((self.blade.0 as u64) << 48) | self.offset_bytes
    }
}

impl fmt::Display for RemoteAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blade{}+{:#x}", self.blade.0, self.offset_bytes)
    }
}

/// One-sided RDMA operations (the RC verbs SMART wraps).
#[derive(Clone, Debug)]
pub enum OneSidedOp {
    /// RDMA READ of `len` bytes from `addr`.
    Read {
        /// Remote source address.
        addr: RemoteAddr,
        /// Bytes to read.
        len: u32,
    },
    /// RDMA WRITE of `data` to `addr`.
    Write {
        /// Remote destination address.
        addr: RemoteAddr,
        /// Payload.
        data: Vec<u8>,
        /// Whether the destination is persistent memory (adds the NVM
        /// write latency at the blade).
        persistent: bool,
    },
    /// 64-bit compare-and-swap on an 8-byte-aligned address.
    Cas {
        /// Remote address (must be 8-byte aligned).
        addr: RemoteAddr,
        /// Expected old value.
        expect: u64,
        /// Replacement value if the comparison succeeds.
        swap: u64,
    },
    /// 64-bit fetch-and-add on an 8-byte-aligned address.
    Faa {
        /// Remote address (must be 8-byte aligned).
        addr: RemoteAddr,
        /// Addend.
        add: u64,
    },
}

impl OneSidedOp {
    /// The blade this operation targets.
    pub fn target(&self) -> BladeId {
        match self {
            OneSidedOp::Read { addr, .. }
            | OneSidedOp::Write { addr, .. }
            | OneSidedOp::Cas { addr, .. }
            | OneSidedOp::Faa { addr, .. } => addr.blade,
        }
    }

    /// Request payload bytes carried on the wire (writes carry data).
    pub fn request_payload(&self) -> u64 {
        match self {
            OneSidedOp::Write { data, .. } => data.len() as u64,
            OneSidedOp::Cas { .. } | OneSidedOp::Faa { .. } => 16,
            OneSidedOp::Read { .. } => 0,
        }
    }

    /// Response payload bytes (reads return data, atomics the old value).
    pub fn response_payload(&self) -> u64 {
        match self {
            OneSidedOp::Read { len, .. } => *len as u64,
            OneSidedOp::Cas { .. } | OneSidedOp::Faa { .. } => 8,
            OneSidedOp::Write { .. } => 0,
        }
    }

    /// Whether this is a CAS or FAA.
    pub fn is_atomic(&self) -> bool {
        matches!(self, OneSidedOp::Cas { .. } | OneSidedOp::Faa { .. })
    }
}

/// A work request: one operation plus the caller's correlation id.
#[derive(Clone, Debug)]
pub struct WorkRequest {
    /// Caller-chosen id, echoed in the matching [`Cqe`]. SMART stores the
    /// posted-chain length here (Algorithm 1 line 4).
    pub wr_id: u64,
    /// The operation.
    pub op: OneSidedOp,
}

/// Error status of a failed completion entry — the subset of
/// `ibv_wc_status` codes the fault model produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CqeError {
    /// The QP transitioned to the error state and flushed this work
    /// request before it executed (`IBV_WC_WR_FLUSH_ERR`). Retriable after
    /// the QP is re-established.
    FlushErr,
    /// Receiver-not-ready rejection after the RNR retry count was
    /// exhausted (`IBV_WC_RNR_RETRY_EXC_ERR`). Transient; retriable.
    RnrNak,
    /// The request (or its ACK) was lost and the transport's retransmit
    /// budget ran out (`IBV_WC_RETRY_EXC_ERR`) — packet loss or an
    /// unreachable blade. Retriable.
    Timeout,
    /// The target blade restarted and this QP's cached memory-region
    /// handle is stale. Retriable after re-registration.
    MrRevoked,
    /// Remote access violation — bad rkey or protection fault
    /// (`IBV_WC_REM_ACCESS_ERR`). Not retriable.
    RemoteAccess,
    /// Malformed request length (`IBV_WC_LOC_LEN_ERR`). Not retriable.
    Length,
}

impl CqeError {
    /// Whether a recovery layer may repost the failed work request.
    /// Flush/RNR/timeout/stale-MR errors are transient fabric or endpoint
    /// conditions; access and length errors indicate a protocol bug and
    /// must propagate to the application.
    pub fn is_retriable(self) -> bool {
        !matches!(self, CqeError::RemoteAccess | CqeError::Length)
    }

    /// Stable lowercase label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            CqeError::FlushErr => "flush_err",
            CqeError::RnrNak => "rnr_nak",
            CqeError::Timeout => "timeout",
            CqeError::MrRevoked => "mr_revoked",
            CqeError::RemoteAccess => "remote_access",
            CqeError::Length => "length",
        }
    }

    /// Stable wire code carried in trace event args.
    pub fn code(self) -> u64 {
        match self {
            CqeError::FlushErr => 1,
            CqeError::RnrNak => 2,
            CqeError::Timeout => 3,
            CqeError::MrRevoked => 4,
            CqeError::RemoteAccess => 5,
            CqeError::Length => 6,
        }
    }
}

impl fmt::Display for CqeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Result payload inside a completion entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// Data returned by a READ.
    Read(Vec<u8>),
    /// A WRITE completed.
    Write,
    /// Old value returned by CAS/FAA.
    Atomic(u64),
    /// The work request failed; it did **not** execute at the blade.
    Error(CqeError),
}

/// A completion-queue entry.
#[derive(Clone, Debug)]
pub struct Cqe {
    /// The `wr_id` of the completed work request.
    pub wr_id: u64,
    /// The operation's result.
    pub result: OpResult,
}

impl Cqe {
    /// The error status, if this completion failed.
    pub fn error(&self) -> Option<CqeError> {
        match self.result {
            OpResult::Error(e) => Some(e),
            _ => None,
        }
    }

    /// Whether this completion carries an error status.
    pub fn is_error(&self) -> bool {
        matches!(self.result, OpResult::Error(_))
    }

    /// The READ payload.
    ///
    /// # Panics
    ///
    /// Panics if this completion is not for a READ.
    pub fn read_data(&self) -> &[u8] {
        match &self.result {
            OpResult::Read(d) => d,
            other => panic!("completion is not a READ: {other:?}"),
        }
    }

    /// The READ payload, moved out of the completion.
    ///
    /// # Panics
    ///
    /// Panics if this completion is not for a READ.
    pub fn into_read_data(self) -> Vec<u8> {
        match self.result {
            OpResult::Read(d) => d,
            other => panic!("completion is not a READ: {other:?}"),
        }
    }

    /// The old value returned by a CAS or FAA.
    ///
    /// # Panics
    ///
    /// Panics if this completion is not for an atomic.
    pub fn atomic_old(&self) -> u64 {
        match &self.result {
            OpResult::Atomic(v) => *v,
            other => panic!("completion is not an atomic: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_addr_offset_advances() {
        let a = RemoteAddr::new(BladeId(2), 100);
        let b = a.offset(28);
        assert_eq!(b.blade, BladeId(2));
        assert_eq!(b.offset_bytes, 128);
        assert_eq!(b.to_string(), "blade2+0x80");
    }

    #[test]
    fn payload_accounting_per_op() {
        let addr = RemoteAddr::new(BladeId(0), 0);
        let read = OneSidedOp::Read { addr, len: 64 };
        assert_eq!(read.request_payload(), 0);
        assert_eq!(read.response_payload(), 64);
        assert!(!read.is_atomic());

        let write = OneSidedOp::Write {
            addr,
            data: vec![0; 32],
            persistent: false,
        };
        assert_eq!(write.request_payload(), 32);
        assert_eq!(write.response_payload(), 0);

        let cas = OneSidedOp::Cas {
            addr,
            expect: 0,
            swap: 1,
        };
        assert_eq!(cas.request_payload(), 16);
        assert_eq!(cas.response_payload(), 8);
        assert!(cas.is_atomic());
    }

    #[test]
    fn cqe_accessors() {
        let c = Cqe {
            wr_id: 7,
            result: OpResult::Atomic(9),
        };
        assert_eq!(c.atomic_old(), 9);
        let r = Cqe {
            wr_id: 8,
            result: OpResult::Read(vec![1, 2]),
        };
        assert_eq!(r.read_data(), &[1, 2]);
    }

    #[test]
    fn error_retriability_classification() {
        for e in [
            CqeError::FlushErr,
            CqeError::RnrNak,
            CqeError::Timeout,
            CqeError::MrRevoked,
        ] {
            assert!(e.is_retriable(), "{e} should be retriable");
        }
        for e in [CqeError::RemoteAccess, CqeError::Length] {
            assert!(!e.is_retriable(), "{e} must not be retriable");
        }
        let c = Cqe {
            wr_id: 3,
            result: OpResult::Error(CqeError::Timeout),
        };
        assert!(c.is_error());
        assert_eq!(c.error(), Some(CqeError::Timeout));
        let ok = Cqe {
            wr_id: 4,
            result: OpResult::Write,
        };
        assert!(!ok.is_error());
        assert_eq!(ok.error(), None);
    }

    #[test]
    #[should_panic(expected = "not a READ")]
    fn cqe_wrong_accessor_panics() {
        let c = Cqe {
            wr_id: 7,
            result: OpResult::Write,
        };
        let _ = c.read_data();
    }
}
