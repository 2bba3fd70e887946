//! Kernel launch outcomes: the failure taxonomy's "crash" and "hang" arms.

use crate::stats::ExecStats;
use hauberk_kir::MemSpace;
use std::fmt;

/// Why a kernel trapped (crashed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrapReason {
    /// Access beyond the allocated region while strict memory checking is
    /// enabled (CPU mode's page protection; never raised in GPU mode, where
    /// accesses wrap instead).
    OutOfBounds {
        /// Memory space of the faulting access.
        space: MemSpace,
        /// Faulting byte address.
        addr: u32,
    },
    /// Misaligned access (trapped in both modes, like CUDA's
    /// `cudaErrorMisalignedAddress`).
    Misaligned {
        /// Memory space of the faulting access.
        space: MemSpace,
        /// Faulting byte address.
        addr: u32,
    },
    /// Integer division/remainder by zero under strict (CPU) semantics.
    /// GPU mode returns 0, like CUDA hardware.
    IntDivByZero,
    /// A corrupted instruction could not be executed (code-fault emulation
    /// in the CPU-programs study).
    IllegalInstruction,
    /// The kernel required more shared memory than the device provides
    /// (a launch failure; this is how R-Scatter fails on TPACF).
    SharedMemOverflow {
        /// Bytes requested.
        requested: u32,
        /// Bytes available per block.
        available: u32,
    },
}

impl fmt::Display for TrapReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapReason::OutOfBounds { space, addr } => {
                write!(f, "out-of-bounds access at {space}:{addr:#x}")
            }
            TrapReason::Misaligned { space, addr } => {
                write!(f, "misaligned access at {space}:{addr:#x}")
            }
            TrapReason::IntDivByZero => f.write_str("integer division by zero"),
            TrapReason::IllegalInstruction => f.write_str("illegal instruction"),
            TrapReason::SharedMemOverflow {
                requested,
                available,
            } => write!(
                f,
                "shared memory overflow: requested {requested} B, available {available} B"
            ),
        }
    }
}

/// Result of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchOutcome {
    /// The kernel ran to completion.
    Completed(ExecStats),
    /// The kernel crashed; the GPU runtime detects this by default
    /// ("GPU runtime can detect all GPU kernel crashes", §IV.A).
    Crash {
        /// Why.
        reason: TrapReason,
        /// Statistics accumulated up to the crash.
        stats: ExecStats,
    },
    /// The kernel exceeded its cycle budget — the simulator-level analogue
    /// of the guardian's hang watchdog.
    Hang {
        /// Statistics accumulated up to the cutoff.
        stats: ExecStats,
    },
}

impl LaunchOutcome {
    /// Whether the launch completed normally.
    pub fn is_completed(&self) -> bool {
        matches!(self, LaunchOutcome::Completed(_))
    }

    /// The stats, whatever the outcome.
    pub fn stats(&self) -> &ExecStats {
        match self {
            LaunchOutcome::Completed(s) => s,
            LaunchOutcome::Crash { stats, .. } | LaunchOutcome::Hang { stats } => stats,
        }
    }

    /// Stable telemetry label: `completed`, `crash` or `hang`.
    pub fn label(&self) -> &'static str {
        match self {
            LaunchOutcome::Completed(_) => "completed",
            LaunchOutcome::Crash { .. } => "crash",
            LaunchOutcome::Hang { .. } => "hang",
        }
    }

    /// The stats if the launch completed.
    pub fn completed_stats(&self) -> Option<&ExecStats> {
        match self {
            LaunchOutcome::Completed(s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let s = ExecStats {
            work_cycles: 5,
            ..Default::default()
        };
        let c = LaunchOutcome::Completed(s.clone());
        assert!(c.is_completed());
        assert_eq!(c.stats().work_cycles, 5);
        let k = LaunchOutcome::Crash {
            reason: TrapReason::IntDivByZero,
            stats: s.clone(),
        };
        assert!(!k.is_completed());
        assert!(k.completed_stats().is_none());
        assert_eq!(k.stats().work_cycles, 5);
    }

    #[test]
    fn trap_display_is_informative() {
        let t = TrapReason::Misaligned {
            space: MemSpace::Global,
            addr: 0x13,
        };
        assert!(t.to_string().contains("misaligned"));
        assert!(t.to_string().contains("0x13"));
    }
}
