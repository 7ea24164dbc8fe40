//! Analyser errors.

use atgpu_ir::IrError;
use atgpu_model::ModelError;
use std::fmt;

/// Errors raised during static analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The program failed IR validation.
    Ir(IrError),
    /// The program violates a machine limit.
    Model(ModelError),
    /// The analysis covers several devices or peer traffic, so one
    /// device's metrics table cannot price it faithfully.
    MultiDevice {
        /// What makes the program multi-device.
        reason: String,
    },
    /// A shared-memory access can touch addresses outside the kernel's
    /// declared shared allocation.
    SharedOutOfRange {
        /// Kernel name.
        kernel: String,
        /// Lowest address the access can touch.
        min: i128,
        /// Highest address the access can touch.
        max: i128,
        /// Declared shared words.
        declared: u64,
    },
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Ir(e) => write!(f, "IR error: {e}"),
            AnalyzeError::Model(e) => write!(f, "model error: {e}"),
            AnalyzeError::MultiDevice { reason } => write!(
                f,
                "multi-device program ({reason}); read each device's table of \
                 `analyze_cluster_program`, or price them on the cluster with `predict`"
            ),
            AnalyzeError::SharedOutOfRange { kernel, min, max, declared } => write!(
                f,
                "kernel `{kernel}`: shared access range [{min}, {max}] exceeds the declared \
                 {declared} words"
            ),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<IrError> for AnalyzeError {
    fn from(e: IrError) -> Self {
        AnalyzeError::Ir(e)
    }
}

impl From<ModelError> for AnalyzeError {
    fn from(e: ModelError) -> Self {
        AnalyzeError::Model(e)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn wraps_ir_error() {
        let e: AnalyzeError = IrError::EmptyProgram.into();
        assert!(e.to_string().contains("no rounds"));
    }

    #[test]
    fn multi_device_message_names_the_cluster_doors() {
        let s = AnalyzeError::MultiDevice { reason: "r".into() }.to_string();
        assert!(s.contains("analyze_cluster_program") && s.contains("`predict`"), "{s}");
    }

    #[test]
    fn shared_range_message() {
        let e =
            AnalyzeError::SharedOutOfRange { kernel: "k".into(), min: -1, max: 40, declared: 32 };
        let s = e.to_string();
        assert!(s.contains("[-1, 40]") && s.contains("32"));
    }
}
