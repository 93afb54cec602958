//! Error type for graph construction and I/O.

use std::fmt;

/// Errors produced while building, generating, or (de)serializing graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a node id `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The declared number of nodes.
        n: usize,
    },
    /// An edge probability was outside `[0, 1]` or not finite.
    InvalidProbability {
        /// Source of the offending edge.
        source: u32,
        /// Target of the offending edge.
        target: u32,
        /// The offending probability value.
        p: f64,
    },
    /// A generator was asked for an impossible configuration
    /// (e.g. more edges than `n·(n−1)`).
    InvalidGeneratorConfig(String),
    /// A parse error while reading a text edge list.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// An underlying I/O error.
    Io(std::io::Error),
    /// A binary payload failed validation.
    Corrupt(String),
    /// A binary payload declared a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The one version of this format that this build reads.
        supported: u32,
    },
    /// A binary payload's content digest did not match its header — the
    /// cache file is corrupt (or was produced from different content).
    DigestMismatch {
        /// Digest stored in the header.
        expected: u64,
        /// Digest recomputed from the payload.
        found: u64,
    },
    /// An edge-delta record contradicted the graph state at its position in
    /// the log (add of an existing edge, remove/reweight of a missing edge,
    /// self-loop add, an add past the `u32` edge-count cap). The log is an
    /// authoritative journal: conflicts mean
    /// the log and the base graph have diverged, and silently reconciling
    /// them would mask the divergence.
    DeltaConflict {
        /// 0-based position of the offending record in the log.
        index: usize,
        /// Human-readable description of the conflict.
        msg: String,
    },
    /// A binary cache was built from a source file whose content digest no
    /// longer matches the file on disk: the cache is intact but **stale**
    /// (e.g. the source was replaced by a same-length file with a
    /// deliberately preserved older mtime, `cp -p`), and must be rebuilt.
    StaleSource {
        /// Digest of the source file as it exists now.
        expected: u64,
        /// Source digest recorded in the cache header at write time.
        found: u64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node id {node} out of range for graph with {n} nodes")
            }
            GraphError::InvalidProbability { source, target, p } => {
                write!(f, "edge ({source}, {target}) has invalid probability {p}")
            }
            GraphError::InvalidGeneratorConfig(msg) => {
                write!(f, "invalid generator configuration: {msg}")
            }
            GraphError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Corrupt(msg) => write!(f, "corrupt graph payload: {msg}"),
            GraphError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported binary format version {found} (this build reads only version {supported})"
                )
            }
            GraphError::DigestMismatch { expected, found } => {
                write!(
                    f,
                    "graph digest mismatch: header says {expected:#018x}, payload hashes to {found:#018x}"
                )
            }
            GraphError::DeltaConflict { index, msg } => {
                write!(f, "delta {index} conflicts with base graph: {msg}")
            }
            GraphError::StaleSource { expected, found } => {
                write!(
                    f,
                    "stale binary cache: source file now hashes to {expected:#018x} but the \
                     cache was built from {found:#018x} — rebuild from source"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::NodeOutOfRange { node: 9, n: 5 };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("5"));
        let e = GraphError::InvalidProbability {
            source: 1,
            target: 2,
            p: 1.5,
        };
        assert!(e.to_string().contains("1.5"));
        let e = GraphError::Parse {
            line: 3,
            msg: "bad".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = GraphError::UnsupportedVersion {
            found: 2,
            supported: 3,
        };
        assert_eq!(
            e.to_string(),
            "unsupported binary format version 2 (this build reads only version 3)"
        );
        let e = GraphError::DigestMismatch {
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("mismatch"));
        let e = GraphError::DeltaConflict {
            index: 4,
            msg: "remove of missing edge (1, 2)".into(),
        };
        assert!(e.to_string().contains("delta 4"));
    }
}
