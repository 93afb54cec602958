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
    /// An intact artifact describes some other input than the one it is
    /// used with, so it is **stale** and must be rebuilt: a binary cache
    /// whose source file changed (e.g. replaced by a same-length file with a
    /// deliberately preserved older mtime, `cp -p`), a pool spill sampled
    /// over another graph, or a delta log recorded against another base.
    StaleSource {
        /// Which artifact went stale.
        artifact: StaleArtifact,
        /// The digest the artifact should carry: the source file's as it
        /// exists now, or the digest of the graph it is used with.
        expected: u64,
        /// The digest the artifact recorded when it was written.
        found: u64,
    },
}

/// The artifact a [`GraphError::StaleSource`] found stale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaleArtifact {
    /// A binary dataset cache; the digests are of its source file.
    SourceCache,
    /// A spilled sketch pool; the digests are of the graph it serves.
    PoolSpill,
    /// A delta log; the digests are of its base graph.
    DeltaLog,
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
            GraphError::StaleSource {
                artifact: StaleArtifact::SourceCache,
                expected,
                found,
            } => write!(
                f,
                "stale binary cache: source file now hashes to {expected:#018x} but the \
                 cache was built from {found:#018x} — rebuild from source"
            ),
            GraphError::StaleSource {
                artifact: StaleArtifact::PoolSpill,
                expected,
                found,
            } => write!(
                f,
                "stale pool spill: the served graph has digest {expected:#018x} but the \
                 spill was sampled over graph {found:#018x} — rebuild the pool"
            ),
            GraphError::StaleSource {
                artifact: StaleArtifact::DeltaLog,
                expected,
                found,
            } => write!(
                f,
                "stale delta log: the base graph has digest {expected:#018x} but the log \
                 was recorded against base {found:#018x}"
            ),
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
        let stale = |artifact| {
            GraphError::StaleSource {
                artifact,
                expected: 0xab,
                found: 0xcd,
            }
            .to_string()
        };
        assert_eq!(
            stale(StaleArtifact::SourceCache),
            "stale binary cache: source file now hashes to 0x00000000000000ab but the cache \
             was built from 0x00000000000000cd — rebuild from source"
        );
        assert_eq!(
            stale(StaleArtifact::PoolSpill),
            "stale pool spill: the served graph has digest 0x00000000000000ab but the spill \
             was sampled over graph 0x00000000000000cd — rebuild the pool"
        );
        assert_eq!(
            stale(StaleArtifact::DeltaLog),
            "stale delta log: the base graph has digest 0x00000000000000ab but the log was \
             recorded against base 0x00000000000000cd"
        );
    }
}
