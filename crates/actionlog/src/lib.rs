//! # comic-actionlog
//!
//! User action logs and the learning methodology of the paper's §7.2:
//!
//! * [`log`] — timestamped `(user, item, action)` records with the two
//!   action kinds the paper extracts from Flixster/Douban: *inform* signals
//!   ("want to see", "not interested", wish-listing) and *rate* signals
//!   (actual adoption; rating implies prior informing).
//! * [`synth`] — synthetic log generation by running Com-IC cascades with
//!   ground-truth GAPs over a social graph (the offline stand-in for the
//!   proprietary Flixster/Douban logs; see DIVERGENCES.md, "Datasets and
//!   action logs").
//! * [`gap_learn`] — the paper's GAP estimators with 95% normal-approximation
//!   confidence intervals (Tables 5–7).
//! * [`influence_learn`] — static Bernoulli edge-probability learning in the
//!   spirit of Goyal, Bonchi & Lakshmanan [12], which the paper uses to
//!   obtain `p(u, v)`.
//! * [`io`] — a line-oriented text format for logs, so fixture logs can be
//!   committed next to fixture graphs and replayed deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod gap_learn;
pub mod influence_learn;
pub mod io;
pub mod log;
pub mod synth;

pub use error::LogError;
pub use gap_learn::{learn_gaps, learn_gaps_with, Estimate, GapLearnConfig, LearnedGaps};
pub use influence_learn::{learn_influence, InfluenceLearnConfig};
pub use log::{Action, ActionLog, ItemId, LogRecord, UserId};
