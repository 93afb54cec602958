//! Tables 5–7 — GAPs learned from action logs with 95% confidence
//! intervals.
//!
//! The proprietary logs are replaced by Com-IC-generated synthetic logs
//! whose *ground-truth* GAPs are set to the paper's learned values
//! (DIVERGENCES.md, "Datasets and action logs"), so each row shows: truth,
//! learned estimate ± CI, and whether the truth is covered — an end-to-end
//! validation of the §7.2 estimators.

use crate::datasets::{DataSource, Dataset};
use crate::report::{pm, Table};
use crate::Scale;
use comic_actionlog::synth::{synthesize_pair_log, SynthConfig};
use comic_actionlog::{learn_gaps_with, GapLearnConfig, ItemId};
use comic_core::Gap;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One item pair with the paper's learned GAPs as ground truth.
pub struct PairRow {
    /// Item A's title.
    pub item_a: &'static str,
    /// Item B's title.
    pub item_b: &'static str,
    /// Ground truth = the paper's learned point estimates.
    pub truth: (f64, f64, f64, f64),
}

/// The selected pairs of Tables 5, 6 and 7.
pub fn pairs_for(dataset: Dataset) -> Vec<PairRow> {
    match dataset {
        Dataset::Flixster => vec![
            PairRow {
                item_a: "Monster Inc.",
                item_b: "Shrek",
                truth: (0.88, 0.92, 0.92, 0.96),
            },
            PairRow {
                item_a: "Gone in 60 Seconds",
                item_b: "Armageddon",
                truth: (0.63, 0.77, 0.67, 0.82),
            },
            PairRow {
                item_a: "Harry Potter: Prisoner of Azkaban",
                item_b: "What a Girl Wants",
                truth: (0.85, 0.84, 0.66, 0.67),
            },
            PairRow {
                item_a: "Shrek",
                item_b: "The Fast and The Furious",
                truth: (0.92, 0.94, 0.80, 0.79),
            },
        ],
        Dataset::DoubanBook => vec![
            PairRow {
                item_a: "The Unbearable Lightness of Being",
                item_b: "Norwegian Wood",
                truth: (0.75, 0.85, 0.92, 0.97),
            },
            PairRow {
                item_a: "Harry Potter I",
                item_b: "Harry Potter VI",
                truth: (0.99, 1.0, 0.97, 0.98),
            },
            PairRow {
                item_a: "Stories of Ming Dynasty III",
                item_b: "Stories of Ming Dynasty VI",
                truth: (0.94, 1.0, 0.88, 0.98),
            },
            PairRow {
                item_a: "Fortress Besieged",
                item_b: "Love Letter",
                truth: (0.89, 0.91, 0.82, 0.83),
            },
        ],
        Dataset::DoubanMovie => vec![
            PairRow {
                item_a: "Up",
                item_b: "3 Idiots",
                truth: (0.92, 0.94, 0.92, 0.93),
            },
            PairRow {
                item_a: "Pulp Fiction",
                item_b: "Leon",
                truth: (0.81, 0.83, 0.95, 0.98),
            },
            PairRow {
                item_a: "The Silence of the Lambs",
                item_b: "Inception",
                truth: (0.90, 0.86, 0.92, 0.98),
            },
            PairRow {
                item_a: "Fight Club",
                item_b: "Se7en",
                truth: (0.84, 0.89, 0.89, 0.95),
            },
        ],
        Dataset::LastFm => Vec::new(), // no inform signal (§7.3)
    }
}

/// The pair rows for any source: the paper's selections for the synthetic
/// stand-ins, and a single registry-GAP pair for loaded on-disk datasets
/// (whose true item catalogues we do not have).
pub fn pairs_for_source(source: &DataSource) -> Vec<PairRow> {
    match source.synthetic() {
        Some(d) => pairs_for(d),
        None => {
            let gap = source.gap();
            vec![PairRow {
                item_a: "item-A (registry GAP preset)",
                item_b: "item-B (registry GAP preset)",
                truth: (gap.q_a0, gap.q_ab, gap.q_b0, gap.q_ba),
            }]
        }
    }
}

/// Regenerate one of Tables 5–7 for `source`.
pub fn run(scale: &Scale, source: &DataSource) -> String {
    let table_no = match source.synthetic() {
        Some(Dataset::Flixster) => "5".to_string(),
        Some(Dataset::DoubanBook) => "6".to_string(),
        Some(Dataset::DoubanMovie) => "7".to_string(),
        Some(Dataset::LastFm) => {
            return "Last.fm has no informing signal; the paper uses synthetic GAPs (§7.3).\n"
                .to_string()
        }
        None => "5-7".to_string(),
    };
    let mut t = Table::new(format!(
        "Table {table_no} — learned GAPs on {} (synthetic logs, truth = paper's values)",
        source.name()
    ))
    .header(&[
        "A",
        "B",
        "q_A|0 (truth)",
        "q_A|B (truth)",
        "q_B|0 (truth)",
        "q_B|A (truth)",
        "covered",
    ]);
    // A small diffusion substrate is plenty for log generation.
    let g = source.graph((scale.size_factor * 0.25).max(0.01));
    let sessions = (400.0 * scale.size_factor.max(0.05) * 8.0) as usize;
    for (i, pair) in pairs_for_source(source).into_iter().enumerate() {
        let truth = Gap::new(pair.truth.0, pair.truth.1, pair.truth.2, pair.truth.3)
            .expect("paper GAPs are valid");
        let mut rng = SmallRng::seed_from_u64(scale.seed + i as u64);
        let log = synthesize_pair_log(
            &g,
            truth,
            ItemId(0),
            ItemId(1),
            &SynthConfig {
                sessions,
                seeds_per_item: 3,
                fresh_cohorts: true,
            },
            &mut rng,
        );
        match learn_gaps_with(
            &log,
            ItemId(0),
            ItemId(1),
            &GapLearnConfig {
                threads: scale.threads,
            },
        ) {
            Ok(l) => {
                let covered = [
                    l.q_a0.covers(truth.q_a0),
                    l.q_ab.covers(truth.q_ab),
                    l.q_b0.covers(truth.q_b0),
                    l.q_ba.covers(truth.q_ba),
                ]
                .iter()
                .filter(|&&c| c)
                .count();
                t.row(vec![
                    pair.item_a.to_string(),
                    pair.item_b.to_string(),
                    format!(
                        "{} ({:.2})",
                        pm(l.q_a0.value, l.q_a0.ci_half_width),
                        truth.q_a0
                    ),
                    format!(
                        "{} ({:.2})",
                        pm(l.q_ab.value, l.q_ab.ci_half_width),
                        truth.q_ab
                    ),
                    format!(
                        "{} ({:.2})",
                        pm(l.q_b0.value, l.q_b0.ci_half_width),
                        truth.q_b0
                    ),
                    format!(
                        "{} ({:.2})",
                        pm(l.q_ba.value, l.q_ba.ci_half_width),
                        truth.q_ba
                    ),
                    format!("{covered}/4"),
                ]);
            }
            Err(e) => {
                t.row(vec![
                    pair.item_a.to_string(),
                    pair.item_b.to_string(),
                    format!("insufficient data: {e}"),
                    String::new(),
                    String::new(),
                    String::new(),
                    "0/4".into(),
                ]);
            }
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flixster_table_renders_with_learned_values() {
        let scale = Scale {
            size_factor: 0.05,
            ..Scale::default()
        };
        let out = run(&scale, &DataSource::Synthetic(Dataset::Flixster));
        assert!(out.contains("Monster Inc."));
        assert!(out.contains("±"));
    }

    #[test]
    fn lastfm_is_explained_away() {
        let out = run(&Scale::default(), &DataSource::Synthetic(Dataset::LastFm));
        assert!(out.contains("no informing signal"));
    }
}
