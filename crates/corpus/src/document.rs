//! The sectioned report embedding the claims.

use crate::claims::ClaimRecord;
use crate::CorpusConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One document section.
#[derive(Debug, Clone)]
pub struct Section {
    /// Section number.
    pub id: usize,
    /// Section title.
    pub title: String,
    /// Total sentences in the section (claims + filler).
    pub sentence_count: usize,
    /// Claim ids located in this section.
    pub claim_ids: Vec<usize>,
}

impl Section {
    /// Reading/skimming cost `r(s)` of Definition 8, at `seconds_per_sentence`
    /// skim speed.
    pub fn read_cost(&self, seconds_per_sentence: f64) -> f64 {
        self.sentence_count as f64 * seconds_per_sentence
    }
}

/// The report: an ordered list of sections.
#[derive(Debug, Clone)]
pub struct Document {
    /// Sections in document order.
    pub sections: Vec<Section>,
    /// Total sentence count (the paper's document has 7901).
    pub total_sentences: usize,
}

/// Filler topics for section titles.
const SECTION_THEMES: &[&str] = &[
    "Global Energy Trends",
    "Outlook for Electricity",
    "Oil Markets",
    "Natural Gas Markets",
    "Coal Markets",
    "Renewables",
    "Energy Efficiency",
    "Emissions and Climate",
    "Energy Access",
    "Investment and Finance",
    "Regional Focus",
    "Technology Outlook",
    "Policy Scenarios",
    "Transport",
    "Industry",
    "Buildings",
    "Power Sector Transformation",
    "Critical Minerals",
    "Hydrogen",
    "Energy Security",
    "Methane Abatement",
    "Offshore Energy",
    "Bioenergy",
    "Nuclear Power",
    "Grids and Storage",
    "Annex and Methodology",
];

/// Distributes claims and filler sentences across sections.
pub fn build_document(config: &CorpusConfig, claims: &[ClaimRecord]) -> Document {
    let n_sections = config.n_sections.max(1);
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xD0C5);
    // claims already carry their section assignment (clustered by topic)
    let mut claim_ids: Vec<Vec<usize>> = vec![Vec::new(); n_sections];
    for claim in claims {
        claim_ids[claim.section % n_sections].push(claim.id);
    }
    // spread the filler sentences roughly evenly with jitter
    let filler_total = config.n_sentences.saturating_sub(claims.len());
    let base = filler_total / n_sections;
    let mut sections = Vec::with_capacity(n_sections);
    let mut used = 0usize;
    for id in 0..n_sections {
        let jitter = if base > 4 {
            rng.gen_range(0..base / 2)
        } else {
            0
        };
        let filler = if id + 1 == n_sections {
            filler_total - used
        } else {
            (base + jitter).min(filler_total - used)
        };
        used += filler;
        sections.push(Section {
            id,
            title: SECTION_THEMES[id % SECTION_THEMES.len()].to_string(),
            sentence_count: filler + claim_ids[id].len(),
            claim_ids: std::mem::take(&mut claim_ids[id]),
        });
    }
    let total_sentences = sections.iter().map(|s| s.sentence_count).sum();
    Document {
        sections,
        total_sentences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::generate_claims;
    use crate::formulas::generate_pool;
    use crate::tables::generate_catalog;

    fn build() -> (CorpusConfig, Document, Vec<ClaimRecord>) {
        let config = CorpusConfig::small();
        let catalog = generate_catalog(&config);
        let pool = generate_pool(&config);
        let claims = generate_claims(&config, &catalog, &pool);
        let document = build_document(&config, &claims);
        (config, document, claims)
    }

    #[test]
    fn all_claims_are_placed_exactly_once() {
        let (config, document, claims) = build();
        let mut placed: Vec<usize> = document
            .sections
            .iter()
            .flat_map(|s| s.claim_ids.iter().copied())
            .collect();
        placed.sort_unstable();
        assert_eq!(placed, (0..claims.len()).collect::<Vec<_>>());
        assert_eq!(document.sections.len(), config.n_sections);
    }

    #[test]
    fn sentence_budget_matches_config() {
        let (config, document, _) = build();
        assert_eq!(document.total_sentences, config.n_sentences);
    }

    #[test]
    fn section_of_finds_claims() {
        let (_, document, claims) = build();
        for claim in &claims {
            assert!(document.sections[claim.section]
                .claim_ids
                .contains(&claim.id));
        }
        assert!(document
            .sections
            .iter()
            .all(|s| !s.claim_ids.contains(&999_999)));
    }

    #[test]
    fn read_cost_scales_with_length() {
        let (_, document, _) = build();
        let s = &document.sections[0];
        assert!((s.read_cost(2.0) - 2.0 * s.sentence_count as f64).abs() < 1e-9);
    }

    #[test]
    fn claims_cluster_by_topic() {
        // claims on the same topic share a section (enables batch savings)
        let (_, document, claims) = build();
        for section in &document.sections {
            let mut topics: Vec<&str> = section
                .claim_ids
                .iter()
                .map(|&id| claims[id].relation.split('_').next().unwrap())
                .collect();
            topics.sort_unstable();
            topics.dedup();
            // small corpora: each section hosts only a handful of topics
            assert!(
                topics.len() <= 8,
                "section {} hosts {} topics",
                section.id,
                topics.len()
            );
        }
    }
}
