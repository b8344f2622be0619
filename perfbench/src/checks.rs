//! Output checks. Each returns the list of failures it found, empty when
//! the output is correct.

use std::path::Path;

use imufit::trace::BlackBox;

/// The committed paper-seed fixture: mission 0 of the quick campaign.
const GOLDEN_CSV: &str = include_str!("../../tests/golden/campaign_small.csv");

/// The seed the golden fixture was captured at.
pub const GOLDEN_SEED: u64 = 2024;

/// Column indices of the campaign CSV.
const COL_DRONE: usize = 0;
const COL_FAULT: usize = 2;
const COL_OUTCOME: usize = 4;
const COL_INNER: usize = 8;

/// `actual` must equal `expected` byte for byte.
pub fn identical(what: &str, expected: &str, actual: &str) -> Vec<String> {
    if expected == actual {
        return Vec::new();
    }
    let at = expected
        .bytes()
        .zip(actual.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(actual.len()));
    vec![format!(
        "{what}: differs from the reference at byte {at} (lengths {} vs {})",
        expected.len(),
        actual.len()
    )]
}

/// What a campaign's gold (fault-free) runs must show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gold {
    /// Nothing beyond not aborting.
    Any,
    /// Completed the mission.
    Completed,
    /// Completed the mission without leaving the inner bubble.
    Clean,
}

/// A campaign CSV: `rows` records, none aborted, gold runs as `gold` asks.
pub fn campaign_csv(what: &str, csv: &str, rows: usize, gold: Gold) -> Vec<String> {
    let mut failures = Vec::new();
    let records: Vec<Vec<&str>> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect();
    if records.len() != rows {
        failures.push(format!("{what}: {} rows, expected {rows}", records.len()));
    }
    for (i, r) in records.iter().enumerate() {
        let field = |c: usize| r.get(c).copied().unwrap_or("");
        if field(COL_OUTCOME) == "aborted" {
            failures.push(format!("{what}: row {} aborted", i + 1));
        }
        let ok = match gold {
            Gold::Any => true,
            Gold::Completed => field(COL_OUTCOME) == "completed",
            Gold::Clean => field(COL_OUTCOME) == "completed" && field(COL_INNER) == "0",
        };
        if field(COL_FAULT) == "gold" && !ok {
            failures.push(format!(
                "{what}: gold row {} ended {} with {} inner violations",
                i + 1,
                field(COL_OUTCOME),
                field(COL_INNER)
            ));
        }
    }
    failures
}

/// At the paper seed, the quick campaign's mission-0 rows must be the
/// committed golden fixture, byte for byte.
pub fn golden_rows(csv: &str) -> Vec<String> {
    let mut mission0 = String::new();
    for (i, line) in csv.lines().enumerate() {
        if i == 0 || line.split(',').nth(COL_DRONE) == Some("0") {
            mission0.push_str(line);
            mission0.push('\n');
        }
    }
    identical(
        "mission-0 rows vs tests/golden/campaign_small.csv",
        GOLDEN_CSV,
        &mission0,
    )
}

/// Strictly decodes one black box.
pub fn black_box(what: &str, bytes: &[u8]) -> Vec<String> {
    match BlackBox::decode(bytes) {
        Ok(_) => Vec::new(),
        Err(e) => vec![format!("{what}: black box does not decode: {e}")],
    }
}

/// Every `.ifbb` file in `dir`, sorted by name.
pub fn box_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "ifbb"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit::core::{Campaign, CampaignConfig};
    use imufit::faults::FaultKind;

    fn small_csv() -> String {
        let mut config = CampaignConfig::scaled(1, vec![2.0], 7);
        config.faults.kinds = vec![FaultKind::Min];
        Campaign::new(config).run().to_csv()
    }

    #[test]
    fn correct_outputs_pass() {
        let csv = small_csv();
        assert!(campaign_csv("small", &csv, 4, Gold::Clean).is_empty());
        assert!(identical("small", &csv, &csv.clone()).is_empty());
        assert!(golden_rows(GOLDEN_CSV).is_empty());
    }

    #[test]
    fn one_flipped_csv_byte_fails() {
        let csv = small_csv();
        let mut flipped = csv.clone().into_bytes();
        let at = flipped.len() / 2;
        flipped[at] ^= 0x01;
        let flipped = String::from_utf8(flipped).expect("ASCII stays ASCII");
        assert_eq!(identical("flip", &csv, &flipped).len(), 1);
        let mut golden = GOLDEN_CSV.to_string().into_bytes();
        let last = golden.len() - 2;
        golden[last] ^= 0x01;
        assert_eq!(golden_rows(&String::from_utf8(golden).unwrap()).len(), 1);
    }

    #[test]
    fn aborted_or_missing_rows_fail() {
        let csv = small_csv();
        assert_eq!(campaign_csv("short", &csv, 5, Gold::Any).len(), 1);
        let aborted = csv.replacen(",completed,", ",aborted,", 1);
        assert!(!campaign_csv("aborted", &aborted, 4, Gold::Any).is_empty());
        let crashed = csv.replacen(",completed,", ",crash,", 1);
        assert_eq!(campaign_csv("gold", &crashed, 4, Gold::Completed).len(), 1);
        assert!(campaign_csv("gold", &crashed, 4, Gold::Any).is_empty());
        // The gold row is the first record; its inner-violation column is
        // the ninth field.
        let mut rows: Vec<String> = csv.lines().map(str::to_string).collect();
        let mut gold: Vec<&str> = rows[1].split(',').collect();
        gold[8] = "3";
        rows[1] = gold.join(",");
        let violated = rows.join("\n") + "\n";
        assert_eq!(campaign_csv("gold", &violated, 4, Gold::Clean).len(), 1);
        assert!(campaign_csv("gold", &violated, 4, Gold::Completed).is_empty());
    }

    #[test]
    fn truncated_black_box_fails() {
        let mut config = CampaignConfig::scaled(1, vec![2.0], 7);
        config.faults.kinds = vec![FaultKind::Min];
        config.trace.enabled = true;
        let spec = config.matrix()[1];
        let mut vehicle = Some(Campaign::build_vehicle(&config, &spec).expect("builds"));
        let sim = vehicle.as_mut().unwrap();
        sim.run_summary();
        let bytes = sim
            .take_black_box("mission=0")
            .expect("a faulted run captures a box");
        assert!(black_box("whole", &bytes).is_empty());
        assert_eq!(black_box("truncated", &bytes[..bytes.len() - 1]).len(), 1);
    }
}
