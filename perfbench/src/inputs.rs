//! Seeded input generation. Everything here runs before any timer: the
//! program under test only ever sees the generated text (and, for the
//! served workload, the stand files written here).

use std::path::{Path, PathBuf};

use comptest::dut::ecus;
use comptest_workload::{gen_workbook_text_prefixed, SplitMix64, WorkbookShape};

/// One named text input (a workbook or a stand file).
#[derive(Debug, Clone)]
pub struct TextInput {
    /// File name reported in parse diagnostics.
    pub file: String,
    /// The text handed to the parser.
    pub text: String,
}

/// The three bundled stands every matrix variant is cloned from, with the
/// `name = …` line that the clone renames.
const BASE_STANDS: [(&str, &str); 3] = [
    ("stand_a.stand", "name = HIL-A"),
    ("stand_b.stand", "name = SUPPLIER-B"),
    ("stand_minimal.stand", "name = MINI"),
];

fn read_asset(name: &str) -> String {
    let path = comptest::asset(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The five bundled ECU workbooks, in [`ecus::NAMES`] order.
pub fn bundled_workbooks() -> Vec<TextInput> {
    ecus::NAMES
        .iter()
        .map(|ecu| TextInput {
            file: format!("{ecu}.cts"),
            text: read_asset(&format!("{ecu}.cts")),
        })
        .collect()
}

/// Deterministic Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// Generates stand clones: `count` uniquely renamed copies of the three
/// bundled stands in fixed proportions (round-robin), in a seed-chosen
/// order. Names are `{tag}-{index:04}`, so every clone keys differently in
/// the cache and the matrix has no duplicate stand.
#[derive(Debug)]
pub struct StandCloner {
    bases: Vec<(String, &'static str)>,
}

impl StandCloner {
    /// Reads the bundled stand texts.
    pub fn new() -> Self {
        Self {
            bases: BASE_STANDS
                .iter()
                .map(|(file, line)| (read_asset(file), *line))
                .collect(),
        }
    }

    /// `count` clones named `{tag}-NNNN`, shuffled by `rng`.
    pub fn clones(&self, rng: &mut SplitMix64, tag: &str, count: usize) -> Vec<TextInput> {
        let mut order: Vec<usize> = (0..count).map(|i| i % self.bases.len()).collect();
        shuffle(rng, &mut order);
        order
            .into_iter()
            .enumerate()
            .map(|(i, base)| {
                let (text, line) = &self.bases[base];
                let name = format!("{tag}-{i:04}");
                TextInput {
                    file: format!("{name}.stand"),
                    text: text.replacen(line, &format!("name = {name}"), 1),
                }
            })
            .collect()
    }
}

/// A seed-derived tag of fixed width, so names differ between seeds but
/// parse and hash at the same cost.
pub fn seed_tag(rng: &mut SplitMix64, prefix: &str) -> String {
    format!("{prefix}{:04X}", rng.next_u64() & 0xFFFF)
}

/// Shape of one composite-vehicle suite: two input signals, 100 two-step
/// tests.
pub const VEHICLE_SHAPE: WorkbookShape = WorkbookShape {
    signals: 2,
    tests: 100,
    steps: 2,
};

/// Blocks of the composite vehicle (one generated suite per block).
pub const VEHICLE_BLOCKS: usize = 10;

/// The ten generated block workbooks of `vehicle_sim`.
pub fn vehicle_workbooks(rng: &mut SplitMix64) -> Vec<TextInput> {
    (0..VEHICLE_BLOCKS)
        .map(|k| {
            let mut block_rng = SplitMix64::new(rng.next_u64());
            TextInput {
                file: format!("e{k}.cts"),
                text: gen_workbook_text_prefixed(&mut block_rng, &VEHICLE_SHAPE, &format!("e{k}_")),
            }
        })
        .collect()
}

/// Writes `inputs` into `dir` and returns the written paths.
pub fn write_files(dir: &Path, inputs: &[TextInput]) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    inputs
        .iter()
        .map(|input| {
            let path = dir.join(&input.file);
            std::fs::write(&path, &input.text)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            path
        })
        .collect()
}
