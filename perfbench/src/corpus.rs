//! Seeded workload inputs and the in-process reference check.

use crate::Args;
use cmr_core::Pipeline;
use cmr_corpus::{CorpusBuilder, NoiseInjector};
use std::io::{BufWriter, Write};

/// Noise level of the corrupted notes (`NoiseInjector::from_level`).
const NOISE_LEVEL: f64 = 0.3;

/// Seed of the fixed pool the corrupted notes come from (the default
/// seed of `cmr generate`). Corrupted notes have a heavy-tailed cost: the
/// median note extracts in about 1 ms, one in ten takes over 20 ms and
/// one in a hundred 0.1-1 s, when dropped periods merge sentences into
/// 30-47 words whose cold link parse is cubic in length. A fresh sample
/// of a few hundred such notes per seed moves the total cost by +-30%,
/// so every seed draws the same pool and only orders it differently.
const POOL_SEED: u64 = 2005;

/// `gen --records N --seed S --noisy-every K --out FILE`: writes N notes
/// as NDJSON `{"text": ...}` lines. Position i holds a clean note
/// generated from seed S, except that with K > 0 every K-th position
/// (i % K == K - 1) holds a corrupted note of the fixed pool instead. The
/// pool is the first M notes of seed 2005 at noise level 0.3, M being the
/// number of such positions, placed in an order shuffled by S.
pub fn generate(args: &Args) -> Result<String, String> {
    let records: usize = args.num("records")?;
    let seed: u64 = args.num("seed")?;
    let noisy_every: usize = args.num("noisy-every")?;
    let out = args.str("out")?;
    let plan = CorpusBuilder::new().records(records).seed(seed).plan();
    let is_noisy = |i: usize| noisy_every > 0 && i % noisy_every == noisy_every - 1;
    let pool_size = (0..records).filter(|&i| is_noisy(i)).count();
    let pool_plan = CorpusBuilder::new()
        .records(pool_size)
        .seed(POOL_SEED)
        .plan();
    let noise = NoiseInjector::from_level(NOISE_LEVEL, POOL_SEED);
    let mut pool = crate::shuffle(pool_size, seed).into_iter();
    let file = std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
    let mut w = BufWriter::new(file);
    let mut bytes = 0usize;
    for i in 0..records {
        let text = match is_noisy(i).then(|| pool.next()).flatten() {
            Some(p) => noise.corrupt(&pool_plan.record(p).text),
            None => plan.record(i).text,
        };
        bytes += text.len();
        writeln!(w, "{{\"text\":{}}}", crate::json_str(&text))
            .map_err(|e| format!("writing {out}: {e}"))?;
    }
    w.flush().map_err(|e| format!("writing {out}: {e}"))?;
    Ok(format!(
        "{{\"records\":{records},\"noisy\":{pool_size},\"text_bytes\":{bytes}}}"
    ))
}

/// The note texts of an NDJSON corpus written by [`generate`].
pub fn read_notes(path: &str) -> Result<Vec<String>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    raw.lines()
        .enumerate()
        .map(|(i, line)| {
            note_text(line).ok_or_else(|| format!("{path}:{}: not a {{\"text\": ...}} line", i + 1))
        })
        .collect()
}

fn note_text(line: &str) -> Option<String> {
    match serde_json::parse_value_str(line).ok()? {
        serde::Value::Object(fields) => fields.into_iter().find_map(|(k, v)| match v {
            serde::Value::String(s) if k == "text" => Some(s),
            _ => None,
        }),
        _ => None,
    }
}

/// `verify --corpus FILE --output FILE`: compares every line `cmr extract`
/// wrote against in-process `Pipeline::extract` of the same note.
pub fn verify(args: &Args) -> Result<String, String> {
    let corpus = args.str("corpus")?;
    let output = args.str("output")?;
    let notes = read_notes(corpus)?;
    let lines = std::fs::read_to_string(output).map_err(|e| format!("reading {output}: {e}"))?;
    let lines: Vec<&str> = lines.lines().collect();
    let pipeline = Pipeline::with_default_schema();
    let mut mismatched = 0usize;
    let mut first: Option<usize> = None;
    for (i, note) in notes.iter().enumerate() {
        let want = serde_json::to_string(&pipeline.extract(note)).expect("records serialize");
        if lines.get(i) != Some(&want.as_str()) {
            mismatched += 1;
            first.get_or_insert(i);
        }
    }
    let extra = lines.len().saturating_sub(notes.len());
    Ok(format!(
        "{{\"checked\":{},\"mismatched\":{},\"extra_lines\":{extra},\"first_mismatch\":{}}}",
        notes.len(),
        mismatched + extra,
        first.map_or("null".to_string(), |i| i.to_string())
    ))
}
