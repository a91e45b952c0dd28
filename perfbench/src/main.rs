//! Helper binary of the repository benchmark (`perfbench/run.py`).
//!
//! ```text
//! cmr-perfbench gen    --records N --seed S --noisy-every K --out FILE
//! cmr-perfbench verify --corpus FILE --output FILE
//! cmr-perfbench trace  --corpus FILE --spans FILE [--journal FILE --compact-every K]
//! cmr-perfbench closed --addr HOST:PORT --corpus FILE --expected FILE --conns C
//!                      [--seed S]
//! cmr-perfbench drive  --addr HOST:PORT --corpus FILE --expected FILE --rate R
//!                      --seconds T --conns C --seed S --limit-ms L
//! ```
//!
//! Every subcommand prints one JSON object on stdout. A malformed
//! argument or an I/O error exits 2 with a one-line message on stderr.

mod corpus;
mod drive;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// `--key value` pairs of one subcommand.
pub struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    /// A required string argument.
    pub fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    /// An optional string argument (empty when absent).
    pub fn opt(&self, name: &str) -> &str {
        self.0.get(name).map_or("", String::as_str)
    }

    /// A required argument parsed as `T`.
    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.str(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a number"))
    }
}

/// A permutation of `0..n` determined by `seed` (Fisher-Yates over
/// xorshift64).
pub fn shuffle(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        idx.swap(i, (state % (i as u64 + 1)) as usize);
    }
    idx
}

/// JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// JSON number for `x` (non-finite values become `null`).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("cmr-perfbench: expected a subcommand: gen, verify, trace, closed or drive");
        return ExitCode::from(2);
    };
    let result = Args::parse(&argv[1..]).and_then(|args| match cmd.as_str() {
        "gen" => corpus::generate(&args),
        "verify" => corpus::verify(&args),
        "trace" => trace::run(&args),
        "drive" => drive::run(&args),
        "closed" => drive::closed(&args),
        other => Err(format!("unknown subcommand `{other}`")),
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cmr-perfbench {cmd}: {e}");
            ExitCode::from(2)
        }
    }
}
