//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p cmr-bench --bin repro --release -- all
//! cargo run -p cmr-bench --bin repro --release -- table1
//! ```

#![deny(clippy::unwrap_used)]

use cmr_bench::*;
use cmr_core::{AssociationMethod, FeatureOptions};
use cmr_eval::{pct, Table};
use cmr_ontology::OntologyProfile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    match cmd {
        "numeric" => numeric(),
        "smoking" => smoking(),
        "table1" => table1(),
        "figure1" => figure1(),
        "alcohol" => alcohol(),
        "categorical" => categorical(),
        "ablation-classifier" => ablation_classifier(),
        "ablation-patterns" => ablation_patterns(),
        "knowledge" => knowledge(),
        "negation" => negation(),
        "ablation-assoc" => ablation_assoc(),
        "ablation-features" => ablation_features(),
        "ablation-ontology" => ablation_ontology(),
        "style-sweep" => style_sweep(),
        "all" => {
            figure1();
            numeric();
            smoking();
            table1();
            alcohol();
            categorical();
            ablation_classifier();
            ablation_patterns();
            ablation_assoc();
            ablation_features();
            ablation_ontology();
            style_sweep();
            negation();
            knowledge();
        }
        other => {
            errln!("unknown experiment `{other}`");
            errln!(
                "experiments: numeric smoking table1 figure1 alcohol categorical \
                 ablation-classifier ablation-patterns ablation-assoc \
                 ablation-features ablation-ontology style-sweep negation knowledge all"
            );
            std::process::exit(2);
        }
    }
}

fn heading(title: &str, paper: &str) {
    outln!("\n======================================================================");
    outln!("{title}");
    outln!("paper reports: {paper}");
    outln!("======================================================================");
}

/// E1 — §5 prose: 100% precision/recall on all eight numeric attributes.
fn numeric() {
    heading(
        "E1: numeric attributes (50 records, consistent dictation style)",
        "precision = recall = 100% on all 8 numeric attributes",
    );
    let corpus = paper_corpus();
    let report = run_numeric(&corpus, AssociationMethod::LinkWithFallback);
    let mut t = Table::new(vec![
        "Attribute",
        "Precision",
        "Recall",
        "Extracted",
        "Gold",
    ]);
    for (attr, pr) in &report.rows {
        t.row(vec![
            attr.clone(),
            pct(pr.precision()),
            pct(pr.recall()),
            pr.extracted().to_string(),
            pr.gold_total().to_string(),
        ]);
    }
    outln!("{}", t.render());
    let mut m = Table::new(vec!["Association mechanism", "Count"]);
    for (name, count) in &report.by_method {
        m.row(vec![name.clone(), count.to_string()]);
    }
    outln!("{}", m.render());
}

/// E2 — §5 prose: smoking ID3, 5-fold CV × 10, ≈92.2%, 4–7 features.
fn smoking() {
    heading(
        "E2: smoking-status ID3 (45 cases: 28 never / 12 current / 5 former)",
        "average precision (= recall) 92.2%; 4-7 features in the tree",
    );
    let corpus = paper_corpus();
    let result = run_smoking(&corpus, FeatureOptions::paper_smoking());
    outln!(
        "5-fold cross validation x 10 runs: mean accuracy {} (std {:.1} pts)",
        pct(result.mean_accuracy()),
        result.std_accuracy() * 100.0
    );
    let (lo, hi) = result.feature_count_range();
    outln!("features used per fold-tree: {lo} to {hi}\n");
    let mut t = Table::new(vec!["truth \\ predicted", "never", "former", "current"]);
    for (i, label) in result.label_names.iter().enumerate() {
        let idx = |name: &str| result.label_names.iter().position(|l| l == name);
        let cell = |j: Option<usize>| j.map(|j| result.confusion[i][j]).unwrap_or(0).to_string();
        t.row(vec![
            label.clone(),
            cell(idx("never")),
            cell(idx("former")),
            cell(idx("current")),
        ]);
    }
    outln!("pooled confusion matrix over 10 runs:\n{}", t.render());
}

/// T1 — Table 1: medical term extraction, paper-profile ontology.
fn table1() {
    heading(
        "T1 (Table 1): medical term extraction",
        "PMH-pre 96.7/96.7, PMH-other 76.1/86.4, PSH-pre 77.8/35.0, PSH-other 62.0/75.0 (%P/%R)",
    );
    let corpus = paper_corpus();
    for profile in [OntologyProfile::Paper, OntologyProfile::Full] {
        let report = run_table1(&corpus, profile);
        let mut t = Table::new(vec![
            "Attribute Name",
            "Precision",
            "95% CI",
            "Recall",
            "95% CI",
        ]);
        for row in &report.rows {
            let ci = |m| {
                let i = row.score.bootstrap_ci(m, 1000, 2005);
                format!("[{}, {}]", pct(i.lo), pct(i.hi))
            };
            t.row(vec![
                row.attribute.to_string(),
                pct(row.score.precision()),
                ci(cmr_eval::Metric::Precision),
                pct(row.score.recall()),
                ci(cmr_eval::Metric::Recall),
            ]);
        }
        outln!("ontology profile: {profile:?}\n{}", t.render());
    }
    outln!(
        "The Paper profile reproduces the paper's failure modes (missing surgical\n\
         synonyms; incomplete vocabulary); the Full profile shows the improvement\n\
         the paper's conclusion predicts from 'choosing an appropriate medical database'."
    );
}

/// F1 — Figure 1: the linkage diagram.
fn figure1() {
    heading(
        "F1 (Figure 1): linkage diagram",
        "4 links for the example clause; O link between 'is' and '144/90'",
    );
    // `write!` (not `writeln!`): the rendered figure ends with its own
    // newline, and a closed pipe must end the output quietly.
    {
        use std::io::Write as _;
        let _ = write!(std::io::stdout(), "{}", run_figure1());
    }
}

/// X1 — §3.3 extension: numeric boolean features for alcohol use.
fn alcohol() {
    heading(
        "X1: alcohol-use classification with numeric boolean features",
        "proposed as future work: word features alone perform poorly on numeric classes",
    );
    let corpus = paper_corpus();
    let (without, with) = run_alcohol(&corpus);
    let mut t = Table::new(vec!["Feature set", "Mean accuracy", "Features/fold"]);
    let fmt_range = |r: (usize, usize)| format!("{}-{}", r.0, r.1);
    t.row(vec![
        "words only (paper's current system)".to_string(),
        pct(without.mean_accuracy()),
        fmt_range(without.feature_count_range()),
    ]);
    t.row(vec![
        "words + numeric boolean (threshold 2)".to_string(),
        pct(with.mean_accuracy()),
        fmt_range(with.feature_count_range()),
    ]);
    outln!("{}", t.render());
}

/// X2 — the categorical fields the paper left incomplete.
fn categorical() {
    heading(
        "X2: remaining categorical attributes (paper: 'we have not completed \
         classification of all categorical fields')",
        "twelve categorical attributes required, six binary; only smoking was finished",
    );
    let corpus = paper_corpus();
    let mut t = Table::new(vec!["Field", "Cases", "Mean accuracy", "Features/fold"]);
    for (name, result, n) in run_remaining_categorical(&corpus) {
        let (lo, hi) = result.feature_count_range();
        t.row(vec![
            name.to_string(),
            n.to_string(),
            pct(result.mean_accuracy()),
            format!("{lo}-{hi}"),
        ]);
    }
    outln!("{}", t.render());
}

/// A5 — ablation: classifier choice (the paper's parsimony claim for ID3).
fn ablation_classifier() {
    heading(
        "A5: classifier ablation (smoking)",
        "§3.3: ID3 'is supposed to use less features than other decision tree algorithms'",
    );
    let corpus = paper_corpus();
    let mut t = Table::new(vec!["Classifier", "Mean accuracy", "Features/fold"]);
    for (name, acc, range) in run_ablation_classifier(&corpus) {
        t.row(vec![
            name.to_string(),
            pct(acc),
            range
                .map(|(lo, hi)| format!("{lo}-{hi}"))
                .unwrap_or_else(|| "all".to_string()),
        ]);
    }
    outln!("{}", t.render());
}

/// A6 — ablation: term pattern inventory.
fn ablation_patterns() {
    heading(
        "A6: POS pattern inventory ablation (full ontology)",
        "§3.2's four patterns top out at three words; 'chronic obstructive pulmonary \
         disease' is structurally unreachable",
    );
    let corpus = paper_corpus();
    let mut t = Table::new(vec![
        "Attribute",
        "Paper patterns P/R",
        "Extended patterns P/R",
    ]);
    let paper = run_table1_with(&corpus, OntologyProfile::Full, cmr_core::PatternSet::Paper);
    let ext = run_table1_with(
        &corpus,
        OntologyProfile::Full,
        cmr_core::PatternSet::Extended,
    );
    for i in 0..paper.rows.len() {
        let cell = |r: &Table1Report| {
            format!(
                "{}/{}",
                pct(r.rows[i].score.precision()),
                pct(r.rows[i].score.recall())
            )
        };
        t.row(vec![
            paper.rows[i].attribute.to_string(),
            cell(&paper),
            cell(&ext),
        ]);
    }
    outln!("{}", t.render());
}

/// A1 — ablation: association method × dictation style.
fn ablation_assoc() {
    heading(
        "A1: feature-number association method ablation",
        "motivates §3.1: patterns have 'generalization problems'; link grammar generalizes",
    );
    let styles = [0.0, 0.5, 1.0];
    let report = run_ablation_assoc(&styles, 2005);
    let mut t = Table::new(vec!["Method", "style=0.0", "style=0.5", "style=1.0"]);
    for name in ["link+fallback", "link-only", "pattern-only", "proximity"] {
        let cell = |s: f64| {
            report
                .cells
                .iter()
                .find(|(st, n, _)| *st == s && *n == name)
                .map(|(_, _, r)| pct(*r))
                .unwrap_or_default()
        };
        t.row(vec![name.to_string(), cell(0.0), cell(0.5), cell(1.0)]);
    }
    outln!(
        "numeric micro-recall by association method:\n{}",
        t.render()
    );
}

/// A2 — ablation: feature-extraction options for smoking.
fn ablation_features() {
    heading(
        "A2: feature-extraction option ablation (smoking)",
        "§3.3's four user options; the paper chose all-POS + all-constituents + lemma",
    );
    let corpus = paper_corpus();
    let mut t = Table::new(vec!["Options", "Mean accuracy", "Features/fold"]);
    for (name, options) in feature_option_variants() {
        let r = run_smoking(&corpus, options);
        let (lo, hi) = r.feature_count_range();
        t.row(vec![
            name.to_string(),
            pct(r.mean_accuracy()),
            format!("{lo}-{hi}"),
        ]);
    }
    outln!("{}", t.render());
}

/// A4 — ablation: ontology completeness vs Table 1 scores.
fn ablation_ontology() {
    heading(
        "A4: ontology completeness ablation",
        "§5: errors 'mainly caused by the incompleteness of domain ontology'",
    );
    let corpus = paper_corpus();
    let mut t = Table::new(vec!["Attribute", "Degraded P/R", "Paper P/R", "Full P/R"]);
    let reports: Vec<_> = [
        OntologyProfile::Degraded,
        OntologyProfile::Paper,
        OntologyProfile::Full,
    ]
    .iter()
    .map(|p| run_table1(&corpus, *p))
    .collect();
    for i in 0..reports[0].rows.len() {
        let cell = |r: &Table1Report| {
            format!(
                "{}/{}",
                pct(r.rows[i].score.precision()),
                pct(r.rows[i].score.recall())
            )
        };
        t.row(vec![
            reports[0].rows[i].attribute.to_string(),
            cell(&reports[0]),
            cell(&reports[1]),
            cell(&reports[2]),
        ]);
    }
    outln!("{}", t.render());
}

/// X3 — negation handling extension.
fn negation() {
    heading(
        "X3: negation filtering (extension the paper lacks)",
        "the paper's extractor reports terms the note rules out ('Negative for breast cancer')",
    );
    let corpus = paper_corpus();
    let (without, with) = run_negation(&corpus);
    let mut t = Table::new(vec![
        "Configuration",
        "Precision",
        "Recall",
        "False positives",
    ]);
    for (name, pr) in [
        ("paper (no negation handling)", &without),
        ("with NegEx-style filter", &with),
    ] {
        t.row(vec![
            name.to_string(),
            pct(pr.precision()),
            pct(pr.recall()),
            pr.false_positives.to_string(),
        ]);
    }
    outln!(
        "task: detect 'family history of breast cancer' from the Family History\n\
         section by term presence (gold = the corpus's binary flag):\n\n{}",
        t.render()
    );
}

/// K1 — information → knowledge: cohort mining over extracted records.
fn knowledge() {
    heading(
        "K1: cohort knowledge (the paper's title and §1 motivation)",
        "'the ability to then detect small variations, which may pinpoint important factors'",
    );
    let corpus = cmr_corpus::CorpusBuilder::new()
        .records(200)
        .seed(11)
        .build();
    outln!(
        "The corpus plants one real factor: current smokers carry COPD at ~8x the\n\
         base rate. COPD's preferred name is FOUR words — beyond the paper's\n\
         three-word patterns — so whether the knowledge layer can see the factor\n\
         depends on the extraction layer's pattern inventory (ablation A6):\n"
    );
    for (label, patterns) in [
        (
            "paper patterns (4-word terms invisible)",
            cmr_core::PatternSet::Paper,
        ),
        ("extended patterns", cmr_core::PatternSet::Extended),
    ] {
        let (rules, findings) = run_knowledge_with(&corpus, patterns);
        outln!("--- {label} ---");
        outln!("top association rules into/out of smoking=current:");
        let mut shown = 0;
        for rule in &rules {
            if rule.antecedent_value == "current" || rule.consequent_value == "current" {
                outln!("  {rule}");
                shown += 1;
                if shown >= 5 {
                    break;
                }
            }
        }
        if shown == 0 {
            outln!("  (none pass thresholds)");
        }
        let copd: Vec<&String> = findings
            .iter()
            .filter(|f| f.contains("pulmonary"))
            .collect();
        match copd.first() {
            Some(f) => outln!("planted factor FOUND: {f}"),
            None => outln!("planted factor NOT FOUND (COPD never extracted)"),
        }
        outln!();
    }
}

/// A3 — the style sweep behind the paper's degradation conjecture.
fn style_sweep() {
    heading(
        "A3: dictation-style sweep",
        "§5/§6 conjecture: 'if the writing style is full of variants, performance may be degraded'",
    );
    let styles = [0.0, 0.25, 0.5, 0.75, 1.0];
    let report = run_style_sweep(&styles, 2005);
    let mut t = Table::new(vec![
        "Style variation",
        "Numeric recall",
        "Smoking accuracy",
    ]);
    for (style, numeric, smoking) in &report.rows {
        t.row(vec![format!("{style:.2}"), pct(*numeric), pct(*smoking)]);
    }
    outln!("{}", t.render());
}
