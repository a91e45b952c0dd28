//! Link grammar parser latency: the substrate cost that dominated the
//! original system (an O(n³) parse per sentence).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_parser(c: &mut Criterion) {
    let parser = cmr_linkgram::LinkParser::new();
    let mut g = c.benchmark_group("link_parser");
    g.sample_size(20);

    let short = "She smokes.";
    let medium = "Blood pressure is 144/90, pulse of 84.";
    let long =
        "Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds.";
    let fragment = "Blood pressure: 144/90.";
    // The noisy benchmark pool's slowest sentence: a dropped period merges
    // two sentences into 33 words (with the wall).
    let noisy = "Her breast history is negative for any previous biopsies or masses \
                 GYN History  Menarche at age 1l, gravida 3, para 3, last menstrual \
                 period about a year ago.";
    // Every word keeps disjuncts under plain pruning, but no linkage exists:
    // power pruning (or, before it, the whole search) proves the failure.
    let no_linkage = "Os-cal, ibuprofen, and Protonix.";

    // Cold = the O(n³) region parse; warm = the structure-cache hit that
    // corpus workloads see after the first occurrence of a sentence shape.
    g.bench_function("short_3_words_cold", |b| {
        b.iter(|| {
            parser.clear_cache();
            black_box(parser.parse_sentence(black_box(short)))
        })
    });
    g.bench_function("long_18_words_cold", |b| {
        b.iter(|| {
            parser.clear_cache();
            black_box(parser.parse_sentence(black_box(long)))
        })
    });
    g.bench_function("noisy_33_words_cold", |b| {
        b.iter(|| {
            parser.clear_cache();
            black_box(parser.parse_sentence(black_box(noisy)))
        })
    });
    g.bench_function("no_linkage_cold", |b| {
        b.iter(|| {
            parser.clear_cache();
            black_box(parser.parse_sentence(black_box(no_linkage)))
        })
    });
    g.bench_function("medium_8_words_warm", |b| {
        b.iter(|| black_box(parser.parse_sentence(black_box(medium))))
    });
    g.bench_function("long_18_words_warm", |b| {
        b.iter(|| black_box(parser.parse_sentence(black_box(long))))
    });
    g.bench_function("fragment_fails_fast_cold", |b| {
        b.iter(|| {
            parser.clear_cache();
            black_box(parser.parse_sentence(black_box(fragment)))
        })
    });
    g.bench_function("dictionary_build", |b| {
        b.iter_batched(
            || (),
            |()| black_box(cmr_linkgram::Dictionary::clinical_english()),
            BatchSize::SmallInput,
        )
    });
    g.finish();

    let mut g = c.benchmark_group("linkage_graph");
    let linkage = parser.parse_sentence(long).expect("parses");
    let weights = cmr_linkgram::LinkWeights::default();
    g.bench_function("dijkstra_distances", |b| {
        b.iter(|| black_box(linkage.distances_from(black_box(2), &weights)))
    });
    g.bench_function("diagram_render", |b| {
        b.iter(|| black_box(linkage.diagram()))
    });
    g.finish();
}

criterion_group!(benches, bench_parser);
criterion_main!(benches);
