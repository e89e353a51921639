//! Criterion benches for the end-to-end middleware path, the
//! decision-cache ablation, and the exact-match DLP baseline comparison.

use browserflow::baseline::ExactMatchDlp;
use browserflow::{BrowserFlow, CheckRequest, EngineConfig};
use browserflow_corpus::TextGen;
use browserflow_tdm::{Service, ServiceId, Tag, TagSet};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn flow_with_corpus(paragraphs: usize, cache: bool) -> (BrowserFlow, Vec<String>) {
    let lib = Tag::new("library").expect("valid tag");
    let flow = BrowserFlow::builder()
        .engine(EngineConfig {
            cache_decisions: cache,
            ..EngineConfig::default()
        })
        .service(
            Service::new("library", "Library")
                .with_privilege(TagSet::from_iter([lib.clone()]))
                .with_confidentiality(TagSet::from_iter([lib])),
        )
        .service(Service::new("gdocs", "Google Docs"))
        .build()
        .expect("policy builds");
    let mut gen = TextGen::new(21);
    let texts: Vec<String> = (0..paragraphs).map(|_| gen.paragraph(7)).collect();
    let slots: Vec<(usize, &str)> = texts.iter().map(String::as_str).enumerate().collect();
    flow.observe_paragraphs(&"library".into(), "corpus", &slots)
        .expect("library registered");
    (flow, texts)
}

fn bench_check_upload(c: &mut Criterion) {
    let mut group = c.benchmark_group("check-upload");
    let gdocs: ServiceId = "gdocs".into();
    for &cache in &[false, true] {
        let (flow, texts) = flow_with_corpus(2_000, cache);
        let secret = texts[1_000].clone();
        let label = if cache { "cached" } else { "uncached" };
        group.bench_function(BenchmarkId::from_parameter(format!("hit-{label}")), |b| {
            b.iter(|| {
                flow.check_one(&CheckRequest::paragraph(
                    &gdocs,
                    "draft",
                    0,
                    std::hint::black_box(secret.as_str()),
                ))
                .expect("gdocs registered")
            })
        });
        let mut gen = TextGen::new(5555);
        let novel = gen.paragraph(7);
        group.bench_function(BenchmarkId::from_parameter(format!("miss-{label}")), |b| {
            b.iter(|| {
                flow.check_one(&CheckRequest::paragraph(
                    &gdocs,
                    "draft2",
                    0,
                    std::hint::black_box(novel.as_str()),
                ))
                .expect("gdocs registered")
            })
        });
    }
    group.finish();
}

fn bench_against_exact_match_baseline(c: &mut Criterion) {
    let mut gen = TextGen::new(31);
    let texts: Vec<String> = (0..2_000).map(|_| gen.paragraph(7)).collect();
    let mut dlp = ExactMatchDlp::new();
    for text in &texts {
        dlp.register(text);
    }
    let probe = texts[1_000].clone();
    c.bench_function("baseline-exact-match-lookup", |b| {
        b.iter(|| dlp.is_registered(std::hint::black_box(&probe)))
    });
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(400))
}

criterion_group!(
    name = benches;
    config = quick();
    targets = bench_check_upload, bench_against_exact_match_baseline
);
criterion_main!(benches);
