//! Property-based tests of the disclosure engine and middleware.

use browserflow::{
    BrowserFlow, CheckRequest, DisclosureEngine, DocKey, EnforcementMode, EngineConfig,
};
use browserflow_fingerprint::FingerprintConfig;
use browserflow_tdm::{Service, Tag, TagSet};
use proptest::prelude::*;

fn config(cache: bool) -> EngineConfig {
    EngineConfig {
        fingerprint: FingerprintConfig::builder()
            .ngram_len(6)
            .window(4)
            .build()
            .unwrap(),
        cache_decisions: cache,
        ..EngineConfig::default()
    }
}

fn prose() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z]{2,9}", 5..40).prop_map(|ws| ws.join(" "))
}

proptest! {
    /// The engine never reports the segment being checked as its own
    /// source, no matter what is stored.
    #[test]
    fn never_reports_self(texts in proptest::collection::vec(prose(), 1..6)) {
        let engine = DisclosureEngine::new(config(true));
        let doc = DocKey::new("svc", "doc");
        engine.observe_paragraphs(&doc, texts.iter().map(String::as_str).enumerate(), None);
        for (i, text) in texts.iter().enumerate() {
            let own_key = browserflow::SegmentKey::paragraph(doc.clone(), i);
            for found in engine.check_paragraph(&doc, i, text) {
                prop_assert_ne!(&found.source, &own_key);
            }
        }
    }

    /// Cached and uncached engines produce identical results over any
    /// observe/check interleaving.
    #[test]
    fn cache_is_transparent(
        stored in proptest::collection::vec(prose(), 0..5),
        probes in proptest::collection::vec(prose(), 1..5),
    ) {
        let cached = DisclosureEngine::new(config(true));
        let uncached = DisclosureEngine::new(config(false));
        let source = DocKey::new("src", "doc");
        for engine in [&cached, &uncached] {
            engine.observe_paragraphs(&source, stored.iter().map(String::as_str).enumerate(), None);
        }
        let target = DocKey::new("dst", "doc");
        for (i, probe) in probes.iter().enumerate() {
            // Check twice so the second cached call exercises a hit.
            let a1 = cached.check_paragraph(&target, i, probe);
            let a2 = cached.check_paragraph(&target, i, probe);
            let b = uncached.check_paragraph(&target, i, probe);
            prop_assert_eq!(&a1, &b);
            prop_assert_eq!(&a1, &a2);
        }
    }

    /// Reported disclosure of a stored source never *increases* when the
    /// probe text shrinks (monotonicity under prefix truncation).
    #[test]
    fn disclosure_monotone_under_truncation(text in prose()) {
        let engine = DisclosureEngine::new(config(false));
        let source = DocKey::new("src", "doc");
        engine.observe_paragraphs(&source, [(0, text.as_str())], Some(0.0));
        let target = DocKey::new("dst", "doc");
        let full = engine.check_paragraph(&target, 0, &text);
        let half: String = text.chars().take(text.chars().count() / 2).collect();
        let partial = engine.check_paragraph(&target, 1, &half);
        let full_d = full.first().map(|m| m.disclosure).unwrap_or(0.0);
        let partial_d = partial.first().map(|m| m.disclosure).unwrap_or(0.0);
        prop_assert!(partial_d <= full_d + 1e-12);
    }

    /// Middleware upload decisions are deterministic functions of the
    /// observation history.
    #[test]
    fn middleware_decisions_are_deterministic(
        stored in prose(),
        probe in prose(),
    ) {
        let build = || {
            let ts = Tag::new("s").unwrap();
            let flow = BrowserFlow::builder()
                .mode(EnforcementMode::Block)
                .engine(config(true))
                .service(
                    Service::new("internal", "Internal")
                        .with_privilege(TagSet::from_iter([ts.clone()]))
                        .with_confidentiality(TagSet::from_iter([ts.clone()])),
                )
                .service(Service::new("external", "External"))
                .build()
                .unwrap();
            flow.observe_paragraph(&"internal".into(), "doc", 0, &stored)
                .unwrap();
            flow.check_one(&CheckRequest::paragraph("external", "out", 0, &probe))
                .unwrap()
        };
        prop_assert_eq!(build(), build());
    }

    /// Exporting and importing middleware state preserves every upload
    /// decision.
    #[test]
    fn persistence_preserves_decisions(stored in prose(), probe in prose()) {
        use browserflow_store::StoreKey;
        let ts = Tag::new("s").unwrap();
        let flow = BrowserFlow::builder()
            .mode(EnforcementMode::Block)
            .store_key(StoreKey::from_bytes([9u8; 32]))
            .engine(config(true))
            .service(
                Service::new("internal", "Internal")
                    .with_privilege(TagSet::from_iter([ts.clone()]))
                    .with_confidentiality(TagSet::from_iter([ts.clone()])),
            )
            .service(Service::new("external", "External"))
            .build()
            .unwrap();
        flow.observe_paragraph(&"internal".into(), "doc", 0, &stored).unwrap();
        let before = flow.check_one(&CheckRequest::paragraph("external", "out", 0, &probe)).unwrap();
        let sealed = flow.export_sealed();
        let restored = BrowserFlow::import_sealed(
            StoreKey::from_bytes([9u8; 32]),
            &sealed,
        ).unwrap();
        let after = restored.check_one(&CheckRequest::paragraph("external", "out2", 0, &probe)).unwrap();
        prop_assert_eq!(before.action, after.action);
        prop_assert_eq!(before.violations.len(), after.violations.len());
    }
}
