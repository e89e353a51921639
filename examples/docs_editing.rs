//! Live editing in a simulated Google-Docs-like service with the
//! BrowserFlow plug-in installed: mutation observers feed the policy
//! lookup, the XHR hook enforces, and flagged paragraphs turn "red"
//! (the `data-bf-flagged` attribute, standing in for Figure 2's UI).
//!
//! ```sh
//! cargo run -p browserflow-examples --bin docs_editing
//! ```

use browserflow::plugin::Plugin;
use browserflow::{AsyncDecider, BrowserFlow, DeciderError, EnforcementMode, TrySubmitError};
use browserflow_browser::services::{static_site, DocsApp};
use browserflow_browser::Browser;
use browserflow_tdm::{Service, Tag, TagSet};

const WIKI: &str = "https://wiki.internal";
const DOCS: &str = "https://docs.example.com";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tw = Tag::new("wiki-data")?;
    let flow = BrowserFlow::builder()
        .mode(EnforcementMode::Block)
        .service(
            Service::new("wiki", "Internal Wiki")
                .with_privilege(TagSet::from_iter([tw.clone()]))
                .with_confidentiality(TagSet::from_iter([tw])),
        )
        .service(Service::new("gdocs", "Google Docs"))
        .build()?;

    let plugin = Plugin::new(flow);
    plugin.bind_origin(WIKI, "wiki", "candidate-page");
    plugin.bind_origin(DOCS, "gdocs", "draft");

    let mut browser = Browser::new();
    plugin.install(&mut browser);

    // A wiki page with sensitive content loads in tab 1; the plug-in
    // extracts its main text Readability-style and registers it.
    let secret = "The candidate evaluation rubric weighs systems depth at forty \
                  percent, communication at thirty percent, and coding fluency \
                  at thirty percent; never share numeric scores externally.";
    let page = static_site::article_page("Evaluation rubric", &[secret.to_string()]);
    let wiki_tab = browser.open_tab_with_html(WIKI, &page);
    let observed = plugin.observe_page(&browser, wiki_tab);
    println!("wiki page loaded, {observed} paragraph(s) registered");

    // The user edits a Google Docs draft in tab 2.
    let docs_tab = browser.open_tab(DOCS);
    let mut docs = DocsApp::attach(&mut browser, docs_tab);
    plugin.watch_docs(&mut browser, &docs);

    println!("\n-- typing harmless notes --");
    docs.create_paragraph(&mut browser);
    let result = docs.type_text(&mut browser, 0, "Agenda: hiring sync, Thursday 10:00.");
    println!("sync delivered: {}", result.is_delivered());

    println!("\n-- pasting the rubric from the wiki --");
    browser.copy(secret);
    docs.create_paragraph(&mut browser);
    let pasted = browser.paste().expect("clipboard holds the rubric");
    let result = docs.type_text(&mut browser, 1, &pasted);
    println!("sync delivered: {}", result.is_delivered());
    let node = docs.paragraph_node(&browser, 1);
    println!(
        "paragraph flagged red: {}",
        browser
            .tab(docs_tab)
            .document()
            .attr(node, "data-bf-flagged")
            == Some("true")
    );

    // Figure 2: render the editor as the user sees it — flagged
    // paragraphs get the red background.
    println!("\n-- the editor as rendered (Figure 2) --");
    print!("{}", render_editor(&browser, docs_tab, &docs));

    println!("\n-- what actually reached the Google Docs backend --");
    for upload in browser.backend(DOCS).uploads() {
        println!("  [{:?}] {}", upload.kind, truncate(&upload.body, 64));
    }
    assert!(!browser.backend(DOCS).saw_text("rubric"));

    let state = plugin.state();
    let state = state.read();
    println!("\nwarnings: {}", state.warnings().len());
    for warning in state.warnings() {
        println!(
            "  editing {} towards {} — {} violation(s)",
            warning.segment,
            warning.destination,
            warning.violations.len()
        );
    }
    drop(state);

    // §6.2: the per-keystroke path runs through the asynchronous pipeline.
    // A keystroke storm on one paragraph coalesces — only the newest
    // pending check runs; stale ones resolve as Superseded without
    // touching the engine.
    println!("\n-- async keystroke storm through the coalescing pipeline --");
    let tw = Tag::new("wiki-data")?;
    let flow = BrowserFlow::builder()
        .mode(EnforcementMode::Block)
        .service(
            Service::new("wiki", "Internal Wiki")
                .with_privilege(TagSet::from_iter([tw.clone()]))
                .with_confidentiality(TagSet::from_iter([tw])),
        )
        .service(Service::new("gdocs", "Google Docs"))
        .build()?;
    flow.observe_paragraph(&"wiki".into(), "candidate-page", 0, secret)?;
    let decider = AsyncDecider::spawn(flow);
    let mut pending = Vec::new();
    for end in (1..=secret.len()).filter(|&e| secret.is_char_boundary(e)) {
        // One check per keystroke, exactly like the editor integration.
        match decider.submit_keystroke("gdocs", "draft", 0, &secret[..end]) {
            Ok(receipt) => pending.push(receipt),
            // Backpressure: drop the check; a newer keystroke re-covers
            // the same paragraph slot.
            Err(TrySubmitError::QueueFull) => {}
            Err(TrySubmitError::Closed) => break,
        }
    }
    let (mut decided, mut superseded) = (0u32, 0u32);
    let mut last_action = None;
    for receipt in pending {
        match receipt.wait() {
            Ok(timed) => {
                decided += 1;
                last_action = Some(timed.decisions[0].action);
            }
            Err(DeciderError::Superseded) => superseded += 1,
            Err(e) => println!("pipeline error: {e}"),
        }
    }
    let stats = decider.stats();
    println!(
        "keystrokes accepted: {}, decided: {decided}, coalesced away: {superseded}",
        stats.submitted
    );
    println!("final decision for the fully-typed paragraph: {last_action:?}");
    println!(
        "pipeline stats: coalesced={} rejected={} mean_batch={:.2} queue_depth={}",
        stats.coalesced,
        stats.rejected,
        stats.mean_batch(),
        stats.queue_depth
    );
    decider.shutdown()?;
    Ok(())
}

/// Renders the docs editor as a terminal mock-up of Figure 2: flagged
/// paragraphs on a red background (ANSI), clean ones plain.
fn render_editor(browser: &Browser, tab: browserflow_browser::TabId, docs: &DocsApp) -> String {
    let document = browser.tab(tab).document();
    let mut out = String::new();
    out.push_str("  ┌──────────────────────────────────────────────────┐\n");
    for index in 0..docs.paragraph_count(browser) {
        let node = docs.paragraph_node(browser, index);
        let flagged = document.attr(node, "data-bf-flagged") == Some("true");
        let text = truncate(&document.text_content(node), 44);
        if flagged {
            out.push_str(&format!(
                "  │ \x1b[41;97m{text:<48}\x1b[0m │  ⚠ discloses tracked text\n"
            ));
        } else {
            out.push_str(&format!("  │ {text:<48} │\n"));
        }
    }
    out.push_str("  └──────────────────────────────────────────────────┘\n");
    out
}

fn truncate(text: &str, max: usize) -> String {
    if text.chars().count() <= max {
        text.to_string()
    } else {
        let cut: String = text.chars().take(max).collect();
        format!("{cut}…")
    }
}
