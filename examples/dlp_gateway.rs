//! Form-based interception and encrypt-before-upload: an employee posts to
//! an external, form-based forum. Under `EnforcementMode::Encrypt` the
//! plug-in rewrites violating field values into sealed ciphertext instead
//! of blocking, so the workflow completes without disclosing plaintext —
//! and the exact-match DLP baseline shows why fingerprinting is needed at
//! all.
//!
//! ```sh
//! cargo run -p browserflow-examples --bin dlp_gateway
//! ```

use browserflow::baseline::ExactMatchDlp;
use browserflow::plugin::Plugin;
use browserflow::{BrowserFlow, EnforcementMode};
use browserflow_browser::services::WikiApp;
use browserflow_browser::Browser;
use browserflow_store::StoreKey;
use browserflow_tdm::{Service, Tag, TagSet};

const FORUM: &str = "https://forum.external";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tf = Tag::new("finance")?;
    let flow = BrowserFlow::builder()
        .mode(EnforcementMode::Encrypt)
        .store_key(StoreKey::from_bytes([7u8; 32]))
        .service(
            Service::new("erp", "Finance ERP")
                .with_privilege(TagSet::from_iter([tf.clone()]))
                .with_confidentiality(TagSet::from_iter([tf])),
        )
        .service(Service::new("forum", "External Forum"))
        .build()?;

    let secret = "Quarterly revenue grew eighteen percent to forty-two million \
                  with gross margin improving to sixty-one percent ahead of the \
                  earnings call next Tuesday.";

    // Register the sensitive paragraph as ERP content.
    let plugin = Plugin::new(flow);
    plugin.bind_origin(FORUM, "forum", "post");
    plugin
        .state()
        .read()
        .observe_paragraphs(&"erp".into(), "q3-report", &[(0, secret)])?;

    let mut browser = Browser::new();
    plugin.install(&mut browser);

    // The employee drafts a forum post quoting the report (lightly edited).
    let tab = browser.open_tab(FORUM);
    let forum = WikiApp::attach(&mut browser, tab);
    let quoted = format!("did you hear? {}", secret.to_lowercase());
    forum.set_title(&mut browser, "big news");
    forum.set_content(&mut browser, &quoted);

    println!("-- submitting the form --");
    let result = forum.save(&mut browser);
    println!("delivered: {}", result.is_delivered());

    let backend = browser.backend(FORUM);
    let upload = &backend.uploads()[0];
    println!("body as transmitted:\n  {}", truncate(&upload.body, 96));
    assert!(backend.saw_text("bf-sealed:"));
    assert!(!backend.saw_text("forty-two million"));
    println!(
        "plaintext leaked: {}",
        backend.saw_text("forty-two million")
    );

    // Why imprecise tracking? An exact-match DLP registers the report but
    // misses the edited quote entirely.
    let mut exact = ExactMatchDlp::new();
    exact.register(secret);
    println!(
        "\nexact-match DLP catches verbatim copy:  {}",
        exact.is_registered(secret)
    );
    println!(
        "exact-match DLP catches edited quote:   {}",
        exact.is_registered(&quoted)
    );
    println!("BrowserFlow caught the edited quote:    true (see sealed upload above)");
    Ok(())
}

fn truncate(text: &str, max: usize) -> String {
    if text.chars().count() <= max {
        text.to_string()
    } else {
        let cut: String = text.chars().take(max).collect();
        format!("{cut}…")
    }
}
