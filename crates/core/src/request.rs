//! The unified disclosure-check request surface.
//!
//! Historically the middleware exposed three divergent enforcement
//! signatures — `check_upload(service, document, index, text)`,
//! `check_upload_batch(service, document, paragraphs, workers)` and the
//! engine-level `check_paragraphs` — which forced the asynchronous path to
//! serialise one channel round-trip per paragraph. [`CheckRequest`] is the
//! one typed entry point both sync ([`BrowserFlow::check`]) and async
//! ([`AsyncDecider::check_request`]) callers share: a destination service,
//! a document, and any number of [`ParagraphRef`] slots checked as a
//! single batch.
//!
//! Requests borrow their text ([`std::borrow::Cow`]) so the synchronous
//! hot path never copies the upload body; [`CheckRequest::into_owned`]
//! detaches a request from its borrows when it must cross a thread
//! boundary (the [`AsyncDecider`] pipeline).
//!
//! [`BrowserFlow::check`]: crate::BrowserFlow::check
//! [`AsyncDecider`]: crate::AsyncDecider
//! [`AsyncDecider::check_request`]: crate::AsyncDecider::check_request

use browserflow_tdm::ServiceId;
use std::borrow::Cow;

/// One paragraph slot of a pending upload: the slot's index within the
/// document plus the text about to be uploaded into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParagraphRef<'a> {
    /// The paragraph's index within the document.
    pub index: usize,
    /// The text about to be uploaded into that slot.
    pub text: Cow<'a, str>,
}

impl<'a> ParagraphRef<'a> {
    /// Creates a paragraph reference.
    pub fn new(index: usize, text: impl Into<Cow<'a, str>>) -> Self {
        Self {
            index,
            text: text.into(),
        }
    }

    /// Detaches the reference from its borrows.
    pub fn into_owned(self) -> ParagraphRef<'static> {
        ParagraphRef {
            index: self.index,
            text: Cow::Owned(self.text.into_owned()),
        }
    }
}

/// A typed disclosure-check request: which service the text is bound for,
/// which document it belongs to, and the paragraph slots to check.
///
/// A single-paragraph keystroke check and a document-wide recheck are the
/// same request shape — the latter simply carries more paragraphs and is
/// served as one batch (one worker round-trip through the
/// [`AsyncDecider`](crate::AsyncDecider), one engine call).
///
/// # Example
///
/// ```rust
/// use browserflow::{BrowserFlow, CheckRequest, UploadAction};
/// use browserflow_tdm::Service;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let flow = BrowserFlow::builder()
///     .service(Service::new("gdocs", "Google Docs"))
///     .build()?;
/// // One keystroke check:
/// let decision = flow.check_one(&CheckRequest::paragraph("gdocs", "draft", 0, "hello"))?;
/// assert_eq!(decision.action, UploadAction::Allow);
/// // A document-wide recheck, decided as one batch:
/// let decisions = flow.check(&CheckRequest::batch(
///     "gdocs",
///     "draft",
///     ["first paragraph", "second paragraph"],
/// ))?;
/// assert_eq!(decisions.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckRequest<'a> {
    service: ServiceId,
    document: Cow<'a, str>,
    paragraphs: Vec<ParagraphRef<'a>>,
}

impl<'a> CheckRequest<'a> {
    /// Creates an empty request for `document` in `service`; add slots
    /// with [`CheckRequest::with_paragraph`].
    pub fn new(service: impl Into<ServiceId>, document: impl Into<Cow<'a, str>>) -> Self {
        Self {
            service: service.into(),
            document: document.into(),
            paragraphs: Vec::new(),
        }
    }

    /// A single-paragraph request (the per-keystroke shape).
    pub fn paragraph(
        service: impl Into<ServiceId>,
        document: impl Into<Cow<'a, str>>,
        index: usize,
        text: impl Into<Cow<'a, str>>,
    ) -> Self {
        Self::new(service, document).with_paragraph(index, text)
    }

    /// A whole-document batch request: `texts` become paragraphs
    /// `0..texts.len()` (the document-wide recheck shape).
    pub fn batch<T: Into<Cow<'a, str>>>(
        service: impl Into<ServiceId>,
        document: impl Into<Cow<'a, str>>,
        texts: impl IntoIterator<Item = T>,
    ) -> Self {
        let mut request = Self::new(service, document);
        for (index, text) in texts.into_iter().enumerate() {
            request.paragraphs.push(ParagraphRef::new(index, text));
        }
        request
    }

    /// Adds a paragraph slot (builder style).
    pub fn with_paragraph(mut self, index: usize, text: impl Into<Cow<'a, str>>) -> Self {
        self.paragraphs.push(ParagraphRef::new(index, text));
        self
    }

    /// The destination service.
    pub fn service(&self) -> &ServiceId {
        &self.service
    }

    /// The document the paragraphs belong to.
    pub fn document(&self) -> &str {
        &self.document
    }

    /// The paragraph slots to check, in decision order.
    pub fn paragraphs(&self) -> &[ParagraphRef<'a>] {
        &self.paragraphs
    }

    /// Number of paragraph slots.
    pub fn len(&self) -> usize {
        self.paragraphs.len()
    }

    /// Whether the request has no paragraph slots.
    pub fn is_empty(&self) -> bool {
        self.paragraphs.is_empty()
    }

    /// Detaches the request from its borrows so it can cross a thread
    /// boundary (the asynchronous pipeline path).
    pub fn into_owned(self) -> CheckRequest<'static> {
        CheckRequest {
            service: self.service,
            document: Cow::Owned(self.document.into_owned()),
            paragraphs: self
                .paragraphs
                .into_iter()
                .map(ParagraphRef::into_owned)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paragraph_and_batch_constructors() {
        let single = CheckRequest::paragraph("gdocs", "draft", 3, "text");
        assert_eq!(single.service().as_str(), "gdocs");
        assert_eq!(single.document(), "draft");
        assert_eq!(single.len(), 1);
        assert_eq!(single.paragraphs()[0].index, 3);

        let batch = CheckRequest::batch("gdocs", "draft", ["a", "b", "c"]);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(
            batch
                .paragraphs()
                .iter()
                .map(|p| p.index)
                .collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn into_owned_preserves_contents() {
        let text = String::from("borrowed body");
        let request = CheckRequest::paragraph("svc", "doc", 7, text.as_str());
        let owned: CheckRequest<'static> = request.clone().into_owned();
        assert_eq!(owned.document(), request.document());
        assert_eq!(owned.paragraphs()[0].text, request.paragraphs()[0].text);
        assert_eq!(owned.paragraphs()[0].index, 7);
    }
}
