//! Fuzz target: the `bfd` request decode surface on arbitrary bytes.
//!
//! Any local process can connect to the daemon's socket, so the frame
//! reader and the JSON request decoder must fail closed — `Ok(None)` on a
//! clean end of stream, a `FrameError` otherwise — and must never panic,
//! whatever the bytes.
//!
//! The input is one connection's byte stream: requests are read in a loop
//! until `Ok(None)` or the first error, as the server's connection loop
//! does. Every request that decodes must re-encode through
//! [`write_request`], and the re-encoded frame must decode back to the
//! same request.

use browserflow_daemon::protocol::{read_request, write_request};
use libfuzzer_sys::fuzz_target;

fuzz_target!(|data: &[u8]| {
    let mut stream = data;
    while let Ok(Some(request)) = read_request(&mut stream) {
        let mut frame = Vec::new();
        write_request(&mut frame, &request).expect("a decoded request re-encodes");
        let again = read_request(&mut frame.as_slice())
            .expect("a re-encoded request decodes")
            .expect("a re-encoded request is one whole frame");
        assert_eq!(again, request);
    }
});
