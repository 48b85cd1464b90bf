//! Shared by the integration suites and (via `#[path]`) the crate's unit
//! tests: nothing multi-threaded may gain a way to hang tier-1.

use std::time::{Duration, Instant};

const HANG: Duration = Duration::from_secs(30);

/// Run `f` on a helper thread and return how it ended; a run that outlives
/// [`HANG`] fails the test instead of hanging it.
pub fn within<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> std::thread::Result<R> {
    let helper = std::thread::spawn(f);
    let deadline = Instant::now() + HANG;
    while !helper.is_finished() {
        assert!(
            Instant::now() < deadline,
            "still running after {HANG:?}: the runtime hung"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    helper.join()
}
