//! One monotonic time base for every timestamp the benchmark takes.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the process's first call.
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Sleeps until `deadline_ns`, spinning over the last stretch so the
/// wake-up lands close to the deadline instead of one timer slack late.
pub fn wait_until(deadline_ns: u64) {
    const SPIN_NS: u64 = 60_000;
    let now = now_ns();
    if deadline_ns > now + SPIN_NS {
        std::thread::sleep(Duration::from_nanos(deadline_ns - now - SPIN_NS));
    }
    while now_ns() < deadline_ns {
        std::hint::spin_loop();
    }
}
