//! Guarded execution of one simulation run: a panic or an overrun is a
//! counted failure, never an abort or a hang of the benchmark.
//!
//! A run executes on its own thread under `catch_unwind`, and the caller
//! waits for it with a deadline. A run that misses the deadline is
//! abandoned: its thread is left detached (a shard spinning at a barrier
//! whose partner died cannot be stopped from outside), the run counts as
//! failed, and the caller must stop measuring and report. The process exit
//! that follows reclaims the abandoned thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// How one guarded run ended.
#[derive(Debug)]
pub enum Outcome<T> {
    /// The run returned a value.
    Done(T),
    /// The run panicked; the payload's message.
    Panicked(String),
    /// The run missed its deadline and was abandoned.
    TimedOut,
}

impl<T> Outcome<T> {
    /// The value, or a one-line reason the run failed.
    pub fn into_result(self) -> Result<T, String> {
        match self {
            Outcome::Done(value) => Ok(value),
            Outcome::Panicked(message) => Err(format!("panicked: {message}")),
            Outcome::TimedOut => Err("missed its watchdog deadline".to_string()),
        }
    }
}

/// Runs `job` on a fresh thread, catching panics, and waits at most
/// `deadline` for it.
pub fn run_guarded<T, F>(deadline: Duration, job: F) -> Outcome<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name("perfbench-run".to_string())
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(job));
            // The receiver is gone only when the run was already abandoned.
            let _ = tx.send(result);
        });
    let handle = match spawned {
        Ok(handle) => handle,
        Err(e) => return Outcome::Panicked(format!("could not spawn the run thread: {e}")),
    };
    match rx.recv_timeout(deadline) {
        Ok(result) => {
            // The thread has sent its last message; joining cannot block
            // for long, and a panic was already caught above.
            let _ = handle.join();
            match result {
                Ok(value) => Outcome::Done(value),
                Err(payload) => Outcome::Panicked(panic_message(payload.as_ref())),
            }
        }
        Err(_) => Outcome::TimedOut,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_panics_and_overruns_are_told_apart() {
        let long = Duration::from_secs(30);
        assert!(matches!(run_guarded(long, || 7), Outcome::Done(7)));
        match run_guarded(long, || -> u32 { panic!("boom") }) {
            Outcome::Panicked(message) => assert!(message.contains("boom")),
            other => panic!("expected a panic, got {other:?}"),
        }
        let (_keep, never) = mpsc::channel::<()>();
        let outcome = run_guarded(Duration::from_millis(50), move || never.recv());
        assert!(matches!(outcome, Outcome::TimedOut));
    }
}
