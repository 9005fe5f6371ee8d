//! The minimal asynchronous-execution seam the network engine runs on.
//!
//! Everything concurrent in this crate — connection readers, per-thread
//! executors, worker-process harnesses — is spawned through an
//! [`AsyncRuntime`] instead of calling `std::thread` directly. The engine
//! needs exactly one capability (spawn a named task), so the trait is
//! deliberately tiny: the default [`ThreadRuntime`] backs every task
//! with one OS thread, and an engine embedded into a host with its own
//! scheduler substitutes one `impl AsyncRuntime` without touching engine
//! code.

/// Handle to a spawned task; joining waits for it to finish. Dropping the
/// handle detaches the task.
pub trait TaskHandle: Send {
    /// Block until the task finishes. Panics inside the task are swallowed
    /// (the task's work is observed through its effects, not its return).
    fn join(self: Box<Self>);
}

/// The execution substrate: spawn concurrent tasks.
pub trait AsyncRuntime: Send + Sync {
    /// Run `f` concurrently under a human-readable `name` (surfaces in
    /// thread listings and panic messages on thread-backed runtimes).
    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send>) -> Box<dyn TaskHandle>;
}

/// The default runtime: one OS thread per task.
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadRuntime;

struct ThreadTask(std::thread::JoinHandle<()>);

impl TaskHandle for ThreadTask {
    fn join(self: Box<Self>) {
        let _ = self.0.join();
    }
}

impl AsyncRuntime for ThreadRuntime {
    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send>) -> Box<dyn TaskHandle> {
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(f)
            .expect("spawn runtime task");
        Box::new(ThreadTask(handle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn thread_runtime_runs_tasks_to_completion() {
        let rt = ThreadRuntime;
        let hits = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let hits = hits.clone();
                rt.spawn(
                    &format!("task{i}"),
                    Box::new(move || {
                        hits.fetch_add(1, Ordering::SeqCst);
                    }),
                )
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }
}
