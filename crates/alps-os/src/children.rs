//! Helpers for spawning compute-bound child processes — the synthetic
//! workload of the paper's evaluation, as real processes.

use std::process::{Child, Command, Stdio};

use crate::error::Result;

/// A pool of spinner (busy-loop) child processes, killed on drop.
#[derive(Debug)]
pub struct SpinnerPool {
    children: Vec<Child>,
}

impl SpinnerPool {
    /// Spawn `n` compute-bound children (`sh` busy loops).
    pub fn spawn(n: usize) -> Result<Self> {
        SpinnerPool::spawn_each(
            n,
            Command::new("/bin/sh").args(["-c", "while :; do :; done"]),
        )
    }

    /// Spawn `n` idle children (`sleep` for a minute): members to put a
    /// supervisor through its paces with while the box stays idle.
    pub fn spawn_sleepers(n: usize) -> Result<Self> {
        SpinnerPool::spawn_each(n, Command::new("sleep").arg("60"))
    }

    fn spawn_each(n: usize, command: &mut Command) -> Result<Self> {
        command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let mut pool = SpinnerPool {
            children: Vec::with_capacity(n),
        };
        for _ in 0..n {
            // Pushed one by one: if a spawn fails, drop reaps the rest.
            pool.children.push(command.spawn()?);
        }
        Ok(pool)
    }

    /// Pids of the children.
    pub fn pids(&self) -> Vec<i32> {
        self.children.iter().map(|c| c.id() as i32).collect()
    }

    /// Number of children.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

impl SpinnerPool {
    /// Spawn one additional child that alternates CPU bursts with sleeps
    /// (the paper's §3.3 I/O workload as a real process): it busy-loops
    /// `loop_iters` shell iterations, sleeps `sleep_secs`, and repeats.
    /// Returns the new child's pid.
    pub fn spawn_burst_sleeper(&mut self, loop_iters: u64, sleep_secs: f64) -> Result<i32> {
        let script = format!(
            "while :; do i=0; while [ $i -lt {loop_iters} ]; do i=$((i+1)); done; sleep {sleep_secs}; done"
        );
        let child = Command::new("/bin/sh")
            .arg("-c")
            .arg(script)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let pid = child.id() as i32;
        self.children.push(child);
        Ok(pid)
    }
}

impl Drop for SpinnerPool {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{proc, signal};

    #[test]
    fn spinners_consume_cpu_and_die_on_drop() {
        let pids;
        {
            let pool = SpinnerPool::spawn(2).unwrap();
            pids = pool.pids();
            assert_eq!(pool.len(), 2);
            std::thread::sleep(std::time::Duration::from_millis(300));
            let tick = proc::ns_per_tick();
            let total: u64 = pids
                .iter()
                .map(|&p| proc::read_stat(p, tick).map(|s| s.cpu_time.0).unwrap_or(0))
                .sum();
            assert!(total > 0, "spinners burned CPU");
            // A stopped child dies from SIGKILL as a running one does.
            signal::sigstop(pids[0]).unwrap();
        }
        // After drop, the pids are gone (reaped by wait()).
        for pid in pids {
            assert!(!signal::alive(pid), "pid {pid} still alive after drop");
        }
    }
}
