//! The supervised population of the `os-*` workloads: real child processes
//! that sleep, so the box stays idle and what is measured is the
//! supervisor, not the kernel scheduler sharing a core with busy loops.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use alps_os::{proc, signal};

/// How long a child sleeps if nobody kills it: longer than any run, short
/// enough that a benchmark killed from outside leaves nothing for long.
const CHILD_LIFETIME_S: &str = "900";

/// Sleeping children, continued and killed on drop.
#[derive(Debug)]
pub struct SleeperPool {
    children: Vec<Child>,
}

impl SleeperPool {
    /// Spawn `n` children and wait until each has reached its sleep.
    pub fn spawn(n: usize) -> std::io::Result<SleeperPool> {
        let mut pool = SleeperPool {
            children: Vec::with_capacity(n),
        };
        for _ in 0..n {
            // Pushed one by one: if a spawn fails, drop reaps the rest.
            pool.children.push(
                Command::new("sleep")
                    .arg(CHILD_LIFETIME_S)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()?,
            );
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        for pid in pool.pids() {
            while state_of(pid) != Some('S') {
                if Instant::now() > deadline {
                    return Err(std::io::Error::other(format!(
                        "child {pid} did not reach its sleep"
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(pool)
    }

    pub fn pids(&self) -> Vec<i32> {
        self.children.iter().map(|c| c.id() as i32).collect()
    }

    /// Children that, once released from supervision, are dead or still
    /// stopped. Gives a just-continued child a moment to leave state `T`.
    pub fn not_running(&self) -> usize {
        let deadline = Instant::now() + Duration::from_secs(2);
        self.pids()
            .into_iter()
            .filter(|&pid| loop {
                match state_of(pid) {
                    Some('T') if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2))
                    }
                    Some('R' | 'S' | 'D') => break false,
                    _ => break true,
                }
            })
            .count()
    }
}

fn state_of(pid: i32) -> Option<char> {
    proc::read_stat(pid, proc::ns_per_tick())
        .ok()
        .map(|s| s.state)
}

impl Drop for SleeperPool {
    fn drop(&mut self) {
        for child in &mut self.children {
            // A stopped process cannot die from SIGKILL until continued.
            let _ = signal::sigcont(child.id() as i32);
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_sleep_and_die_with_the_pool_even_when_stopped() {
        let pool = SleeperPool::spawn(3).unwrap();
        let pids = pool.pids();
        assert_eq!(pool.not_running(), 0);
        signal::sigstop(pids[1]).unwrap();
        while state_of(pids[1]) != Some('T') {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Caught unwinding, the guard still runs.
        let caught = std::panic::catch_unwind(move || {
            let _guard = pool;
            panic!("benchmark died");
        });
        assert!(caught.is_err());
        for pid in pids {
            assert!(!signal::alive(pid), "child {pid} outlived the pool");
        }
    }
}
