//! `SynthSubstrate`: a world for `alps_core::Engine` with no syscalls in it.
//!
//! Members are either *sleepers*, which always read as blocked with no CPU
//! consumed, or *compute-bound*, which share the machine's CPU time equally
//! among those of them that are currently continued. The split is kept as
//! one running total of service per continued member (virtual time), so
//! `read` and `deliver` are O(1) and nothing allocates after construction;
//! what is left over when the split does not divide is carried to the next
//! tick, so simulated time is conserved to the nanosecond.

use std::convert::Infallible;

use alps_core::{Nanos, Observation, Signal, Substrate};

/// What a member does with CPU time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Sits on a wait channel; never consumes.
    Sleeper,
    /// Consumes whatever it is given while continued.
    Compute,
}

#[derive(Debug, Clone, Copy)]
struct Member {
    kind: Kind,
    continued: bool,
    /// CPU time accrued up to the last stop.
    banked: u64,
    /// `service` when last continued.
    since: u64,
}

#[derive(Debug, Clone)]
pub struct SynthSubstrate {
    quantum: u64,
    cpus: u64,
    now: u64,
    /// Service received so far by a compute-bound member continued since
    /// time zero, in ns.
    service: u64,
    /// CPU time not yet handed out because it did not divide.
    carry: u64,
    /// Continued compute-bound members.
    running: u64,
    idle: u64,
    /// CPU time of members that have left.
    retired: u64,
    members: Vec<Option<Member>>,
}

impl SynthSubstrate {
    /// An empty world of `cpus` CPUs with room for member ids below
    /// `capacity`.
    pub fn new(quantum: Nanos, cpus: u64, capacity: usize) -> SynthSubstrate {
        assert!(cpus > 0);
        SynthSubstrate {
            quantum: quantum.as_nanos(),
            cpus,
            now: 0,
            service: 0,
            carry: 0,
            running: 0,
            idle: 0,
            retired: 0,
            members: vec![None; capacity],
        }
    }

    /// Add a member, stopped (the engine enrols members suspended, §2.2).
    pub fn add(&mut self, id: u32, kind: Kind) {
        let slot = &mut self.members[id as usize];
        assert!(slot.is_none(), "member {id} added twice");
        *slot = Some(Member {
            kind,
            continued: false,
            banked: 0,
            since: 0,
        });
    }

    /// Remove a member, keeping its CPU time on the books.
    pub fn remove(&mut self, id: u32) {
        let _ = self.deliver(id, Signal::Stop);
        let m = self.members[id as usize]
            .take()
            .unwrap_or_else(|| panic!("member {id} removed twice"));
        self.retired += m.banked;
    }

    /// Advance the world by one quantum.
    pub fn tick(&mut self) {
        let dt = self.quantum;
        self.now += dt;
        if self.running <= self.cpus {
            // A CPU each; the rest of the machine idles.
            if self.running > 0 {
                self.service += dt;
            }
            self.idle += (self.cpus - self.running) * dt;
        } else {
            let pool = self.cpus * dt + self.carry;
            self.service += pool / self.running;
            self.carry = pool % self.running;
        }
    }

    fn cpu_of(&self, m: &Member) -> u64 {
        m.banked
            + if m.continued && m.kind == Kind::Compute {
                self.service - m.since
            } else {
                0
            }
    }

    /// CPU time of a member still present.
    #[cfg(test)]
    pub fn cpu(&self, id: u32) -> Option<Nanos> {
        self.members[id as usize]
            .as_ref()
            .map(|m| Nanos(self.cpu_of(m)))
    }

    /// Members still present and stopped.
    #[cfg(test)]
    pub fn stopped(&self) -> usize {
        self.members
            .iter()
            .flatten()
            .filter(|m| !m.continued)
            .count()
    }

    /// Whether every nanosecond of every CPU is accounted for: member CPU
    /// time, departed members' CPU time, idle time and the undivided
    /// remainder add up to the horizon. O(members); call outside timing.
    pub fn conserved(&self) -> bool {
        let live: u64 = self.members.iter().flatten().map(|m| self.cpu_of(m)).sum();
        live + self.retired + self.idle + self.carry == self.now * self.cpus
    }
}

impl Substrate for SynthSubstrate {
    type Member = u32;
    type Error = Infallible;

    fn now(&mut self) -> Nanos {
        Nanos(self.now)
    }

    fn read(&mut self, id: u32) -> Result<Option<Observation>, Infallible> {
        Ok(self.members[id as usize].as_ref().map(|m| Observation {
            total_cpu: Nanos(self.cpu_of(m)),
            blocked: m.kind == Kind::Sleeper,
        }))
    }

    fn deliver(&mut self, id: u32, signal: Signal) -> Result<bool, Infallible> {
        let service = self.service;
        let Some(m) = self.members[id as usize].as_mut() else {
            return Ok(false);
        };
        let go = signal == Signal::Continue;
        if m.continued != go {
            m.continued = go;
            if m.kind == Kind::Compute {
                if go {
                    m.since = service;
                    self.running += 1;
                } else {
                    m.banked += service - m.since;
                    self.running -= 1;
                }
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::splitmix64;

    /// The same world kept the obvious way: every tick walks every member.
    struct Naive {
        cpus: u64,
        quantum: u64,
        carry: u64,
        cpu: Vec<u64>,
        continued: Vec<bool>,
        compute: Vec<bool>,
    }

    impl Naive {
        fn tick(&mut self) {
            let running: Vec<usize> = (0..self.cpu.len())
                .filter(|&i| self.continued[i] && self.compute[i])
                .collect();
            let k = running.len() as u64;
            if k == 0 {
                return;
            }
            let each = if k <= self.cpus {
                self.quantum
            } else {
                let pool = self.cpus * self.quantum + self.carry;
                self.carry = pool % k;
                pool / k
            };
            for i in running {
                self.cpu[i] += each;
            }
        }
    }

    #[test]
    fn constant_time_accrual_equals_a_per_tick_split() {
        for cpus in [1u64, 3] {
            let n = 40u32;
            let q = Nanos::from_millis(10);
            let mut fast = SynthSubstrate::new(q, cpus, n as usize);
            let mut slow = Naive {
                cpus,
                quantum: q.as_nanos(),
                carry: 0,
                cpu: vec![0; n as usize],
                continued: vec![false; n as usize],
                compute: (0..n).map(|i| i % 3 != 0).collect(),
            };
            for i in 0..n {
                let kind = if slow.compute[i as usize] {
                    Kind::Compute
                } else {
                    Kind::Sleeper
                };
                fast.add(i, kind);
            }
            let mut rng = cpus;
            for _ in 0..500 {
                for _ in 0..7 {
                    rng = splitmix64(rng);
                    let id = (rng % n as u64) as u32;
                    let go = rng & (1 << 40) != 0;
                    let sig = if go { Signal::Continue } else { Signal::Stop };
                    assert_eq!(fast.deliver(id, sig), Ok(true));
                    slow.continued[id as usize] = go;
                }
                fast.tick();
                slow.tick();
                for i in 0..n {
                    let obs = fast.read(i).unwrap().unwrap();
                    assert_eq!(obs.total_cpu.as_nanos(), slow.cpu[i as usize], "member {i}");
                    assert_eq!(obs.blocked, !slow.compute[i as usize]);
                }
                assert!(fast.conserved());
            }
            assert!(slow.cpu.iter().any(|&c| c > 0));
        }
    }

    #[test]
    fn time_is_conserved_across_departures_and_idle_cpus() {
        let mut s = SynthSubstrate::new(Nanos::from_millis(10), 2, 8);
        for i in 0..7 {
            s.add(i, Kind::Compute);
        }
        s.tick(); // nobody continued: both CPUs idle
        assert!(s.conserved());
        for i in 0..7 {
            s.deliver(i, Signal::Continue).unwrap();
        }
        s.tick(); // 20 ms among 7: does not divide
        assert!(s.conserved());
        assert_eq!(s.cpu(0), Some(Nanos(20_000_000 / 7)));
        s.remove(3);
        s.remove(4);
        assert_eq!(s.read(3), Ok(None));
        assert_eq!(s.deliver(3, Signal::Continue), Ok(false));
        for _ in 0..5 {
            s.tick();
            assert!(s.conserved());
        }
        for i in [0, 1, 2, 5] {
            s.deliver(i, Signal::Stop).unwrap();
        }
        s.tick(); // one runner on two CPUs: one CPU idles
        assert!(s.conserved());
        assert_eq!(s.stopped(), 4);
    }
}
