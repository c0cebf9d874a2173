//! The open-loop generator: events and advise commands fall due on two
//! fixed schedules regardless of how fast the engine answers. Each job
//! is timed from when it was *due*, so a stall also charges the wait it
//! imposes on every job queued behind it, and the generator reports how
//! late it started each job.

use std::time::Instant;

/// Time source for the generator, injectable for tests.
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
    /// Return no earlier than `due_ns` (immediately if already past).
    fn wait_until(&self, due_ns: u64);
}

/// The host clock. Waits spin: gaps between jobs are microseconds,
/// far below a sleep's resolution.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, due_ns: u64) {
        while self.now_ns() < due_ns {
            std::hint::spin_loop();
        }
    }
}

/// The offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Offered ingest events per second.
    pub event_rate: f64,
    /// Offered advise commands per second.
    pub advise_rate: f64,
    /// Length of the schedule in seconds.
    pub seconds: f64,
}

/// One scheduled job: the `i`-th event or the `i`-th advise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// Ingest event number `i`.
    Event(u64),
    /// Advise command number `i`.
    Advise(u64),
}

impl Plan {
    /// Events in the schedule.
    pub fn events(&self) -> u64 {
        (self.event_rate * self.seconds) as u64
    }

    /// Advise commands in the schedule.
    pub fn advises(&self) -> u64 {
        (self.advise_rate * self.seconds) as u64
    }

    /// Due offset of event `i` in nanoseconds.
    pub fn event_due(&self, i: u64) -> u64 {
        (i as f64 * 1e9 / self.event_rate) as u64
    }

    /// Due offset of advise `i`: half a period in, so advises do not
    /// land on the same instant as an event by construction.
    pub fn advise_due(&self, i: u64) -> u64 {
        ((i as f64 + 0.5) * 1e9 / self.advise_rate) as u64
    }
}

/// Per-job timings, in nanoseconds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    /// Event latency, completion minus due time.
    pub event_ns: Vec<f64>,
    /// Advise latency, completion minus due time.
    pub advise_ns: Vec<f64>,
    /// Generator lateness of every job: start minus due time.
    pub late_ns: Vec<f64>,
}

/// Run `plan` against `clock`, handing each job to `run_job` at its due
/// time (or as soon after as the previous job allows). Events win ties.
pub fn run<C: Clock, E>(
    clock: &C,
    plan: &Plan,
    mut run_job: impl FnMut(Job) -> Result<(), E>,
) -> Result<Outcome, E> {
    let (events, advises) = (plan.events(), plan.advises());
    let mut out = Outcome {
        event_ns: Vec::with_capacity(events as usize),
        advise_ns: Vec::with_capacity(advises as usize),
        late_ns: Vec::with_capacity((events + advises) as usize),
    };
    let origin = clock.now_ns();
    let (mut e, mut a) = (0u64, 0u64);
    while e < events || a < advises {
        let event_first = a >= advises || (e < events && plan.event_due(e) <= plan.advise_due(a));
        let (job, due) = if event_first {
            (Job::Event(e), origin + plan.event_due(e))
        } else {
            (Job::Advise(a), origin + plan.advise_due(a))
        };
        clock.wait_until(due);
        let start = clock.now_ns();
        run_job(job)?;
        let end = clock.now_ns();
        out.late_ns.push((start - due) as f64);
        match job {
            Job::Event(_) => {
                out.event_ns.push((end - due) as f64);
                e += 1;
            }
            Job::Advise(_) => {
                out.advise_ns.push((end - due) as f64);
                a += 1;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when a job "works" or the generator waits.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, due_ns: u64) {
            self.0.set(self.0.get().max(due_ns));
        }
    }

    impl FakeClock {
        fn work(&self, ns: u64) {
            self.0.set(self.0.get() + ns);
        }
    }

    #[test]
    fn jobs_run_in_due_order_and_count_matches_the_plan() {
        let clock = FakeClock(Cell::new(1_000));
        // 10 events at 1 kHz (1 ms apart), 2 advises at 200 Hz.
        let plan = Plan {
            event_rate: 1_000.0,
            advise_rate: 200.0,
            seconds: 0.01,
        };
        let mut order = Vec::new();
        let out = run(&clock, &plan, |job| -> Result<(), ()> {
            order.push((job, clock.now_ns()));
            Ok(())
        })
        .unwrap();
        assert_eq!((out.event_ns.len(), out.advise_ns.len()), (10, 2));
        // Advise 0 is due at 2.5 ms: after event 2 (2 ms), before event 3.
        assert_eq!(order[3], (Job::Advise(0), 1_000 + 2_500_000));
        assert_eq!(order[4], (Job::Event(3), 1_000 + 3_000_000));
        assert!(order.windows(2).all(|w| w[0].1 <= w[1].1));
        // Free jobs on an idle generator: no latency, no lateness.
        assert!(out.event_ns.iter().chain(&out.late_ns).all(|&v| v == 0.0));
    }

    #[test]
    fn a_stall_is_charged_to_every_job_queued_behind_it() {
        let clock = FakeClock(Cell::new(0));
        let plan = Plan {
            event_rate: 1_000.0,
            advise_rate: 1.0,
            seconds: 0.005,
        };
        assert_eq!(plan.advises(), 0);
        // Event 0 stalls 2.5 ms; the rest take 100 us each.
        let out = run(&clock, &plan, |job| -> Result<(), ()> {
            clock.work(if job == Job::Event(0) {
                2_500_000
            } else {
                100_000
            });
            Ok(())
        })
        .unwrap();
        // Event 1 was due at 1 ms but started at 2.5 ms: 1.5 ms late,
        // done at 2.6 ms -> 1.6 ms from due. Event 2 (due 2 ms) starts
        // at 2.6 ms. Event 3 (due 3 ms) finds the generator caught up.
        assert_eq!(out.late_ns, vec![0.0, 1_500_000.0, 600_000.0, 0.0, 0.0]);
        assert_eq!(
            out.event_ns,
            vec![2_500_000.0, 1_600_000.0, 700_000.0, 100_000.0, 100_000.0]
        );
    }

    #[test]
    fn job_errors_stop_the_generator() {
        let clock = FakeClock(Cell::new(0));
        let plan = Plan {
            event_rate: 100.0,
            advise_rate: 10.0,
            seconds: 1.0,
        };
        let mut seen = 0;
        let err = run(&clock, &plan, |_| {
            seen += 1;
            if seen == 3 {
                Err("boom")
            } else {
                Ok(())
            }
        });
        assert_eq!(err, Err("boom"));
        assert_eq!(seen, 3);
    }
}
