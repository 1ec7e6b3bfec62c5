//! The sleeping-barber problem (§6.3.1, Fig. 10).
//!
//! One barber, a bounded row of waiting chairs, customers that balk when
//! the chairs are full. Model: `waiting` counts seated customers,
//! `available` counts finished haircuts not yet claimed (haircuts are
//! fungible — any seated customer may take the next one, which is why
//! the paper observes that even the broadcast baseline loses nothing
//! here: every woken customer really can proceed). The barber waits on
//! `waiting > 0 || done`, customers on `available > 0` — all shared
//! predicates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use autosynch::baseline::BaselineMonitor;
use autosynch::explicit::{CondId, ExplicitMonitor};
use autosynch::monitor::Monitor;
use autosynch::stats::StatsSnapshot;
use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch::Cond;

use crate::mechanism::{timed_run, Mechanism, RunReport};

/// Barbershop state shared by every implementation. The three
/// expression-feeding fields are [`Tracked`] cells; `served` is
/// verification bookkeeping.
#[derive(Debug, Default)]
pub struct ShopState {
    waiting: Tracked<i64>,
    available: Tracked<i64>,
    done: Tracked<bool>,
    served: u64,
}

impl TrackedState for ShopState {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.waiting);
        f(&mut self.available);
        f(&mut self.done);
    }
}

/// The barbershop operations.
pub trait BarberShop: Send + Sync {
    /// A customer visit. Returns `true` when served, `false` when the
    /// shop was full (balked).
    fn visit(&self, chairs: i64) -> bool;
    /// The barber's service loop: cut hair until closing time and the
    /// shop is empty. Returns the number of haircuts given.
    fn barber_loop(&self) -> u64;
    /// Closing time: no new haircuts after the seated ones.
    fn close(&self);
    /// Instrumentation snapshot.
    fn stats(&self) -> StatsSnapshot;
}

/// Explicit-signal barbershop: a condvar for the barber and one for the
/// seated customers.
#[derive(Debug)]
pub struct ExplicitBarberShop {
    monitor: ExplicitMonitor<ShopState>,
    barber_cv: CondId,
    customer_cv: CondId,
}

impl ExplicitBarberShop {
    /// Creates the shop.
    pub fn new() -> Self {
        let mut monitor = ExplicitMonitor::new(ShopState::default());
        let barber_cv = monitor.add_condition();
        let customer_cv = monitor.add_condition();
        ExplicitBarberShop {
            monitor,
            barber_cv,
            customer_cv,
        }
    }
}

impl Default for ExplicitBarberShop {
    fn default() -> Self {
        Self::new()
    }
}

impl BarberShop for ExplicitBarberShop {
    fn visit(&self, chairs: i64) -> bool {
        self.monitor.enter(|g| {
            if *g.state().waiting >= chairs {
                return false; // no free chair: leave
            }
            *g.state_mut().waiting += 1;
            g.signal(self.barber_cv); // wake the sleeping barber
            g.wait_while(self.customer_cv, |s| *s.available == 0);
            *g.state_mut().available -= 1;
            true
        })
    }

    fn barber_loop(&self) -> u64 {
        let mut cuts = 0;
        loop {
            let served = self.monitor.enter(|g| {
                g.wait_while(self.barber_cv, |s| *s.waiting == 0 && !*s.done);
                let state = g.state_mut();
                if *state.waiting == 0 {
                    return false; // closing time, shop empty
                }
                *state.waiting -= 1;
                *state.available += 1;
                state.served += 1;
                g.signal(self.customer_cv);
                true
            });
            if !served {
                return cuts;
            }
            cuts += 1;
        }
    }

    fn close(&self) {
        self.monitor.enter(|g| {
            *g.state_mut().done = true;
            g.signal(self.barber_cv);
        });
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Baseline barbershop: one condvar, broadcasts.
#[derive(Debug)]
pub struct BaselineBarberShop {
    monitor: BaselineMonitor<ShopState>,
}

impl BaselineBarberShop {
    /// Creates the shop.
    pub fn new() -> Self {
        BaselineBarberShop {
            monitor: BaselineMonitor::new(ShopState::default()),
        }
    }
}

impl Default for BaselineBarberShop {
    fn default() -> Self {
        Self::new()
    }
}

impl BarberShop for BaselineBarberShop {
    fn visit(&self, chairs: i64) -> bool {
        self.monitor.enter(|g| {
            if *g.state().waiting >= chairs {
                return false;
            }
            *g.state_mut().waiting += 1;
            g.wait_until(|s: &ShopState| *s.available > 0);
            *g.state_mut().available -= 1;
            true
        })
    }

    fn barber_loop(&self) -> u64 {
        let mut cuts = 0;
        loop {
            let served = self.monitor.enter(|g| {
                g.wait_until(|s: &ShopState| *s.waiting > 0 || *s.done);
                let state = g.state_mut();
                if *state.waiting == 0 {
                    return false;
                }
                *state.waiting -= 1;
                *state.available += 1;
                state.served += 1;
                true
            });
            if !served {
                return cuts;
            }
            cuts += 1;
        }
    }

    fn close(&self) {
        self.monitor.enter(|g| *g.state_mut().done = true);
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// AutoSynch barbershop: `waituntil` on shared predicates only, both
/// compiled once at construction.
#[derive(Debug)]
pub struct AutoSynchBarberShop {
    monitor: Monitor<ShopState>,
    customer_ready: Cond<ShopState>,
    chair_open: Cond<ShopState>,
}

impl AutoSynchBarberShop {
    /// Creates the shop under the mechanism's monitor configuration.
    pub fn new(mechanism: Mechanism) -> Self {
        let config = mechanism
            .monitor_config()
            .expect("AutoSynchBarberShop requires an automatic mechanism");
        let monitor = Monitor::with_config(ShopState::default(), config);
        let waiting = monitor.register_expr("waiting", |s| *s.waiting);
        let available = monitor.register_expr("available", |s| *s.available);
        let done = monitor.register_expr("done", |s| *s.done as i64);
        monitor.bind(|s| &mut s.waiting, &[waiting]);
        monitor.bind(|s| &mut s.available, &[available]);
        monitor.bind(|s| &mut s.done, &[done]);
        let customer_ready = monitor.compile(waiting.gt(0).or(done.eq(1)));
        let chair_open = monitor.compile(available.gt(0));
        AutoSynchBarberShop {
            monitor,
            customer_ready,
            chair_open,
        }
    }
}

impl BarberShop for AutoSynchBarberShop {
    fn visit(&self, chairs: i64) -> bool {
        self.monitor.enter_tracked(|g| {
            if *g.state().waiting >= chairs {
                return false;
            }
            *g.state_mut().waiting += 1;
            g.wait(&self.chair_open);
            *g.state_mut().available -= 1;
            true
        })
    }

    fn barber_loop(&self) -> u64 {
        let mut cuts = 0;
        loop {
            let served = self.monitor.enter_tracked(|g| {
                g.wait(&self.customer_ready);
                let state = g.state_mut();
                if *state.waiting == 0 {
                    return false;
                }
                *state.waiting -= 1;
                *state.available += 1;
                state.served += 1;
                true
            });
            if !served {
                return cuts;
            }
            cuts += 1;
        }
    }

    fn close(&self) {
        self.monitor.enter_tracked(|g| {
            *g.state_mut().done = true;
        });
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Instantiates the implementation for `mechanism`.
pub fn make_shop(mechanism: Mechanism) -> Arc<dyn BarberShop> {
    match mechanism {
        Mechanism::Explicit => Arc::new(ExplicitBarberShop::new()),
        Mechanism::Baseline => Arc::new(BaselineBarberShop::new()),
        Mechanism::AutoSynchT
        | Mechanism::AutoSynch
        | Mechanism::AutoSynchCD
        | Mechanism::AutoSynchRoute => Arc::new(AutoSynchBarberShop::new(mechanism)),
    }
}

/// Parameters of a Fig. 10 run.
#[derive(Debug, Clone, Copy)]
pub struct SleepingBarberConfig {
    /// Customer thread count (the x-axis).
    pub customers: usize,
    /// Visits per customer.
    pub visits_per_customer: usize,
    /// Waiting chairs.
    pub chairs: i64,
}

impl Default for SleepingBarberConfig {
    fn default() -> Self {
        SleepingBarberConfig {
            customers: 4,
            visits_per_customer: 500,
            chairs: 8,
        }
    }
}

/// Outcome of a barbershop run: the generic report plus the served/balked
/// accounting.
#[derive(Debug, Clone, Copy)]
pub struct BarberReport {
    /// The generic saturation report.
    pub report: RunReport,
    /// Customers served.
    pub served: u64,
    /// Customers that balked (shop full).
    pub balked: u64,
}

/// Runs the saturation test.
///
/// # Panics
///
/// Panics when served + balked ≠ total visits, or when the barber's cut
/// count disagrees with the customers'.
pub fn run(mechanism: Mechanism, config: SleepingBarberConfig) -> BarberReport {
    let shop = make_shop(mechanism);
    let balked = AtomicU64::new(0);
    let served = AtomicU64::new(0);
    let cuts = AtomicU64::new(0);
    let finished = AtomicU64::new(0);
    let total_threads = config.customers + 1;

    let (elapsed, ctx) = timed_run(total_threads, |i| {
        if i == 0 {
            cuts.store(shop.barber_loop(), Ordering::Relaxed);
        } else {
            for _ in 0..config.visits_per_customer {
                if shop.visit(config.chairs) {
                    served.fetch_add(1, Ordering::Relaxed);
                } else {
                    balked.fetch_add(1, Ordering::Relaxed);
                }
            }
            // The last customer to finish closes the shop.
            if finished.fetch_add(1, Ordering::SeqCst) + 1 == config.customers as u64 {
                shop.close();
            }
        }
    });

    let served = served.load(Ordering::Relaxed);
    let balked = balked.load(Ordering::Relaxed);
    let cuts = cuts.load(Ordering::Relaxed);
    let total = (config.customers * config.visits_per_customer) as u64;
    assert_eq!(served + balked, total, "{mechanism}: visit accounting");
    assert_eq!(cuts, served, "{mechanism}: barber/customer disagreement");

    BarberReport {
        report: RunReport {
            mechanism,
            threads: total_threads,
            elapsed,
            stats: shop.stats(),
            ctx,
        },
        served,
        balked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mechanism: Mechanism) -> BarberReport {
        run(
            mechanism,
            SleepingBarberConfig {
                customers: 4,
                visits_per_customer: 150,
                chairs: 3,
            },
        )
    }

    #[test]
    fn all_mechanisms_balance() {
        for mechanism in Mechanism::ALL {
            let report = small(mechanism);
            assert!(report.served > 0, "{mechanism}: nobody served");
        }
    }

    #[test]
    fn tight_chairs_force_balking() {
        let report = run(
            Mechanism::AutoSynch,
            SleepingBarberConfig {
                customers: 8,
                visits_per_customer: 100,
                chairs: 1,
            },
        );
        assert!(
            report.balked > 0,
            "8 customers racing for 1 chair should balk sometimes"
        );
    }

    #[test]
    fn autosynch_never_broadcasts() {
        let report = small(Mechanism::AutoSynch);
        assert_eq!(report.report.stats.counters.broadcasts, 0);
    }

    #[test]
    fn plenty_of_chairs_serve_everyone() {
        let report = run(
            Mechanism::Explicit,
            SleepingBarberConfig {
                customers: 3,
                visits_per_customer: 100,
                chairs: 64,
            },
        );
        assert_eq!(report.balked, 0);
        assert_eq!(report.served, 300);
    }
}
