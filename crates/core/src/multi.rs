//! Multi-tenant FastMem allocation — an extension for consolidated
//! deployments.
//!
//! The paper sizes one workload at a time; real cache fleets consolidate
//! several key-value workloads onto one hybrid-memory box, sharing a
//! single FastMem budget. Given each tenant's consultation (its fitted
//! model and per-key promotion deltas), the allocator fills the shared
//! budget greedily by *benefit density* (estimated nanoseconds saved per
//! FastMem byte) across the union of all tenants' keys — the same
//! density rule MnemoT applies within one workload, lifted across
//! workloads.

use crate::advisor::Consultation;
use crate::estimate::EstimateEngine;
use crate::model::PerfModel;
use crate::order;
use crate::pattern::PatternEngine;
use cloudcost::CostModel;
use serde::Serialize;

/// Per-tenant outcome of a shared allocation.
#[derive(Debug, Clone, Serialize)]
pub struct TenantAllocation {
    /// Tenant index (order of the input slice).
    pub tenant: usize,
    /// Keys of this tenant promoted to FastMem.
    pub keys: Vec<u64>,
    /// FastMem bytes granted.
    pub fast_bytes: u64,
    /// Estimated runtime with this allocation (ns).
    pub est_runtime_ns: f64,
    /// Estimated slowdown vs this tenant running all-FastMem.
    pub est_slowdown: f64,
}

/// Result of a shared-budget allocation.
#[derive(Debug, Clone, Serialize)]
pub struct SharedAllocation {
    /// Per-tenant grants, in input order.
    pub tenants: Vec<TenantAllocation>,
    /// FastMem bytes used of the budget.
    pub used_bytes: u64,
    /// The budget that was offered.
    pub budget_bytes: u64,
}

impl SharedAllocation {
    /// The worst per-tenant estimated slowdown — the fleet's SLO metric.
    pub fn worst_slowdown(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.est_slowdown)
            .fold(0.0, f64::max)
    }
}

/// The allocator's per-tenant inputs: a fitted performance model plus
/// the tenant's profiled access pattern. This is the cheap subset of a
/// full [`Consultation`] — no key ordering, no estimate curve — so
/// high-frequency callers (the serve daemon re-plans every few ticks)
/// can build one per tenant without paying the curve construction.
#[derive(Debug, Clone)]
pub struct TenantDemand {
    /// The tenant's fitted performance model.
    pub model: PerfModel,
    /// The tenant's profiled access pattern.
    pub pattern: PatternEngine,
}

impl TenantDemand {
    /// The demand a full consultation implies.
    pub fn from_consultation(c: &Consultation) -> TenantDemand {
        TenantDemand {
            model: c.model.clone(),
            pattern: c.pattern.clone(),
        }
    }
}

/// Allocate a shared FastMem `budget_bytes` across tenants by benefit
/// density. Each consultation supplies the per-key promotion deltas of
/// its own fitted model (including any cache-aware correction it was
/// configured with).
pub fn allocate_shared(consultations: &[Consultation], budget_bytes: u64) -> SharedAllocation {
    let demands: Vec<TenantDemand> = consultations
        .iter()
        .map(TenantDemand::from_consultation)
        .collect();
    allocate_demands(&demands, budget_bytes)
}

/// [`allocate_shared`] from bare demand summaries. The all-SlowMem
/// runtime each slowdown is judged against is the model's own endpoint
/// (`fast_total + Σ deltas`), bit-identical to the estimate curve's
/// all-slow row, so the two entry points produce the same allocation.
pub fn allocate_demands(demands: &[TenantDemand], budget_bytes: u64) -> SharedAllocation {
    // Gather (tenant, key, bytes, delta) across all tenants.
    struct Cand {
        tenant: usize,
        key: u64,
        bytes: u64,
        delta: f64,
    }
    // Rebuild each tenant's engine to get its deltas (price factor does
    // not matter for deltas; use the default model). Tenants are
    // independent, so the delta evaluations run as coarse jobs on the
    // bounded pool; gathering stays in tenant order, keeping the
    // knapsack-style fill deterministic.
    let per_tenant: Vec<(f64, Vec<f64>)> =
        // mnemo-lint: allow(D007, "the reachable sum is predict's fixed coefficient dot product, fully inside each tenant job")
        mnemo_par::Pool::current().run_jobs(demands.len(), |tenant| {
            let d = &demands[tenant];
            let engine = EstimateEngine::new(d.model.clone(), CostModel::default());
            engine.key_deltas(&d.pattern)
        });
    let mut candidates = Vec::new();
    let mut fast_totals = Vec::with_capacity(demands.len());
    let mut slow_totals = Vec::with_capacity(demands.len());
    for (tenant, d) in demands.iter().enumerate() {
        let (fast_total, deltas) = &per_tenant[tenant];
        fast_totals.push(*fast_total);
        slow_totals.push(*fast_total + deltas.iter().sum::<f64>());
        for (key, &delta) in deltas.iter().enumerate() {
            let bytes = d.pattern.key(key as u64).bytes;
            if delta > 0.0 && bytes > 0 {
                candidates.push(Cand {
                    tenant,
                    key: key as u64,
                    bytes,
                    delta,
                });
            }
        }
    }
    // Candidates were pushed in (tenant, key) order, so position is the
    // density tie-break.
    let order = order::descending(candidates.iter().map(|c| c.delta / c.bytes as f64));

    let mut used = 0u64;
    let mut grants: Vec<Vec<u64>> = demands.iter().map(|_| Vec::new()).collect();
    let mut granted_bytes: Vec<u64> = demands.iter().map(|_| 0).collect();
    let mut saved: Vec<f64> = demands.iter().map(|_| 0.0).collect();
    for pos in order {
        let cand = &candidates[pos as usize];
        // `used <= budget_bytes` holds throughout, so the subtraction
        // cannot underflow and the test cannot overflow.
        if cand.bytes <= budget_bytes - used {
            used += cand.bytes;
            grants[cand.tenant].push(cand.key);
            granted_bytes[cand.tenant] += cand.bytes;
            saved[cand.tenant] += cand.delta;
        }
    }

    let tenants = demands
        .iter()
        .enumerate()
        .map(|(tenant, _)| {
            // Runtime = all-slow estimate minus what the grant saves.
            let slow = slow_totals[tenant];
            let fast = fast_totals[tenant];
            let est_runtime_ns = slow - saved[tenant];
            let est_slowdown = if fast > 0.0 {
                // Throughput ratio via runtimes: slowdown vs all-fast.
                (est_runtime_ns - fast) / est_runtime_ns
            } else {
                0.0
            };
            TenantAllocation {
                tenant,
                keys: std::mem::take(&mut grants[tenant]),
                fast_bytes: granted_bytes[tenant],
                est_runtime_ns,
                est_slowdown: est_slowdown.max(0.0),
            }
        })
        .collect();
    SharedAllocation {
        tenants,
        used_bytes: used,
        budget_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{Advisor, AdvisorConfig};
    use crate::model::ModelKind;
    use crate::pattern::KeyStats;
    use crate::sensitivity::SensitivityEngine;
    use kvsim::StoreKind;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use ycsb::WorkloadSpec;

    fn consult(spec: WorkloadSpec, store: StoreKind) -> Consultation {
        let trace = spec.generate(5);
        Advisor::new(AdvisorConfig::default())
            .consult(store, &trace)
            .unwrap()
    }

    fn two_tenants() -> Vec<Consultation> {
        vec![
            consult(
                WorkloadSpec::trending().scaled(200, 2_500),
                StoreKind::Dynamo,
            ),
            consult(
                WorkloadSpec::trending().scaled(200, 2_500),
                StoreKind::Memcached,
            ),
        ]
    }

    #[test]
    fn budget_is_respected_and_used() {
        let tenants = two_tenants();
        let total: u64 = tenants.iter().map(|c| c.curve.total_bytes).sum();
        let alloc = allocate_shared(&tenants, total / 4);
        assert!(alloc.used_bytes <= alloc.budget_bytes);
        assert!(
            alloc.used_bytes > alloc.budget_bytes / 2,
            "budget should be mostly used"
        );
        let granted: u64 = alloc.tenants.iter().map(|t| t.fast_bytes).sum();
        assert_eq!(granted, alloc.used_bytes);
    }

    #[test]
    fn sensitive_tenant_wins_the_budget() {
        // DynamoDB (very memory-sensitive) vs Memcached (insensitive) on
        // the same workload: the shared budget should flow to DynamoDB.
        let tenants = two_tenants();
        let total: u64 = tenants.iter().map(|c| c.curve.total_bytes).sum();
        let alloc = allocate_shared(&tenants, total / 4);
        assert!(
            alloc.tenants[0].fast_bytes > 4 * alloc.tenants[1].fast_bytes.max(1),
            "dynamo {} vs memcached {}",
            alloc.tenants[0].fast_bytes,
            alloc.tenants[1].fast_bytes
        );
    }

    #[test]
    fn zero_budget_grants_nothing() {
        let tenants = two_tenants();
        let alloc = allocate_shared(&tenants, 0);
        assert_eq!(alloc.used_bytes, 0);
        for t in &alloc.tenants {
            assert!(t.keys.is_empty());
            // All-slow runtime equals the tenant's slow-only estimate.
            let slow = tenants[t.tenant].curve.slow_only().est_runtime_ns;
            assert!((t.est_runtime_ns - slow).abs() / slow < 1e-9);
        }
    }

    #[test]
    fn full_budget_reaches_all_fast() {
        let tenants = two_tenants();
        let total: u64 = tenants.iter().map(|c| c.curve.total_bytes).sum();
        let alloc = allocate_shared(&tenants, total);
        for t in &alloc.tenants {
            assert!(
                t.est_slowdown < 1e-9,
                "tenant {} slowdown {}",
                t.tenant,
                t.est_slowdown
            );
        }
        assert!(alloc.worst_slowdown() < 1e-9);
    }

    #[test]
    fn bigger_budget_never_hurts_anyone() {
        let tenants = two_tenants();
        let total: u64 = tenants.iter().map(|c| c.curve.total_bytes).sum();
        let small = allocate_shared(&tenants, total / 8);
        let large = allocate_shared(&tenants, total / 2);
        for (s, l) in small.tenants.iter().zip(&large.tenants) {
            assert!(l.est_runtime_ns <= s.est_runtime_ns + 1e-6);
        }
        assert!(large.worst_slowdown() <= small.worst_slowdown() + 1e-12);
    }

    /// The fill as it was before the ordering kernel: a stable
    /// comparator sort on (density desc, tenant, key) and a running-sum
    /// budget test. Kept as the reference the kernel-driven fill must
    /// reproduce bit for bit.
    fn reference_allocate(demands: &[TenantDemand], budget_bytes: u64) -> SharedAllocation {
        struct Cand {
            tenant: usize,
            key: u64,
            bytes: u64,
            delta: f64,
        }
        let mut candidates = Vec::new();
        let mut fast_totals = Vec::new();
        let mut slow_totals = Vec::new();
        for (tenant, d) in demands.iter().enumerate() {
            let engine = EstimateEngine::new(d.model.clone(), CostModel::default());
            let (fast_total, deltas) = engine.key_deltas(&d.pattern);
            fast_totals.push(fast_total);
            slow_totals.push(fast_total + deltas.iter().sum::<f64>());
            for (key, &delta) in deltas.iter().enumerate() {
                let bytes = d.pattern.key(key as u64).bytes;
                if delta > 0.0 && bytes > 0 {
                    candidates.push(Cand {
                        tenant,
                        key: key as u64,
                        bytes,
                        delta,
                    });
                }
            }
        }
        candidates.sort_by(|a, b| {
            let da = a.delta / a.bytes as f64;
            let db = b.delta / b.bytes as f64;
            db.total_cmp(&da)
                .then(a.tenant.cmp(&b.tenant))
                .then(a.key.cmp(&b.key))
        });
        let mut used = 0u64;
        let mut grants: Vec<Vec<u64>> = demands.iter().map(|_| Vec::new()).collect();
        let mut granted_bytes = vec![0u64; demands.len()];
        let mut saved = vec![0.0f64; demands.len()];
        for cand in candidates {
            if used + cand.bytes <= budget_bytes {
                used += cand.bytes;
                grants[cand.tenant].push(cand.key);
                granted_bytes[cand.tenant] += cand.bytes;
                saved[cand.tenant] += cand.delta;
            }
        }
        let tenants = (0..demands.len())
            .map(|tenant| {
                let fast = fast_totals[tenant];
                let est_runtime_ns = slow_totals[tenant] - saved[tenant];
                let est_slowdown = if fast > 0.0 {
                    (est_runtime_ns - fast) / est_runtime_ns
                } else {
                    0.0
                };
                TenantAllocation {
                    tenant,
                    keys: std::mem::take(&mut grants[tenant]),
                    fast_bytes: granted_bytes[tenant],
                    est_runtime_ns,
                    est_slowdown: est_slowdown.max(0.0),
                }
            })
            .collect();
        SharedAllocation {
            tenants,
            used_bytes: used,
            budget_bytes,
        }
    }

    /// Three fitted models (one per store), measured once per process.
    fn models() -> &'static [PerfModel] {
        static MODELS: OnceLock<Vec<PerfModel>> = OnceLock::new();
        MODELS.get_or_init(|| {
            let t = WorkloadSpec::trending().scaled(60, 600).generate(9);
            [StoreKind::Redis, StoreKind::Memcached, StoreKind::Dynamo]
                .into_iter()
                .map(|store| {
                    let b = SensitivityEngine::default().measure(store, &t).unwrap();
                    PerfModel::fit(ModelKind::GlobalAverage, &b, &t.sizes)
                })
                .collect()
        })
    }

    /// Per-key stats drawn from small pools, so equal densities recur
    /// within and across tenants that share a model.
    fn arb_stats() -> impl Strategy<Value = KeyStats> {
        (
            0u64..4,
            0u64..3,
            prop_oneof![Just(0u64), Just(64u64), Just(128u64), 1u64..512],
        )
            .prop_map(|(reads, writes, bytes)| KeyStats {
                reads,
                writes,
                bytes,
            })
    }

    fn arb_tenants() -> impl Strategy<Value = Vec<(usize, Vec<KeyStats>)>> {
        proptest::collection::vec(
            (0usize..3, proptest::collection::vec(arb_stats(), 0..40)),
            1..6,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn kernel_fill_is_bit_identical_to_the_comparator_fill(
            tenants in arb_tenants(),
            budget_frac in 0.0f64..1.2,
            unbounded in proptest::bool::ANY,
        ) {
            let demands: Vec<TenantDemand> = tenants
                .into_iter()
                .map(|(model, stats)| TenantDemand {
                    model: models()[model].clone(),
                    pattern: PatternEngine::from_stats(stats),
                })
                .collect();
            let total: u64 = demands.iter().map(|d| d.pattern.total_bytes()).sum();
            let budget = if unbounded {
                u64::MAX
            } else {
                (total as f64 * budget_frac) as u64
            };
            let got = allocate_demands(&demands, budget);
            let want = reference_allocate(&demands, budget);
            prop_assert_eq!(got.used_bytes, want.used_bytes);
            prop_assert_eq!(got.tenants.len(), want.tenants.len());
            for (g, w) in got.tenants.iter().zip(&want.tenants) {
                prop_assert_eq!(&g.keys, &w.keys);
                prop_assert_eq!(g.fast_bytes, w.fast_bytes);
                prop_assert_eq!(g.est_runtime_ns.to_bits(), w.est_runtime_ns.to_bits());
                prop_assert_eq!(g.est_slowdown.to_bits(), w.est_slowdown.to_bits());
            }
        }
    }

    #[test]
    fn fill_test_cannot_overflow_near_the_top_of_the_byte_range() {
        // Two keys whose byte counts sum past u64::MAX: the first fits
        // the unbounded budget, the second no longer does.
        let stats = vec![
            KeyStats {
                reads: 4,
                writes: 0,
                bytes: u64::MAX - 8,
            },
            KeyStats {
                reads: 1,
                writes: 0,
                bytes: u64::MAX / 2,
            },
        ];
        let demands = vec![TenantDemand {
            model: models()[0].clone(),
            pattern: PatternEngine::from_stats(stats),
        }];
        let alloc = allocate_demands(&demands, u64::MAX);
        assert_eq!(alloc.tenants[0].keys, vec![0]);
        assert_eq!(alloc.used_bytes, u64::MAX - 8);
    }
}
