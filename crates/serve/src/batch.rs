//! Descriptor batching through the runtime's compiler path.
//!
//! Admitted sessions do not bypass the library: each batch member's
//! TDL items are planned through [`Runtime::acc_plan_cached`], so
//! repeated classes reuse compiled descriptor chains instead of
//! re-planning. Partition rebasing only moves `BUF` directives — the
//! TDL text itself is canonical per class — so the plan cache hits on
//! every repeat admission of a class, which is exactly the batching
//! economy the serving layer claims. Each class's items are rendered
//! to program text once, with their parameter bags, when the batcher
//! is built. The scheduler reads the hit/build counters back out of
//! here for the report.

use std::collections::{BTreeSet, HashMap};

use mealib_runtime::{Runtime, VerifyMode};
use mealib_sim::plausible_params;
use mealib_tdl::{ParamBag, TdlItem, TdlProgram};
use mealib_types::Bytes;
use mealib_verify::dataflow::{HostOp, Session};

use crate::session::Catalogue;

/// Plans admitted sessions' descriptors through a shared [`Runtime`],
/// batching repeats via the plan cache.
pub struct DescriptorBatcher {
    rt: Runtime,
    planned: u64,
    /// Per canonical class body: each top-level item's program text and
    /// parameter bag, in program order.
    items: HashMap<String, Vec<(String, ParamBag)>>,
}

/// Each top-level item of `session` as the single-item program text and
/// parameter bag the compiler path plans.
fn plan_inputs(session: &Session) -> Vec<(String, ParamBag)> {
    session
        .program
        .items
        .iter()
        .map(|item| {
            let mut bag = ParamBag::new();
            let comps: Vec<_> = match item {
                TdlItem::Pass(p) => p.comps.iter().collect(),
                TdlItem::Loop(l) => l.body.iter().flat_map(|p| &p.comps).collect(),
            };
            for comp in comps {
                bag.insert(comp.params.clone(), plausible_params(comp.accel).to_bytes());
            }
            (TdlProgram::new(vec![item.clone()]).to_string(), bag)
        })
        .collect()
}

impl DescriptorBatcher {
    /// A batcher with every catalogue buffer pre-allocated (token
    /// sizes: planning checks the descriptor path, not the dataset).
    ///
    /// # Panics
    ///
    /// Panics if a buffer fails to allocate — an in-tree invariant.
    pub fn new(catalogue: &Catalogue) -> Self {
        let mut rt = Runtime::new();
        // Admission already certified the batch; static re-verification
        // of each descriptor would double-charge the gate.
        rt.set_verify_mode(VerifyMode::Off);
        let mut names: BTreeSet<String> = BTreeSet::new();
        let mut items = HashMap::new();
        for class in catalogue.classes() {
            let session = class.parsed.session();
            for pass in session.program.passes() {
                names.insert(pass.input.clone());
                names.insert(pass.output.clone());
            }
            for (_, op) in &session.host_ops {
                if let HostOp::Write(b) | HostOp::Read(b) = op {
                    names.insert(b.clone());
                }
            }
            items.insert(class.body.clone(), plan_inputs(session));
        }
        for name in &names {
            rt.mem_alloc(name, Bytes::from_mib(1))
                .expect("batcher buffers fit the default stack");
        }
        Self {
            rt,
            planned: 0,
            items,
        }
    }

    /// Plans every top-level TDL item of the catalogue class whose body
    /// is `canonical_body` through the cached compiler path, from the
    /// program texts rendered when the batcher was built. Returns the
    /// number of items planned.
    ///
    /// # Panics
    ///
    /// Panics if `canonical_body` is no catalogue class's body, or if
    /// planning fails — the bodies are in-tree and the buffers
    /// pre-allocated, so that is a bug.
    pub fn plan_class(&mut self, canonical_body: &str) -> usize {
        let items = self
            .items
            .get(canonical_body)
            .expect("planned bodies are catalogue classes");
        for (program, bag) in items {
            self.rt
                .acc_plan_cached(program, bag)
                .expect("catalogue sessions plan");
        }
        self.planned += items.len() as u64;
        items.len()
    }

    /// Total top-level items planned (cached or not).
    pub fn planned(&self) -> u64 {
        self.planned
    }

    /// Plans served straight from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.rt.counters().plan_cache_hits
    }

    /// Distinct descriptor chains resident in the cache.
    pub fn cached_plans(&self) -> usize {
        self.rt.plan_cache_len()
    }

    /// Exports the runtime's cumulative counters (plans, executions,
    /// cache hits) plus the resident-cache size into `reg` — the
    /// telemetry surface for the batching economy.
    pub fn export_metrics(&self, reg: &mut mealib_obs::MetricsRegistry) {
        self.rt.counters().export_into(reg);
        reg.describe("serve_plans_planned_total", "Top-level TDL items planned");
        reg.store("serve_plans_planned_total", &[], self.planned);
        reg.describe(
            "runtime_plan_cache_len",
            "Descriptor chains resident in the plan cache",
        );
        reg.store(
            "runtime_plan_cache_len",
            &[],
            self.rt.plan_cache_len() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_verify::BoundsEnv;

    #[test]
    fn repeat_classes_hit_the_plan_cache() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let mut b = DescriptorBatcher::new(&cat);
        let body = cat.get("sar-chain-256").unwrap().body.clone();
        let items = b.plan_class(&body);
        assert!(items > 0);
        assert_eq!(b.cache_hits(), 0, "first plan builds");
        b.plan_class(&body);
        assert_eq!(b.cache_hits(), items as u64, "second plan is all hits");
        assert_eq!(b.planned(), 2 * items as u64);
        assert_eq!(b.cached_plans(), items);
    }

    #[test]
    fn every_catalogue_class_plans_cleanly() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let mut b = DescriptorBatcher::new(&cat);
        for class in cat.classes() {
            assert!(b.plan_class(&class.body) > 0, "{}", class.name);
        }
        // All four stap scales share one canonical TDL shape, so the
        // cache holds fewer chains than the catalogue has classes.
        assert!(b.cached_plans() <= b.planned() as usize);
        assert!(b.cache_hits() > 0, "stap scales share descriptor chains");
    }
}
