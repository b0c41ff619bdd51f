//! Descriptor reuse for the serving loop.
//!
//! Admitted sessions do not bypass the library: each batch member's
//! TDL items are planned through [`Runtime::acc_plan`]. The batcher is
//! the one place descriptors are reused — the paper's "the accelerator
//! descriptor can be reused to invoke the same accelerator(s) with the
//! same configuration multiple times" (Listing 2). When it is built,
//! every catalogue class's top-level items are rendered to single-item
//! program texts with their parameter bags, and the distinct
//! (text, bag) *chains* are interned. Partition rebasing only moves
//! `BUF` directives, so the text is canonical per class, and classes of
//! one shape share chains. A chain is planned the first time a class
//! asks for it and its [`AccPlan`] is held from then on; every later
//! request is a hit. Nothing is evicted: the catalogue bounds the chain
//! count. The scheduler reads the planned/hit/built counts back out of
//! here for the report.

use std::collections::{BTreeSet, HashMap};

use mealib_runtime::{AccPlan, Runtime, VerifyMode};
use mealib_sim::plausible_params;
use mealib_tdl::{ParamBag, TdlItem, TdlProgram};
use mealib_types::Bytes;
use mealib_verify::dataflow::{HostOp, Session};

use crate::session::Catalogue;

/// One distinct descriptor chain: a single-item program text, its
/// parameter bag, and its plan once built.
struct Chain {
    program: String,
    params: ParamBag,
    plan: Option<AccPlan>,
}

/// Plans admitted sessions' descriptors through a private [`Runtime`],
/// holding each distinct chain's plan for reuse.
pub struct DescriptorBatcher {
    rt: Runtime,
    planned: u64,
    hits: u64,
    chains: Vec<Chain>,
    /// Per canonical class body: its top-level items' indices into
    /// `chains`, in program order.
    classes: HashMap<String, Vec<usize>>,
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
    /// A batcher with every catalogue class's chains interned and every
    /// catalogue buffer pre-allocated at one page: planning under
    /// [`VerifyMode::Off`] reads the buffers' addresses, never their
    /// contents, and the driver zero-fills whatever it allocates.
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
        let mut chains: Vec<Chain> = Vec::new();
        let mut classes = HashMap::new();
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
            let ids = plan_inputs(session)
                .into_iter()
                .map(|(program, params)| {
                    chains
                        .iter()
                        .position(|c| c.program == program && c.params == params)
                        .unwrap_or_else(|| {
                            chains.push(Chain {
                                program,
                                params,
                                plan: None,
                            });
                            chains.len() - 1
                        })
                })
                .collect();
            classes.insert(class.body.clone(), ids);
        }
        for name in &names {
            rt.mem_alloc(name, Bytes::from_kib(4))
                .expect("batcher buffers fit the default stack");
        }
        Self {
            rt,
            planned: 0,
            hits: 0,
            chains,
            classes,
        }
    }

    /// Plans every top-level TDL item of the catalogue class whose body
    /// is `canonical_body`: a chain's first request builds its plan
    /// through [`Runtime::acc_plan`], every later one reuses it. Returns
    /// the number of items planned.
    ///
    /// # Panics
    ///
    /// Panics if `canonical_body` is no catalogue class's body, or if
    /// planning fails — the bodies are in-tree and the buffers
    /// pre-allocated, so that is a bug.
    pub fn plan_class(&mut self, canonical_body: &str) -> usize {
        let ids = self
            .classes
            .get(canonical_body)
            .expect("planned bodies are catalogue classes");
        for &i in ids {
            let chain = &mut self.chains[i];
            if chain.plan.is_some() {
                self.hits += 1;
            } else {
                let plan = self
                    .rt
                    .acc_plan(&chain.program, &chain.params)
                    .expect("catalogue sessions plan");
                chain.plan = Some(plan);
            }
        }
        self.planned += ids.len() as u64;
        ids.len()
    }

    /// Total top-level items planned (reused or not).
    pub fn planned(&self) -> u64 {
        self.planned
    }

    /// Items served by a chain's held plan.
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Distinct descriptor chains built so far.
    pub fn cached_plans(&self) -> usize {
        self.chains.iter().filter(|c| c.plan.is_some()).count()
    }

    /// Exports the runtime's cumulative counters (plans, executions),
    /// the batcher's hits and items planned, and the number of chains
    /// built into `reg` — the telemetry surface for the batching
    /// economy.
    pub fn export_metrics(&self, reg: &mut mealib_obs::MetricsRegistry) {
        self.rt.counters().export_into(reg);
        // Hits keep the `runtime_` name and help text that the telemetry
        // golden digests pin, so the exposition stays byte-identical.
        reg.describe("runtime_plan_cache_hits_total", "Plan-cache hits");
        reg.store("runtime_plan_cache_hits_total", &[], self.hits);
        reg.describe("serve_plans_planned_total", "Top-level TDL items planned");
        reg.store("serve_plans_planned_total", &[], self.planned);
        reg.describe(
            "runtime_plan_cache_len",
            "Descriptor chains resident in the plan cache",
        );
        reg.store("runtime_plan_cache_len", &[], self.cached_plans() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_obs::MetricsRegistry;
    use mealib_verify::BoundsEnv;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn catalogue() -> &'static Catalogue {
        static CAT: OnceLock<Catalogue> = OnceLock::new();
        CAT.get_or_init(|| Catalogue::standard(&BoundsEnv::default()))
    }

    #[test]
    fn repeat_classes_hit_the_plan_cache() {
        let cat = catalogue();
        let mut b = DescriptorBatcher::new(cat);
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
        let cat = catalogue();
        let mut b = DescriptorBatcher::new(cat);
        for class in cat.classes() {
            assert!(b.plan_class(&class.body) > 0, "{}", class.name);
        }
        // All four stap scales share one canonical TDL shape, so the
        // batcher holds fewer chains than the catalogue has classes.
        assert!(b.cached_plans() <= b.planned() as usize);
        assert!(b.cache_hits() > 0, "stap scales share descriptor chains");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The batcher's counts against a reference built from the
        /// class bodies' rendered items alone, and every held plan
        /// against a fresh plan of the same text.
        #[test]
        fn counts_match_a_reference_and_held_plans_match_fresh_ones(
            picks in proptest::collection::vec(0usize..64, 0..24),
        ) {
            let cat = catalogue();
            let classes: Vec<_> = cat.classes().collect();
            let mut b = DescriptorBatcher::new(cat);
            let mut planned = 0u64;
            let mut touched: BTreeSet<(String, ParamBag)> = BTreeSet::new();
            for pick in picks {
                let class = classes[pick % classes.len()];
                let items = plan_inputs(class.parsed.session());
                prop_assert_eq!(b.plan_class(&class.body), items.len());
                planned += items.len() as u64;
                touched.extend(items);
            }
            prop_assert_eq!(b.planned(), planned);
            prop_assert_eq!(b.cached_plans(), touched.len());
            prop_assert_eq!(b.cache_hits(), planned - touched.len() as u64);
            let mut reg = MetricsRegistry::new();
            b.export_metrics(&mut reg);
            prop_assert_eq!(
                reg.counter("runtime_plans_created_total", &[]),
                touched.len() as u64
            );
            prop_assert_eq!(reg.counter("runtime_plan_cache_hits_total", &[]), b.cache_hits());

            let mut fresh = Runtime::new();
            fresh.set_verify_mode(VerifyMode::Off);
            for name in b.rt.driver().buffer_table().keys() {
                fresh.mem_alloc(name, Bytes::from_kib(4)).unwrap();
            }
            for chain in &b.chains {
                if let Some(held) = &chain.plan {
                    let plan = fresh.acc_plan(&chain.program, &chain.params).unwrap();
                    prop_assert_eq!(held.program(), plan.program());
                    prop_assert_eq!(
                        held.descriptor().as_bytes(),
                        plan.descriptor().as_bytes()
                    );
                }
            }
        }
    }
}
