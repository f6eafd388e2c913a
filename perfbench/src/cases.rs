//! The designs of each workload. Paper designs are fixed; the seed picks
//! only the generated share.

use omnisim_designs::{fig4, misc, table4_designs, typea, typea_suite};
use omnisim_gen::{generate, GenConfig, Rng};
use omnisim_ir::taxonomy::classify;
use omnisim_ir::{Design, DesignClass};

/// Which simulator answers a design exactly, for the correctness gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// The cycle-stepped `rtl` reference.
    Rtl,
    /// The `lightning` baseline: exact on Type A designs, used where the
    /// `rtl` reference is impractical (the many-stage dataflow graphs).
    Lightning,
}

#[derive(Debug)]
pub struct Case {
    pub name: String,
    pub design: Design,
    pub class: DesignClass,
    pub reference: Reference,
    /// Drawn from the workload seed rather than fixed.
    pub generated: bool,
}

impl Case {
    fn new(
        name: impl Into<String>,
        design: Design,
        class: DesignClass,
        reference: Reference,
    ) -> Case {
        Case {
            name: name.into(),
            design,
            class,
            reference,
            generated: false,
        }
    }

    fn generated(label: &str, cfg: &GenConfig, seed: u64) -> Case {
        let g = generate(cfg, seed);
        Case {
            generated: true,
            ..Case::new(
                format!("{label}#{seed:016x}"),
                g.design,
                g.class,
                Reference::Rtl,
            )
        }
    }
}

/// Validates every design and checks that it classifies as recorded and
/// as the workload requires. A failure is a defect of the benchmark or the
/// IR, so it aborts the run.
pub fn validate(cases: &[Case], wanted: impl Fn(DesignClass) -> bool) {
    for case in cases {
        omnisim_ir::validate::validate(&case.design)
            .unwrap_or_else(|e| panic!("{} does not validate: {e}", case.name));
        let class = classify(&case.design).class;
        assert!(
            wanted(class) && class == case.class,
            "{} classifies as {class:?}",
            case.name
        );
    }
}

/// Seeds for the generated share, drawn from the workload seed.
fn seeds(seed: u64, salt: u64, count: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ salt);
    (0..count).map(|_| rng.next()).collect()
}

/// Mid-size streaming kernels of the Table 5 suite, at the suite's sizes.
const TYPEA_KERNELS: [&str; 4] = [
    "vecadd_stream",
    "accumulators_dataflow",
    "multi_stage_fft",
    "parallelized_merge_sort",
];

/// The Table 5 many-stage family with its stage counts and a twentieth of
/// its tokens (`skynet` a fiftieth): name, stages, tokens. A pass takes
/// about a second, so a run holds enough passes for the median and the
/// 90th-percentile request to rest on over twenty samples each.
const TYPEA_FAMILY: [(&str, usize, i64); 7] = [
    ("flowgnn_gin", 12, 300),
    ("flowgnn_gcn", 16, 300),
    ("flowgnn_gat", 20, 400),
    ("flowgnn_pna", 24, 400),
    ("flowgnn_dgn", 12, 500),
    ("inr_arch", 32, 600),
    ("skynet", 48, 500),
];

/// `typea_dataflow`: the Table 5 many-stage family scaled down to fit a
/// run, the mid-size streaming kernels, and seeded Type A / multi-rate
/// pipelines. The family is over half of the requests, so the median
/// request is a family design whatever the seed.
pub fn typea_dataflow(seed: u64) -> Vec<Case> {
    let mut cases: Vec<Case> = TYPEA_FAMILY
        .iter()
        .map(|&(name, stages, n)| {
            let design = if name == "skynet" {
                typea::skynet(stages, n)
            } else {
                typea::dataflow_graph(name, stages, n, 1)
            };
            Case::new(name, design, DesignClass::TypeA, Reference::Lightning)
        })
        .collect();
    cases.extend(
        typea_suite()
            .into_iter()
            .filter(|b| TYPEA_KERNELS.contains(&b.name))
            .map(|b| Case::new(b.name, b.design, b.declared_class, Reference::Rtl)),
    );
    let pipeline = GenConfig::type_a().with_tasks(6, 8).with_tokens(60, 90);
    let multirate = GenConfig::multirate().with_tasks(6, 8).with_tokens(60, 90);
    let s = seeds(seed, 0xa11ce, 2);
    cases.push(Case::generated("gen_type_a", &pipeline, s[0]));
    cases.push(Case::generated("gen_multirate", &multirate, s[1]));
    cases
}

/// `typebc_nb`: the eleven Table 4 designs at `DEFAULT_N`, plus seeded
/// Type B and Type C designs.
pub fn typebc_nb(seed: u64) -> Vec<Case> {
    let mut cases: Vec<Case> = table4_designs()
        .into_iter()
        .map(|b| Case::new(b.name, b.design, b.declared_class, Reference::Rtl))
        .collect();
    let type_b = GenConfig::type_b().with_tasks(4, 6).with_tokens(60, 90);
    let type_c = GenConfig::type_c().with_tasks(4, 6).with_tokens(60, 90);
    for (i, s) in seeds(seed, 0xbc, 4).into_iter().enumerate() {
        if i % 2 == 0 {
            cases.push(Case::generated("gen_type_b", &type_b, s));
        } else {
            cases.push(Case::generated("gen_type_c", &type_c, s));
        }
    }
    cases
}

/// `dse_sizing`: designs compiled once for FIFO sizing — the Fig. 4
/// congestion-aware select and the packet router (Type C), the Table 5
/// streaming kernels (Type A), and seeded Type C designs and Type A
/// pipelines.
pub fn dse_sizing(seed: u64) -> Vec<Case> {
    use DesignClass::TypeC;
    let mut cases = vec![
        Case::new(
            "fig4_ex5",
            fig4::ex5_with_depths(1024, 2, 2),
            TypeC,
            Reference::Rtl,
        ),
        Case::new(
            "packet_router",
            misc::packet_router(512, 4, 2),
            TypeC,
            Reference::Rtl,
        ),
    ];
    cases.extend(
        typea_suite()
            .into_iter()
            .filter(|b| DSE_KERNELS.contains(&b.name))
            .map(|b| Case::new(b.name, b.design, b.declared_class, Reference::Rtl)),
    );
    let type_c = GenConfig::type_c().with_tasks(4, 6).with_tokens(64, 96);
    let type_a = GenConfig::type_a().with_tasks(6, 8).with_tokens(64, 96);
    for (i, s) in seeds(seed, 0xd5e, 8).into_iter().enumerate() {
        if i % 2 == 0 {
            cases.push(Case::generated("gen_type_c", &type_c, s));
        } else {
            cases.push(Case::generated("gen_type_a", &type_a, s));
        }
    }
    cases
}

/// Table 5 kernels sized by `dse_sizing`: their sweeps all certify.
const DSE_KERNELS: [&str; 3] = ["vecadd_stream", "accumulators_dataflow", "multi_stage_fft"];
