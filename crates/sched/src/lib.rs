//! # tadfa-sched — multi-core thermal scenarios
//!
//! The scheduling layer of the *Thermal-Aware Data Flow Analysis*
//! reproduction: where the paper analyzes one function on one
//! floorplan, this crate runs whole **scenarios** — a task set arriving
//! over time on a multi-core die — through the existing
//! `Session`/`Engine` stack and a die-wide coupled thermal model.
//!
//! * [`MultiCoreFloorplan`] — N per-core floorplans tiled onto one die,
//!   inter-core lateral coupling compiled into the existing
//!   [`CompiledModel`](tadfa_thermal::CompiledModel) CSR kernels (and
//!   verified bit-identical to the [`naive_coupled_step`] reference);
//! * [`Task`] / [`TaskMetrics`] — IR function + arrival/length, with a
//!   power profile derived deterministically from its analysis;
//! * [`MappingPolicy`] — pluggable task→core placement (round-robin,
//!   coolest-core, thermal-balanced with migration counting,
//!   static-shard over [`tadfa_workloads::shard`], single-core);
//! * [`DtmPolicy`] — pluggable **dynamic thermal management** closing
//!   the loop between the die solver and the scheduler at fixed control
//!   epochs: DVFS ladders ([`DvfsLadder`]), hard throttling
//!   ([`HardThrottle`]), temperature-triggered migration
//!   ([`MigrateHottest`]);
//! * [`CovertConfig`] — the thermal covert-channel scenario family: a
//!   sender modulates heat on its core, a receiver decodes bits from a
//!   neighbour's temperature trace, and the report carries the
//!   channel's bandwidth/BER per (mapping × DTM) combination;
//! * [`run_scenario`] — analyze (batch-parallel) → map (sequential) →
//!   simulate (closed-loop discrete-event transient + steady),
//!   producing a [`ScenarioResult`] whose
//!   [`fingerprint`](ScenarioResult::fingerprint)
//!   is byte-identical across runs and worker counts;
//! * [`spec`] / [`report`](render_report) — the declarative TOML/JSON
//!   scenario format the `tadfa` CLI loads, and the deterministic JSON
//!   report it emits (the CI golden artifact);
//! * [`json`] — the minimal JSON reader backing specs, golden checks,
//!   and the `tadfa-bench` perf-trend gate.
//!
//! ## Example
//!
//! ```
//! use tadfa_sched::{run_scenario, MultiCoreFloorplan, ScenarioConfig, suite_tasks};
//! use tadfa_thermal::RcParams;
//!
//! let die = MultiCoreFloorplan::new(2, 4, 4, RcParams::default(), Some(40.0))?;
//! let cfg = ScenarioConfig::new("demo", die, suite_tasks(4, 5e-4, 1e-3), "coolest-core");
//! let result = run_scenario(&cfg)?;
//! assert_eq!(result.tasks.len(), 4);
//! assert!(result.die.transient_peak > 300.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod covert;
mod dtm;
pub mod json;
mod multicore;
mod policy;
mod report;
mod runner;
pub mod spec;
mod task;

pub use covert::{covert_tasks, decode, CovertConfig, CovertSummary};
pub use dtm::{
    dtm_policy_from_config, DtmAction, DtmConfig, DtmContext, DtmPolicy, DtmSummary, DvfsLadder,
    HardThrottle, MigrateHottest, NoDtm, DTM_POLICY_INFO, DTM_POLICY_NAMES,
};
pub use multicore::{naive_coupled_step, CoreClass, MultiCoreFloorplan};
pub use policy::{
    mapping_policy_by_name, CoolestCoreFirst, MappingContext, MappingPolicy, RoundRobinMapping,
    SingleCore, StaticShard, ThermalBalanced, MAPPING_POLICY_INFO, MAPPING_POLICY_NAMES,
};
pub use report::{hex_fingerprint, render_report};
pub use runner::{
    run_scenario, CoreSummary, DieSummary, PreparedScenario, RunOverrides, ScenarioConfig,
    ScenarioResult, TaskOutcome,
};
pub use spec::{load_spec, load_spec_dir, parse_spec_toml, SpecError, SPEC_FIELDS};
pub use task::{generated_tasks, suite_tasks, task_metrics, Task, TaskMetrics};
